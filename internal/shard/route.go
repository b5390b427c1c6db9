package shard

import (
	"context"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// The routing decision, shared by the engine (members are shards)
// and the cluster gateway (members are nodes behind RPC). The greedy
// argmax over all workers equals the max over per-member maxima, so one
// decision routes across any partition of the workers. A member set
// brings its own transport, scatter included; Route is the rest.

// Score is one member's answer to the scatter: the best marginal gain and
// its relevance tie-break among workers with free capacity (meaningless
// when Free is false), and the member's buffered backlog. Scores are held
// in a slice indexed by member, never in reply-arrival order.
//
// A Pending score (pendingScore) says that every free worker on the
// member gains exactly +0, or that none is free, with the relevance not
// computed: the member had no eligible partly-filled worker. Route asks
// for the member's full score (Member.Rescore) only when the decision
// can depend on it; see the ranking argument at settle.
type Score struct {
	Gain, Rel float64
	Free      bool
	Pending   bool
	Backlog   int
}

// pendingScore is a pending member's score: free with gain +0, so that
// the comparator ranks it after every free member with a gain above ε,
// before every full member, and among pending members by index.
func pendingScore(backlog int) Score {
	return Score{Free: true, Pending: true, Backlog: backlog}
}

// Member is the member set of one decision, indexed from 0.
type Member interface {
	// Scatter asks every member for its Score of t, each reply at its
	// member's index. A member that fails to answer is left out of the
	// decision, and the indices are those of the members that answered.
	// A reply may be pending only if Rescore can fill it.
	Scatter(ctx context.Context, t *core.Task) []Score
	// Rescore replaces every pending score in scores, a Scatter of t, by
	// its member's full score, leaving the backlog as scattered. A member
	// set that never answers pending does nothing here.
	Rescore(ctx context.Context, t *core.Task, scores []Score)
	// Commit assigns t to member i's best free worker, never buffering;
	// ok is false when the member filled since it was scored.
	Commit(ctx context.Context, i int, t *core.Task) (wid string, ok bool)
	// Buffer parks t on member i; any error is a refusal.
	Buffer(ctx context.Context, i int, t *core.Task) error
}

// gainEps is the tie width on marginal gains, the per-worker rule's.
const gainEps = 1e-12

// ranksBefore is the ranking comparator: free before full; among free
// members higher gain (outside the epsilon), then higher relevance; then
// lower index. Full members therefore follow in index order.
func ranksBefore(scores []Score, i, j int) bool {
	a, b := scores[i], scores[j]
	if a.Free != b.Free {
		return a.Free
	}
	if a.Free {
		if a.Gain > b.Gain+gainEps {
			return true
		}
		if b.Gain > a.Gain+gainEps {
			return false
		}
		if a.Rel != b.Rel {
			return a.Rel > b.Rel
		}
	}
	return i < j
}

// rank returns the member indices in decision order. The epsilon makes
// the comparator intransitive on near ties, so the order is defined by
// this insertion sort over members in index order: a deterministic
// function of the scores alone.
func rank(scores []Score) []int {
	return insertionOrder(len(scores), func(i, j int) bool { return ranksBefore(scores, i, j) })
}

// insertionOrder sorts 0..n-1 by before with a stable insertion sort (n
// is a shard or node count).
func insertionOrder(n int, before func(i, j int) bool) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = k
		for m := k; m > 0 && before(order[m], order[m-1]); m-- {
			order[m], order[m-1] = order[m-1], order[m]
		}
	}
	return order
}

// settle ranks the scores for the commit walk, first filling the pending
// ones (Rescore) unless the ranking's head does not depend on them.
//
// Why the walk may start before they are filled. Let C be the free
// members whose computed gain is above ε, U the pending ones, and F the
// full ones. A member of U truly gains +0 or is full, so every member of
// C ranks strictly before every member of U and F, under U's pending and
// full scores alike (gain > 0+ε; free before full). Insertion into [C
// part][rest] therefore never moves a later member past a C member and
// always moves a C member past every later one, after which it meets the
// C part as the sort of C alone would. So the ranking is sort(C)
// followed by the sort of U and F, and sort(C) is the same with or
// without U's relevances: the walk over sort(C) is the one the full
// scores make. The pending scores are needed only when the walk passes
// the last member of C (commitWalk), or before it starts when C is empty
// or some computed free gain is not above ε, and so could rank on either
// side of a U member. With no pending score, nothing is asked.
func settle(ctx context.Context, m Member, t *core.Task, scores []Score) []int {
	pending, above, low := false, false, false
	for _, s := range scores {
		switch {
		case s.Pending:
			pending = true
		case !s.Free:
		case s.Gain > gainEps:
			above = true
		default:
			low = true
		}
	}
	if pending && (!above || low) {
		m.Rescore(ctx, t, scores)
	}
	return rank(scores)
}

// commitWalk tries the members scored free, in rank order, until one
// commits. A member that scored full is never asked: the commit could
// only succeed in the narrow window where a slot freed since scoring, and
// asking would cost every buffered offer one failed call per member (an
// RPC per node on the gateway). Reaching a pending member, the walk has
// tried all of C (settle) and been refused: it marks those members full,
// fills the pending scores and walks the ranking they make afresh. Full
// members rank after every free one without changing the free members'
// order, so the free prefix it walks is that of the sort of U and F,
// which the full scores walk after C too; and under concurrent offers a
// refused member is not asked twice. Returns the committing member, or -1.
func commitWalk(ctx context.Context, m Member, scores []Score, t *core.Task) (wid string, at int) {
	order := settle(ctx, m, t, scores)
	for k := 0; k < len(order); k++ {
		i := order[k]
		if scores[i].Pending {
			for _, j := range order[:k] {
				scores[j].Free = false
			}
			m.Rescore(ctx, t, scores)
			order = rank(scores)
			k, i = 0, order[0]
		}
		if !scores[i].Free {
			break
		}
		if wid, ok := m.Commit(ctx, i, t); ok {
			return wid, i
		}
	}
	return "", -1
}

// bufferWalk parks t on the least backlogged member that accepts it,
// trying members in (backlog, index) order; stream.ErrBufferFull when
// every member refuses.
func bufferWalk(ctx context.Context, m Member, scores []Score, t *core.Task) (at int, err error) {
	order := insertionOrder(len(scores), func(i, j int) bool {
		if scores[i].Backlog != scores[j].Backlog {
			return scores[i].Backlog < scores[j].Backlog
		}
		return i < j
	})
	for _, i := range order {
		if m.Buffer(ctx, i, t) == nil {
			return i, nil
		}
	}
	return -1, stream.ErrBufferFull
}

// Route is the whole offer decision over m's members: scatter t, commit
// to the best free member, falling down the ranking, else buffer on the
// least backlogged member. Returns the member that took t (wid is "" when
// buffered), or stream.ErrBufferFull, also when no member answered.
func Route(ctx context.Context, m Member, t *core.Task) (wid string, at int, err error) {
	scores := m.Scatter(ctx, t)
	if wid, at = commitWalk(ctx, m, scores, t); at >= 0 {
		return wid, at, nil
	}
	at, err = bufferWalk(ctx, m, scores, t)
	return "", at, err
}
