package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// scripted is a Member that records the calls it gets and refuses the
// commits and buffers it is told to. The tests hand their scores to the
// walks directly, so it is never scattered.
type scripted struct {
	refuseCommit, refuseBuffer []bool
	commits, buffers           []int
}

func (m *scripted) Scatter(context.Context, *core.Task) []Score { return nil }

func (m *scripted) Commit(_ context.Context, i int, _ *core.Task) (string, bool) {
	m.commits = append(m.commits, i)
	if m.refuseCommit[i] {
		return "", false
	}
	return "w", true
}

func (m *scripted) Buffer(_ context.Context, i int, _ *core.Task) error {
	m.buffers = append(m.buffers, i)
	if m.refuseBuffer[i] {
		return stream.ErrBufferFull
	}
	return nil
}

func newScripted(n int) *scripted {
	return &scripted{refuseCommit: make([]bool, n), refuseBuffer: make([]bool, n)}
}

// TestRankIndependentOfReplyOrder: three free shards with gains 0,
// 0.7e-12 and 1.4e-12 and relevances 2, 1 and 0 form a cycle under the
// epsilon comparator (each neighbour pair ties on gain and splits on
// relevance, the outer pair splits on gain). Whatever order the replies
// arrive in, the scores sit at their shard's index, so there is one
// ranking, and BestGain's pick — the ranking's head — is the first
// commit target.
func TestRankIndependentOfReplyOrder(t *testing.T) {
	replies := []Score{
		{Gain: 0, Rel: 2, Free: true},
		{Gain: 0.7e-12, Rel: 1, Free: true},
		{Gain: 1.4e-12, Rel: 0, Free: true},
	}
	var want []int
	for _, arrival := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		scores := make([]Score, len(replies))
		for _, i := range arrival {
			scores[i] = replies[i]
		}
		order := rank(scores)
		if want == nil {
			want = order
		}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("arrival %v: ranking %v, another arrival ranked %v", arrival, order, want)
		}
		m := newScripted(len(scores))
		if _, at := commitWalk(context.Background(), m, scores, nil); at != order[0] || m.commits[0] != order[0] {
			t.Fatalf("arrival %v: BestGain picks %d, first commit went to %v", arrival, order[0], m.commits)
		}
	}
}

// TestRouteAllFullBuffersWithoutCommit pins the engine's fallback rule:
// an offer that finds every shard full makes no commit attempt and
// buffers on the least backlogged shard (lowest index on ties).
func TestRouteAllFullBuffersWithoutCommit(t *testing.T) {
	e := testEngine(t, Config{Shards: 3, StealInterval: -1, Stream: stream.Config{Xmax: 1}})
	workers, tasks := genWorkload(5, 6, 12)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	rec := trace.NewRecorder(4, 1)
	offer := func(task *core.Task) (commits int) {
		t.Helper()
		ctx, root := rec.Start(context.Background(), "offer")
		if _, err := e.OfferTaskCtx(ctx, task); err != nil {
			t.Fatalf("OfferTask(%s): %v", task.ID, err)
		}
		root.End()
		for _, sp := range rec.Snapshot(1)[0].Spans() {
			if sp.Name == "shard.commit" {
				commits++
			}
		}
		return commits
	}
	k := 0
	for ; e.FreeCapacity() > 0; k++ {
		if offer(tasks[k]) == 0 {
			t.Fatalf("offer %s with a free slot made no commit", tasks[k].ID)
		}
	}
	retries := e.metrics.CommitRetries.Value()
	for _, task := range tasks[k:] {
		before := e.Stats().PerShard
		least := 0
		for i, s := range before {
			if s.Backlog < before[least].Backlog {
				least = i
			}
		}
		if n := offer(task); n != 0 {
			t.Fatalf("offer %s to full shards made %d commit attempts", task.ID, n)
		}
		for i, s := range e.Stats().PerShard {
			want := before[i].Backlog
			if i == least {
				want++
			}
			if s.Backlog != want {
				t.Fatalf("offer %s: shard %d backlog %d, want %d (least backlogged was %d)", task.ID, i, s.Backlog, want, least)
			}
		}
	}
	if got := e.metrics.CommitRetries.Value(); got != retries {
		t.Fatalf("CommitRetries moved from %g to %g with every shard full", retries, got)
	}
}

// fuzzFloats are the gains and relevances FuzzRank draws from: exact
// ties, near ties on both sides of the epsilon, signed zeros and
// non-finite values.
var fuzzFloats = []float64{0, math.Copysign(0, -1), 0.5e-12, 1e-12, 1.5e-12, 2.5e-12,
	1, 1 + 1e-13, 1 - 1e-13, -1, 0.25, math.Inf(1), math.Inf(-1), math.NaN()}

// fuzzScores decodes one member per 3 bytes: a flag byte (free, commit
// refused, buffer refused, backlog) and gain and relevance bytes, each an
// index into fuzzFloats or, past it, a raw float64 from the input's tail.
func fuzzScores(data []byte) ([]Score, *scripted) {
	n := len(data) / 3
	if n > 12 {
		n = 12
	}
	scores := make([]Score, n)
	m := newScripted(n)
	tail := data[3*n:]
	float := func(b byte) float64 {
		if int(b) < len(fuzzFloats) {
			return fuzzFloats[b]
		}
		if len(tail) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(tail))
			tail = tail[8:]
			return v
		}
		return float64(b) * 1e-13
	}
	for i := range scores {
		flags := data[3*i]
		scores[i] = Score{Gain: float(data[3*i+1]), Rel: float(data[3*i+2]),
			Free: flags&1 != 0, Backlog: int(flags >> 3)}
		m.refuseCommit[i] = flags&2 != 0
		m.refuseBuffer[i] = flags&4 != 0
	}
	return scores, m
}

// FuzzRank checks the decision's contract on arbitrary score vectors: the
// ranking is a permutation with free members before full ones and full
// ones in index order; its head is BestGain's pick; the commit walk
// visits the free prefix of the ranking until a member commits; and the
// buffer walk tries members in (backlog, index) order until one accepts.
func FuzzRank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{1, 0, 11, 1, 5, 12, 1, 6, 13})
	f.Add([]byte{3, 0, 2, 3, 2, 1, 3, 4, 0})
	f.Add([]byte{0, 1, 1, 9, 0, 0, 17, 13, 13, 3, 1, 0})
	f.Add([]byte{3, 200, 0, 7, 0, 200, 1, 13, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		scores, m := fuzzScores(data)
		n := len(scores)
		order := rank(scores)
		if len(order) != n {
			t.Fatalf("rank of %d members has %d entries", n, len(order))
		}
		seen := make([]bool, n)
		for k, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("rank %v is not a permutation", order)
			}
			seen[i] = true
			if k > 0 {
				prev := order[k-1]
				if scores[i].Free && !scores[prev].Free {
					t.Fatalf("rank %v puts full %d before free %d", order, prev, i)
				}
				if !scores[i].Free && !scores[prev].Free && prev > i {
					t.Fatalf("rank %v puts full members out of index order", order)
				}
			}
		}
		if n == 0 {
			return
		}
		// BestGain reports the head's score; TryAssign must commit there
		// first, and the head is free whenever any member is.
		anyFree := false
		for _, s := range scores {
			anyFree = anyFree || s.Free
		}
		if scores[order[0]].Free != anyFree {
			t.Fatalf("head %d of %v has Free=%v, some member free: %v", order[0], order, !anyFree, anyFree)
		}
		if _, at := commitWalk(context.Background(), newScripted(n), scores, nil); anyFree && at != order[0] || !anyFree && at != -1 {
			t.Fatalf("first commit went to %d, BestGain's pick is %d", at, order[0])
		}

		var want []int
		for _, i := range order {
			if !scores[i].Free {
				break
			}
			want = append(want, i)
			if !m.refuseCommit[i] {
				break
			}
		}
		wid, at := commitWalk(context.Background(), m, scores, nil)
		if !reflect.DeepEqual(m.commits, want) && len(m.commits)+len(want) > 0 {
			t.Fatalf("commit walk asked %v, want the free prefix %v of %v", m.commits, want, order)
		}
		if committed := len(want) > 0 && !m.refuseCommit[want[len(want)-1]]; committed != (at >= 0) ||
			committed && (at != want[len(want)-1] || wid != "w") {
			t.Fatalf("commit walk returned (%q, %d) after asking %v", wid, at, m.commits)
		}

		at, err := bufferWalk(context.Background(), m, scores, nil)
		for k := 1; k < len(m.buffers); k++ {
			a, b := scores[m.buffers[k-1]], scores[m.buffers[k]]
			if a.Backlog > b.Backlog || a.Backlog == b.Backlog && m.buffers[k-1] > m.buffers[k] {
				t.Fatalf("buffer walk order %v is not (backlog, index)", m.buffers)
			}
		}
		last := m.buffers[len(m.buffers)-1]
		switch {
		case err == nil && (at != last || m.refuseBuffer[at]):
			t.Fatalf("buffer walk returned %d after asking %v", at, m.buffers)
		case err != nil && (!errors.Is(err, stream.ErrBufferFull) || len(m.buffers) != n):
			t.Fatalf("buffer walk failed with %v after asking %v of %d", err, m.buffers, n)
		}
	})
}
