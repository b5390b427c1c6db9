package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
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

func (m *scripted) Rescore(context.Context, *core.Task, []Score) {}

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

// pendingSet is a scripted member set whose scatter answers the scores
// it holds, some of them pending, and whose Rescore fills the pending
// ones from the full scores and counts the call.
type pendingSet struct {
	*scripted
	scattered, full []Score
	rescores        int
}

func (m *pendingSet) Scatter(context.Context, *core.Task) []Score {
	return append([]Score(nil), m.scattered...)
}

func (m *pendingSet) Rescore(_ context.Context, _ *core.Task, scores []Score) {
	m.rescores++
	for i := range scores {
		if scores[i].Pending {
			scores[i] = m.full[i]
		}
	}
}

// FuzzRoutePending checks that pending scores cannot change a decision.
// Over arbitrary full scores (fuzzScores), each member whose full score
// has gain ±0 or is full may answer pending instead (mask). Route over
// the pending scores must ask the same members to commit and to buffer,
// in the same order, as Route over the full scores, refusals included
// (a pending member may refuse once it is filled), and return the same
// result. Without a pending score Rescore is never called, and with one
// it is called at most once. The ranking's head after settle is the full
// ranking's head, which is what Engine.Score reports.
func FuzzRoutePending(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 0, 1, 6, 6}, uint16(1))
	f.Add([]byte{1, 6, 1, 1, 0, 11, 1, 0, 12}, uint16(6))
	f.Add([]byte{3, 6, 0, 1, 0, 6, 0, 0, 0}, uint16(7))
	f.Add([]byte{3, 2, 0, 3, 0, 6, 1, 3, 0, 9, 4, 5}, uint16(0xffff))
	f.Add([]byte{3, 6, 0, 3, 6, 1, 3, 0, 2, 1, 0, 0}, uint16(12))
	f.Add([]byte("000700"), uint16(31))
	f.Add([]byte("7001\x00\x061\x000"), uint16(27))
	f.Add([]byte("1\x0301\x011"), uint16(70))
	f.Fuzz(func(t *testing.T, data []byte, mask uint16) {
		full, refusals := fuzzScores(data)
		n := len(full)
		member := func(scattered []Score) *pendingSet {
			m := newScripted(n)
			copy(m.refuseCommit, refusals.refuseCommit)
			copy(m.refuseBuffer, refusals.refuseBuffer)
			return &pendingSet{scripted: m, scattered: scattered, full: full}
		}
		scattered := append([]Score(nil), full...)
		pending := 0
		for i, s := range full {
			if mask>>i&1 == 1 && (s.Gain == 0 || !s.Free) {
				scattered[i] = pendingScore(s.Backlog)
				pending++
			}
		}
		ref, got := member(full), member(scattered)
		wantWid, wantAt, wantErr := Route(context.Background(), ref, nil)
		wid, at, err := Route(context.Background(), got, nil)
		if !slices.Equal(got.commits, ref.commits) || !slices.Equal(got.buffers, ref.buffers) {
			t.Fatalf("pending %v: commits %v, buffers %v; full scores %v: commits %v, buffers %v",
				scattered, got.commits, got.buffers, full, ref.commits, ref.buffers)
		}
		if wid != wantWid || at != wantAt || err != wantErr {
			t.Fatalf("pending route returned (%q, %d, %v), full scores (%q, %d, %v)", wid, at, err, wantWid, wantAt, wantErr)
		}
		if ref.rescores != 0 || pending == 0 && got.rescores != 0 || got.rescores > 1 {
			t.Fatalf("%d pending scores took %d rescores (full scores took %d)", pending, got.rescores, ref.rescores)
		}
		if n == 0 {
			return
		}
		scores := member(scattered)
		settled := append([]Score(nil), scattered...)
		head := settle(context.Background(), scores, nil, settled)[0]
		if want := rank(full)[0]; head != want || settled[head].Pending {
			t.Fatalf("settled head %d (%+v), full ranking's head %d", head, settled[head], want)
		}
	})
}
