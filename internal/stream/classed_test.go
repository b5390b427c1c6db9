package stream_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/stream/streamtest"
)

// opReader hands out the fuzz input one byte at a time, 0 once it is spent.
type opReader struct {
	data []byte
	i    int
}

func (r *opReader) more() bool { return r.i < len(r.data) }

func (r *opReader) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

func randKeywords(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	for e := 0; e < n; e++ {
		if rng.Intn(10) < 3 {
			s.Add(e)
		}
	}
	return s
}

func taskIDs(ts []*core.Task) []string {
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// checkParity runs one op sequence decoded from data against the classed
// assigner and the per-task reference and fails at the first event where
// they return different tasks, or where their buffers or active sets
// differ afterwards. Offers draw keyword sets from a few templates (and
// now and then a fresh one), so classes repeat, gains tie, and classes
// empty and reopen as tasks come and go. A worker can also empty its
// whole active set, so offers meet free workers whose gain is 0 and only
// the relevance tiebreak decides.
func checkParity(t *testing.T, data []byte) { runParity(t, data) }

// runParity is checkParity; it returns how many offers met a registered
// worker with an empty active set.
func runParity(t *testing.T, data []byte) (emptyOffers int) {
	r := &opReader{data: data}
	now := int64(1)
	clock := func() int64 { return now }
	var dist metric.Distance = metric.Jaccard{}
	if r.next()&1 == 1 {
		dist = metric.Hamming{}
	}
	xmax, limit, aware := 1+r.next()%4, 2+r.next()%30, r.next()&1 == 1
	a, err := stream.NewAssigner(stream.Config{
		Xmax: xmax, BufferLimit: limit, Dist: dist,
		DeadlineAware: aware, UrgencyHorizon: 8, Now: clock,
		Metrics: stream.NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := streamtest.New(streamtest.Config{
		Xmax: xmax, BufferLimit: limit, Dist: dist,
		DeadlineAware: aware, UrgencyHorizon: 8, Now: clock,
	})

	const universe = 16
	rng := rand.New(rand.NewSource(int64(r.next())))
	templates := make([]*bitset.Set, 1+r.next()%5)
	for i := range templates {
		templates[i] = randKeywords(rng, universe)
	}
	weights := []float64{0, 0.25, 0.5, 1}
	pool := make([]*core.Worker, 5)
	for i := range pool {
		pool[i] = &core.Worker{
			ID:       fmt.Sprintf("w%d", i),
			Keywords: randKeywords(rng, universe),
			Alpha:    weights[rng.Intn(len(weights))],
			Beta:     weights[rng.Intn(len(weights))],
		}
	}

	same := func(step int, what string, got, want []*core.Task) {
		t.Helper()
		if g, w := taskIDs(got), taskIDs(want); !slices.Equal(g, w) {
			t.Fatalf("step %d: %s: classed %v, reference %v", step, what, g, w)
		}
	}
	taskN := 0
	for step := 0; r.more(); step++ {
		ids := a.WorkerIDs()
		switch op := r.next() % 10; op {
		case 0, 1, 2: // offer
			tpl, dl := r.next(), r.next()
			kw := randKeywords(rng, universe)
			if tpl%8 != 7 {
				kw = templates[tpl%len(templates)].Clone()
			}
			tk := &core.Task{ID: fmt.Sprintf("t%d", taskN), Keywords: kw}
			taskN++
			if dl%3 != 0 {
				tk.Deadline = now + int64(dl%20) - 4
			}
			for _, id := range ids {
				if active, _ := a.ActiveTasks(id); len(active) == 0 {
					emptyOffers++
					break
				}
			}
			got, err := a.OfferTask(tk)
			want, full := ref.Offer(tk)
			if full != errors.Is(err, stream.ErrBufferFull) || (err != nil && !full) || got != want {
				t.Fatalf("step %d: offer %s: classed (%q, %v), reference (%q, full=%v)", step, tk.ID, got, err, want, full)
			}
		case 3, 4: // complete
			if len(ids) == 0 {
				continue
			}
			id := ids[r.next()%len(ids)]
			active, _ := a.ActiveTasks(id)
			if len(active) == 0 {
				continue
			}
			done := active[r.next()%len(active)].ID
			got, err := a.Complete(id, done)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Complete(id, done)
			if (got == nil) != (want == nil) || (got != nil && got.ID != want.ID) {
				t.Fatalf("step %d: complete %s/%s: classed pulled %v, reference %v", step, id, done, got, want)
			}
		case 5: // worker arrives
			w := pool[r.next()%len(pool)]
			if slices.Contains(ids, w.ID) {
				continue
			}
			got, err := a.AddWorker(w)
			if err != nil {
				t.Fatal(err)
			}
			same(step, "add "+w.ID, got, ref.AddWorker(w))
		case 6: // worker departs
			if len(ids) == 0 {
				continue
			}
			id := ids[r.next()%len(ids)]
			got, err := a.RemoveWorker(id)
			if err != nil {
				t.Fatal(err)
			}
			same(step, "remove "+id, got, ref.RemoveWorker(id))
		case 7: // steal-shaped drop from the buffer front
			n := 1 + r.next()%4
			same(step, "take", a.TakeBuffered(n), ref.TakeBuffered(n))
		case 8: // a worker empties: the buffer goes, then its active set completes
			if len(ids) == 0 {
				continue
			}
			id := ids[r.next()%len(ids)]
			n := len(a.Buffered())
			same(step, "take all", a.TakeBuffered(n), ref.TakeBuffered(n))
			active, _ := a.ActiveTasks(id)
			for _, tk := range active {
				got, err := a.Complete(id, tk.ID)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.Complete(id, tk.ID); got != nil || want != nil {
					t.Fatalf("step %d: complete %s/%s on an empty buffer: classed pulled %v, reference %v", step, id, tk.ID, got, want)
				}
			}
		default: // time passes; expire, or declare a window
			now += int64(r.next() % 6)
			if b := r.next(); b&1 == 0 {
				same(step, "expire", a.ExpireDue(now), ref.ExpireDue(now))
			} else if len(ids) > 0 {
				id, until := ids[(b>>1)%len(ids)], now+int64(r.next()%20)
				if err := a.SetWindow(id, until); err != nil {
					t.Fatal(err)
				}
				ref.SetWindow(id, until)
			}
		}
		same(step, "buffer", a.Buffered(), ref.Buffered())
		for _, id := range a.WorkerIDs() {
			active, _ := a.ActiveTasks(id)
			same(step, "active "+id, active, ref.Active(id))
		}
	}
	return emptyOffers
}

// FuzzClassedPull pits the class-collapsed gain cache against the
// per-task reference scan over arbitrary op sequences: offers, completes,
// arrivals, departures, front drops, expiries and windows, with and
// without DeadlineAware. Every event must return the same tasks.
func FuzzClassedPull(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkParity)
}

// TestClassedPullMatchesReference runs longer random op sequences than
// the fuzz seed corpus holds, so a plain go test sees many classes open,
// empty and reopen.
func TestClassedPullMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	emptyOffers := 0
	for i := 0; i < 40; i++ {
		data := make([]byte, 4000)
		rng.Read(data)
		emptyOffers += runParity(t, data)
	}
	if emptyOffers < 1000 {
		t.Fatalf("%d offers met a worker with an empty active set, want at least 1000", emptyOffers)
	}
}
