package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/workload"
)

// checkCache compares every cached value against a from-scratch recompute
// and fails on the first mismatch. Equality is exact (==, not epsilon):
// the gain cache's contract is bit-identical floats, so the cached scan
// provably makes the same decisions — including the 1e-12 tie-breaks — as
// the uncached one.
func checkCache(t *testing.T, a *Assigner, when string) {
	t.Helper()
	checkClasses(t, a, when)
	for k, ws := range a.states {
		if a.workers[a.order[k]] != ws {
			t.Fatalf("%s: states[%d] out of sync with order/workers", when, k)
		}
		if len(ws.rel) != len(a.classes) {
			t.Fatalf("%s: worker %s rel has %d entries, %d classes", when, a.order[k], len(ws.rel), len(a.classes))
		}
		if len(ws.rows) != len(ws.active) {
			t.Fatalf("%s: worker %s has %d rows for %d active", when, a.order[k], len(ws.rows), len(ws.active))
		}
		for i, tk := range a.buffer {
			c := a.cls[i]
			if want := metric.Relevance(a.cfg.Dist, tk.Keywords, ws.worker.Keywords); ws.rel[c] != want {
				t.Fatalf("%s: worker %s rel[%d] (buffer[%d]) = %v, recompute %v", when, a.order[k], c, i, ws.rel[c], want)
			}
			for s, u := range ws.active {
				if want := a.cfg.Dist.Distance(tk.Keywords, u.Keywords); ws.rows[s][c] != want {
					t.Fatalf("%s: worker %s rows[%d][%d] (buffer[%d]) = %v, recompute %v", when, a.order[k], s, c, i, ws.rows[s][c], want)
				}
			}
			// The cached scan's gain, folded exactly as pullBest folds it,
			// must equal marginalGain's from-scratch sum.
			var ds float64
			for _, r := range ws.rows {
				ds += r[c]
			}
			w := ws.worker
			g := 2*w.Alpha*ds + w.Beta*(ws.sumRel+float64(len(ws.active))*ws.rel[c])
			if want := a.marginalGain(ws, tk); g != want {
				t.Fatalf("%s: worker %s cached gain for buffer[%d] = %v, marginalGain %v", when, a.order[k], i, g, want)
			}
		}
	}
}

// checkClasses verifies the buffer's class bookkeeping: every buffered
// task sits in the class of its keyword set, each open class has members
// and lists their tickets in ascending order, distinct classes have
// distinct keyword sets, and the table finds every class.
func checkClasses(t *testing.T, a *Assigner, when string) {
	t.Helper()
	if len(a.cls) != len(a.buffer) || a.clsPack.Len() != len(a.classes) {
		t.Fatalf("%s: %d class ids for %d buffered, pack %d for %d classes",
			when, len(a.cls), len(a.buffer), a.clsPack.Len(), len(a.classes))
	}
	members := 0
	for c := range a.classes {
		cl := &a.classes[c]
		if len(cl.tickets) == 0 {
			t.Fatalf("%s: class %d is open without members", when, c)
		}
		for j, tk := range cl.tickets {
			if j > 0 && tk <= cl.tickets[j-1] {
				t.Fatalf("%s: class %d tickets %v not ascending", when, c, cl.tickets)
			}
			if i := tk - a.dropped; i < 0 || i >= len(a.buffer) || a.cls[i] != c {
				t.Fatalf("%s: class %d ticket %d does not point at a member", when, c, tk)
			}
		}
		members += len(cl.tickets)
		if got := a.slots[a.probe(cl.kw, cl.hash)]; got != int32(c+1) {
			t.Fatalf("%s: table finds %d for class %d", when, got-1, c)
		}
	}
	if members != len(a.buffer) {
		t.Fatalf("%s: classes hold %d members, buffer %d", when, members, len(a.buffer))
	}
	for i, tk := range a.buffer {
		kw := a.classes[a.cls[i]].kw
		if kw.Len() != tk.Keywords.Len() || !kw.Equal(tk.Keywords) {
			t.Fatalf("%s: buffer[%d] is not in the class of its keyword set", when, i)
		}
	}
}

// TestCacheSurvivesWorkerChurnMidBacklog is the invalidation case the
// cache must get right with a deep backlog in play: a worker departs with
// active tasks, which requeue through the buffer; surviving workers'
// caches must grow exact columns for them, and a re-arriving worker must
// seed a fresh cache over the whole backlog.
func TestCacheSurvivesWorkerChurnMidBacklog(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2, BufferLimit: 64, Metrics: NewMetrics(obs.NewRegistry())})
	for i := 0; i < 4; i++ {
		if _, err := a.AddWorker(wrk(fmt.Sprintf("w%d", i), 0.5, i, i+3, i+7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := a.OfferTask(task(fmt.Sprintf("t%d", i), i%11, (i+5)%17, (i+9)%23)); err != nil {
			t.Fatal(err)
		}
	}
	checkCache(t, a, "after fill")

	// Depart a loaded worker: its active tasks return to the buffer.
	if len(a.workers["w1"].active) == 0 {
		t.Fatal("w1 has no active tasks; workload does not exercise requeue")
	}
	if _, err := a.RemoveWorker("w1"); err != nil {
		t.Fatal(err)
	}
	checkCache(t, a, "after departure requeue")

	// Re-arrival drains the backlog into the new worker and must seed its
	// rel cache over the remaining buffer.
	if _, err := a.AddWorker(wrk("w1b", 0.3, 1, 2, 12)); err != nil {
		t.Fatal(err)
	}
	checkCache(t, a, "after re-arrival drain")
}

// TestCacheAfterForceAssignAndRestore pins the snapshot-restore path:
// ForceAssign bypasses the selection rule but must still build the active
// rows, so a later Complete pulls exactly what a fresh assigner would.
func TestCacheAfterForceAssignAndRestore(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 3, BufferLimit: 32, Metrics: NewMetrics(obs.NewRegistry())})
	if _, err := a.AddWorker(wrk("q", 0.6, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.ForceAssign("q", task(fmt.Sprintf("restored%d", i), i, i+4, i+8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.RestoreDone("q", 5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := a.BufferTask(task(fmt.Sprintf("buf%d", i), i+2, i+9, i+17)); err != nil {
			t.Fatal(err)
		}
	}
	checkCache(t, a, "after restore")

	next, err := a.Complete("q", "restored1")
	if err != nil {
		t.Fatal(err)
	}
	if next == nil {
		t.Fatal("no pull from a non-empty buffer")
	}
	checkCache(t, a, "after complete on restored state")
}

// TestCachedGainsMatchRecomputeUnderRandomOps is the property test behind
// the whole cache design: under a random interleaving of offers,
// completes, arrivals, departures and steals, every cached rel, row and
// folded gain stays bitwise equal to a from-scratch recompute.
func TestCachedGainsMatchRecomputeUnderRandomOps(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	a := mustAssigner(t, Config{Xmax: 3, BufferLimit: 48, Metrics: NewMetrics(obs.NewRegistry())})
	pool := gen.Workers(12)
	present := make(map[string]*core.Worker)
	taskN := 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // offer
			kws := gen.Tasks(1, 4)
			tk := kws[0]
			tk.ID = fmt.Sprintf("p%d", taskN)
			taskN++
			if _, err := a.OfferTask(tk); err != nil && err != ErrBufferFull {
				t.Fatalf("step %d: offer: %v", step, err)
			}
		case op < 7: // complete a random active task
			if len(a.order) == 0 {
				continue
			}
			id := a.order[rng.Intn(len(a.order))]
			ws := a.workers[id]
			if len(ws.active) == 0 {
				continue
			}
			if _, err := a.Complete(id, ws.active[rng.Intn(len(ws.active))].ID); err != nil {
				t.Fatalf("step %d: complete: %v", step, err)
			}
		case op < 8: // worker arrives
			w := pool[rng.Intn(len(pool))]
			if _, here := present[w.ID]; here {
				continue
			}
			if _, err := a.AddWorker(w); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			present[w.ID] = w
		case op < 9: // worker departs mid-backlog
			if len(a.order) == 0 {
				continue
			}
			id := a.order[rng.Intn(len(a.order))]
			if _, err := a.RemoveWorker(id); err != nil {
				t.Fatalf("step %d: remove: %v", step, err)
			}
			delete(present, id)
		default: // steal-shaped drain from the buffer front
			a.TakeBufferedInto(1+rng.Intn(3), nil)
		}
		checkCache(t, a, fmt.Sprintf("step %d", step))
	}
}
