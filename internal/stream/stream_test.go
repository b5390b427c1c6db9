package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

func mustAssigner(t *testing.T, cfg Config) *Assigner {
	t.Helper()
	a, err := NewAssigner(cfg)
	if err != nil {
		t.Fatalf("NewAssigner: %v", err)
	}
	return a
}

func task(id string, kw ...int) *core.Task {
	return &core.Task{ID: id, Keywords: bitset.FromIndices(32, kw...)}
}

func wrk(id string, alpha float64, kw ...int) *core.Worker {
	return &core.Worker{ID: id, Alpha: alpha, Beta: 1 - alpha, Keywords: bitset.FromIndices(32, kw...)}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewAssigner(Config{Xmax: 0}); err == nil {
		t.Error("zero Xmax accepted")
	}
	if _, err := NewAssigner(Config{Xmax: 2, BufferLimit: -1}); err == nil {
		t.Error("negative buffer accepted")
	}
}

// A worker whose weights are negative or not finite would make every
// buffered gain compare below the pull scan's seed; AddWorker must reject
// it, register nothing and leave the buffer alone.
func TestAddWorkerRejectsBadWeights(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2})
	for i := 0; i < 4; i++ {
		if _, err := a.OfferTask(task(fmt.Sprintf("t%d", i), i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, ab := range [][2]float64{{-5, -5}, {nan, 0.5}, {0.5, nan}, {-0.1, 1}, {1, -0.1}, {inf, 0}, {0, inf}} {
		w := &core.Worker{ID: "bad", Alpha: ab[0], Beta: ab[1], Keywords: bitset.FromIndices(32, 0, 1)}
		got, err := a.AddWorker(w)
		if err == nil {
			t.Fatalf("alpha=%v beta=%v accepted, drained %v", ab[0], ab[1], taskIDList(got))
		}
		if a.NumWorkers() != 0 || a.BufferLen() != 4 || a.FreeCapacity() != 0 {
			t.Fatalf("alpha=%v beta=%v: rejected worker left state behind: %d workers, %d buffered, %d free",
				ab[0], ab[1], a.NumWorkers(), a.BufferLen(), a.FreeCapacity())
		}
	}
	// Zero weights are valid: the worker still drains the buffer.
	got, err := a.AddWorker(&core.Worker{ID: "zero", Keywords: bitset.FromIndices(32, 0, 1)})
	if err != nil || len(got) != 2 {
		t.Fatalf("zero weights: drained %v, %v", taskIDList(got), err)
	}
}

func TestOfferAssignsToFreeWorker(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	q, err := a.OfferTask(task("t1", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "w1" {
		t.Fatalf("assigned to %q, want w1", q)
	}
	active, err := a.Active("w1")
	if err != nil || len(active) != 1 || active[0] != "t1" {
		t.Fatalf("active = %v, %v", active, err)
	}
}

func TestOfferPrefersHigherMarginalGain(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 3})
	// rel-seeker whose interests match the task exactly vs a mismatched one.
	if _, err := a.AddWorker(wrk("match", 0.1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddWorker(wrk("other", 0.1, 9, 10)); err != nil {
		t.Fatal(err)
	}
	// Seed both with one task so the relevance term is live (|active| > 0).
	if _, err := a.OfferTask(task("seed", 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("seed2", 21)); err != nil {
		t.Fatal(err)
	}
	q, err := a.OfferTask(task("t", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "match" {
		t.Fatalf("task routed to %q, want the matching relevance-seeker", q)
	}
}

func TestBufferingAndPullOnComplete(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 1})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if q, err := a.OfferTask(task("t1", 0)); err != nil || q != "w1" {
		t.Fatalf("first offer: %q, %v", q, err)
	}
	// Worker full: next task buffers.
	q, err := a.OfferTask(task("t2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "" || a.BufferLen() != 1 {
		t.Fatalf("expected buffering, got worker %q buffer %d", q, a.BufferLen())
	}
	// Completion frees the slot and pulls t2.
	pulled, err := a.Complete("w1", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if pulled == nil || pulled.ID != "t2" || a.BufferLen() != 0 {
		t.Fatalf("pulled = %v, buffer %d", pulled, a.BufferLen())
	}
	if n, _ := a.Completed("w1"); n != 1 {
		t.Fatalf("completed = %d", n)
	}
}

func TestBufferLimit(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 1, BufferLimit: 1})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"t1", "t2"} { // t1 assigned, t2 buffered
		if _, err := a.OfferTask(task(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.OfferTask(task("t3", 0)); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
	// A rejected task may be re-offered later.
	if _, err := a.Complete("w1", "t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("t3", 0)); err != nil {
		t.Fatalf("re-offer after rejection: %v", err)
	}
}

func TestDuplicateRejection(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddWorker(wrk("w1", 0.5, 1)); err == nil {
		t.Error("duplicate worker accepted")
	}
	if _, err := a.OfferTask(task("t1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("t1", 1)); err == nil {
		t.Error("duplicate task accepted")
	}
}

func TestWorkerArrivalDrainsBuffer(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2})
	for i := 0; i < 3; i++ {
		if _, err := a.OfferTask(task(fmt.Sprintf("t%d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if a.BufferLen() != 3 {
		t.Fatalf("buffer = %d, want 3", a.BufferLen())
	}
	assigned, err := a.AddWorker(wrk("w1", 0.5, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != 2 || a.BufferLen() != 1 {
		t.Fatalf("assigned %d, buffer %d; want 2 and 1", len(assigned), a.BufferLen())
	}
}

func TestWorkerDepartureReturnsTasks(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2, BufferLimit: 1})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("t1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("t2", 1)); err != nil {
		t.Fatal(err)
	}
	dropped, err := a.RemoveWorker("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Two active tasks, buffer capacity 1: one returns, one is dropped.
	if a.BufferLen() != 1 || len(dropped) != 1 {
		t.Fatalf("buffer %d dropped %d, want 1 and 1", a.BufferLen(), len(dropped))
	}
	if _, err := a.RemoveWorker("w1"); err == nil {
		t.Error("double removal accepted")
	}
	if _, err := a.Active("w1"); err == nil {
		t.Error("Active on removed worker succeeded")
	}
}

func TestCompleteValidation(t *testing.T) {
	a := mustAssigner(t, Config{Xmax: 2})
	if _, err := a.Complete("ghost", "t"); err == nil {
		t.Error("unknown worker accepted")
	}
	if _, err := a.AddWorker(wrk("w1", 0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete("w1", "missing"); err == nil {
		t.Error("inactive task accepted")
	}
}

func TestCapacityInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := mustAssigner(t, Config{Xmax: 3, BufferLimit: 10_000})
	gen, err := workload.NewGenerator(workload.Config{Seed: 3, Universe: 32})
	if err != nil {
		t.Fatal(err)
	}
	workers := gen.Workers(5)
	for _, w := range workers {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	tasks := gen.Tasks(20, 10)
	for i, task := range tasks {
		if _, err := a.OfferTask(task); err != nil {
			t.Fatal(err)
		}
		// Random completions keep slots churning.
		if i%3 == 0 {
			w := workers[r.Intn(len(workers))]
			if active, _ := a.Active(w.ID); len(active) > 0 {
				if _, err := a.Complete(w.ID, active[r.Intn(len(active))]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, w := range workers {
			active, err := a.Active(w.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(active) > 3 {
				t.Fatalf("worker %s over capacity: %d", w.ID, len(active))
			}
		}
	}
	if a.Objective() < 0 {
		t.Fatal("negative objective")
	}
}

// TestStreamVsOfflineGRE: on the same tasks and workers, the streaming
// assigner's objective should reach a reasonable fraction of the offline
// HTA-GRE objective (it decides per-arrival with no lookahead).
func TestStreamVsOfflineGRE(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 9, Universe: 64})
	if err != nil {
		t.Fatal(err)
	}
	tasks := gen.Tasks(30, 4)
	workers := gen.Workers(6)
	const xmax = 5

	a := mustAssigner(t, Config{Xmax: xmax})
	for _, w := range workers {
		clone := *w
		if _, err := a.AddWorker(&clone); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := a.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	streamObj := a.Objective()

	in, err := core.NewInstance(tasks, workers, xmax, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := solver.HTAGRE(in)
	if err != nil {
		t.Fatal(err)
	}
	if streamObj < 0.4*offline.Objective {
		t.Errorf("streaming objective %g below 40%% of offline GRE %g", streamObj, offline.Objective)
	}
}
