package shard

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// allocRuns is how many calls each engine alloc test averages over.
const allocRuns = 200

// allocsPerCall runs fn once to warm up, then runs times, and returns the
// mean heap allocations per call from runtime.MemStats.Mallocs, not
// rounded: testing.AllocsPerRun integer-divides, so a mean of 1.94 would
// pass a ceiling of 1. Like AllocsPerRun, it measures with GOMAXPROCS 1.
func allocsPerCall(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// allocEngine builds the steady state the engine alloc tests measure: 64
// workers with Xmax 15 on the given shard count, where rounds of n
// warm-up tasks were offered, committed and completed, so the assigners'
// rows and the admission filter have grown to working size. The filter is
// a Go map whose IDs churn: a round's deletes leave its table short of
// room for the next round's inserts until the table has grown past the
// live count, so one round is not enough to reach that size. It returns
// n fresh tasks over the same keyword sets.
func allocEngine(t *testing.T, shards, n int) (*Engine, []*core.Task) {
	t.Helper()
	const warmRounds = 4
	workers, pool := genWorkload(7, 64, 256)
	e := testEngine(t, Config{Shards: shards, StealInterval: -1,
		Stream: stream.Config{Xmax: 15, BufferLimit: 64}})
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tasks[i] = &core.Task{ID: fmt.Sprintf("alloc-%d", i), Keywords: pool[i%len(pool)].Keywords}
	}
	wids := make([]string, n)
	for r := 0; r < warmRounds; r++ {
		for i, tk := range tasks {
			wids[i] = offerCommit(t, e, &core.Task{ID: fmt.Sprintf("warm-%d-%d", r, i), Keywords: tk.Keywords})
		}
		for i, wid := range wids {
			if _, err := e.Complete(wid, fmt.Sprintf("warm-%d-%d", r, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e, tasks
}

// offerCommit offers tk and fails the test unless a worker took it.
func offerCommit(t *testing.T, e *Engine, tk *core.Task) string {
	t.Helper()
	wid, err := e.OfferTaskCtx(context.Background(), tk)
	if err != nil || wid == "" {
		t.Fatalf("offer %s: worker %q, err %v", tk.ID, wid, err)
	}
	return wid
}

// TestOfferAllocs pins the allocations of a steady-state offer that
// commits. The shard calls run under each shard's lock in the caller's
// goroutine, so their closures stay on the stack, and the trace attributes
// of the route span and the commit events are built only when the offer
// is sampled. One shard allocates nothing; two allocate the scatter's
// scores and the commit ranking.
func TestOfferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		shards  int
		ceiling float64
	}{{1, 0}, {2, 2}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			e, tasks := allocEngine(t, tc.shards, allocRuns+1)
			next := 0
			avg := allocsPerCall(allocRuns, func() {
				offerCommit(t, e, tasks[next])
				next++
			})
			t.Logf("%.2f allocations per call", avg)
			if avg > tc.ceiling {
				t.Fatalf("OfferTaskCtx allocates %.2f per call, want <= %.0f", avg, tc.ceiling)
			}
		})
	}
}

// TestCompleteReadAllocs pins the allocations of a CompleteRead: one
// shard call that completes, pulls and reads the worker's display set
// back, where the display set is the one slice it allocates.
func TestCompleteReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, tc := range []struct {
		shards  int
		ceiling float64
	}{{1, 1}, {2, 1}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			e, tasks := allocEngine(t, tc.shards, allocRuns+1)
			wids := make([]string, len(tasks))
			for i, tk := range tasks {
				wids[i] = offerCommit(t, e, tk)
			}
			ctx, next := context.Background(), 0
			avg := allocsPerCall(allocRuns, func() {
				if _, err := e.CompleteRead(ctx, wids[next], tasks[next].ID); err != nil {
					t.Fatal(err)
				}
				next++
			})
			t.Logf("%.2f allocations per call", avg)
			if avg > tc.ceiling {
				t.Fatalf("CompleteRead allocates %.2f per call, want <= %.0f", avg, tc.ceiling)
			}
		})
	}
}
