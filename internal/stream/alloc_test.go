package stream

import (
	"fmt"
	"slices"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/workload"
)

// newSteadyAssigner builds the saturated steady state the alloc tests
// measure: every worker at capacity and the buffer filled to depth, with
// one slot of headroom for the offer-then-evict transient.
func newSteadyAssigner(t *testing.T, nWorkers, xmax, depth int) *Assigner {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssigner(Config{
		Xmax:        xmax,
		BufferLimit: depth + 1,
		Metrics:     NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range gen.Workers(nWorkers) {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	fill := nWorkers*xmax + depth
	for _, tk := range gen.Tasks(fill/8+2, 8)[:fill] {
		if _, err := a.OfferTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	if a.BufferLen() < depth || a.FreeCapacity() != 0 {
		t.Fatalf("fill: depth %d free %d", a.BufferLen(), a.FreeCapacity())
	}
	return a
}

// supplyTasks pre-creates n tasks, reusing buffered keyword sets, so no
// allocation is attributable to the tasks themselves.
func supplyTasks(a *Assigner, prefix string, n int) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tasks[i] = &core.Task{ID: fmt.Sprintf("%s-%d", prefix, i), Keywords: a.buffer[i%a.BufferLen()].Keywords}
	}
	return tasks
}

// TestOfferTaskSteadyStateAllocFree pins the buffered-arrival path to zero
// allocations: once the pack mirrors and scratch rows have grown to
// working size, pricing a task against every worker and appending it to
// every cache column must not touch the heap.
func TestOfferTaskSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const depth, runs, warm = 256, 200, 8
	a := newSteadyAssigner(t, 16, 4, depth)
	tasks := supplyTasks(a, "alloc-offer", warm+runs+1)
	next := 0
	step := func() {
		if _, err := a.OfferTask(tasks[next]); err != nil {
			t.Fatal(err)
		}
		next++
		a.bufferSwapRemove(len(a.buffer) - 1)
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("OfferTask steady state allocates %.2f per op, want 0", avg)
	}
}

// TestCompleteTaskSteadyStateAllocFree pins the complete-and-pull path —
// drop an active slot, fold the cached rows over the whole backlog, pull
// the winner, then restore depth with a buffered offer — to zero
// allocations in steady state.
func TestCompleteTaskSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const depth, runs = 256, 200
	a := newSteadyAssigner(t, 16, 4, depth)
	warm := len(a.order) // one full round so every worker's rows recycle once
	tasks := supplyTasks(a, "alloc-complete", warm+runs+1)
	next := 0
	step := func() {
		id := a.order[next%len(a.order)]
		ws := a.workers[id]
		pulled, err := a.Complete(id, ws.active[0].ID)
		if err != nil {
			t.Fatal(err)
		}
		if pulled == nil {
			t.Fatal("empty buffer mid-run")
		}
		if _, err := a.OfferTask(tasks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < warm; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(runs, step); avg != 0 {
		t.Fatalf("Complete+Offer steady state allocates %.2f per op, want 0", avg)
	}
}

// TestBestGainAllocFree pins the read-only scatter probe to zero
// allocations — it is called once per shard per offer by the router, so
// even one allocation would multiply across the fleet. The probes
// alternate between two keyword sets, so every call misses the pick memo
// and scans.
func TestBestGainAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	a := newSteadyAssigner(t, 16, 4, 256)
	other := slices.IndexFunc(a.cls, func(c int) bool { return c != a.cls[0] })
	probes := []*core.Task{
		{ID: "alloc-probe", Keywords: a.buffer[0].Keywords},
		{ID: "alloc-probe-2", Keywords: a.buffer[other].Keywords},
	}
	next, scans := 0, a.scans
	if avg := testing.AllocsPerRun(200, func() { a.BestGain(probes[next%2]); next++ }); avg != 0 {
		t.Fatalf("BestGain allocates %.2f per op, want 0", avg)
	}
	if got := a.scans - scans; got != uint64(next) {
		t.Fatalf("%d of %d probes scanned, want all", got, next)
	}
}
