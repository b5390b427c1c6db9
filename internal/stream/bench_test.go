package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/workload"
)

// benchShape mirrors the single-shard point of BENCH_PR5.json: a worker pool
// saturated at Xmax and a deep backlog, so Offer lands in the buffer. The
// BestGain and OfferTask benchmarks below measure their entry points on
// that steady state; BenchmarkCompleteTask has shapes of its own.
const (
	benchWorkers = 56
	benchXmax    = 4
	benchBuffer  = 2048
)

// newBenchAssigner builds a saturated assigner: every worker at capacity,
// the buffer filled to depth. Returns the assigner, the workers, and a
// task supply for the benchmark loop (IDs disjoint from the fill).
func newBenchAssigner(b *testing.B, depth int) (*Assigner, []*core.Worker, []*core.Task) {
	b.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewAssigner(Config{
		Xmax: benchXmax,
		// One slot of headroom: the offer benchmark holds the buffer at
		// depth by evicting after each timed offer, which transiently
		// needs depth+1.
		BufferLimit: depth + 1,
		Metrics:     NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		b.Fatal(err)
	}
	workers := gen.Workers(benchWorkers)
	for _, w := range workers {
		if _, err := a.AddWorker(w); err != nil {
			b.Fatal(err)
		}
	}
	fill := benchWorkers*benchXmax + depth
	supply := gen.Tasks(fill/8+b.N/8+2, 8)
	for _, t := range supply[:fill] {
		if _, err := a.OfferTask(t); err != nil {
			b.Fatal(err)
		}
	}
	if a.BufferLen() < depth || a.FreeCapacity() != 0 {
		b.Fatalf("fill: depth %d free %d", a.BufferLen(), a.FreeCapacity())
	}
	return a, workers, supply[fill:]
}

// BenchmarkBestGain scores one task against every worker read-only — the
// scatter half of the sharded routing protocol.
func BenchmarkBestGain(b *testing.B) {
	a, _, supply := newBenchAssigner(b, benchBuffer)
	t := supply[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.BestGain(t)
	}
}

// BenchmarkOfferTask measures the buffered-arrival path at constant
// depth: every worker is full, so each offer prices the task against all
// workers and appends a column to every cache. The just-added column is
// swap-removed between iterations (cheap: last-slot eviction) to hold
// the depth at 2048.
func BenchmarkOfferTask(b *testing.B) {
	a, _, _ := newBenchAssigner(b, benchBuffer)
	tasks := make([]*core.Task, b.N)
	for i := range tasks {
		tasks[i] = &core.Task{ID: fmt.Sprintf("bench-offer-%d", i), Keywords: a.buffer[0].Keywords}
	}
	prewarmSeen(a, tasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.OfferTask(tasks[i]); err != nil {
			b.Fatal(err)
		}
		a.bufferSwapRemove(len(a.buffer) - 1)
	}
}

// BenchmarkCompleteTask measures the complete-dominated steady state:
// each iteration completes one active task (the freed slot pulls the best
// buffered candidate) and offers a fresh task to restore the depth — one
// Complete + one buffered Offer per op. Both cases have the stream-deep
// bench workload's per-shard shape (40 workers at Xmax 15, 12288
// buffered):
//
//   - grouped: the tasks come from 256 keyword groups, as the bench's
//     task stream does, so the gain cache holds 256 classes;
//   - distinct: every task has its own keyword set, so there is one class
//     per buffered task — the case where keying the cache by class saves
//     nothing and must cost no more than a per-task cache.
func BenchmarkCompleteTask(b *testing.B) {
	const workers, xmax, depth, groups = 40, 15, 12288, 256
	for _, grouped := range []bool{true, false} {
		name := "distinct"
		if grouped {
			name = "grouped"
		}
		b.Run(name, func(b *testing.B) {
			gen, err := workload.NewGenerator(workload.Config{Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			a, err := NewAssigner(Config{Xmax: xmax, BufferLimit: depth, Metrics: NewMetrics(obs.NewRegistry())})
			if err != nil {
				b.Fatal(err)
			}
			pool := gen.Workers(workers)
			for _, w := range pool {
				if _, err := a.AddWorker(w); err != nil {
					b.Fatal(err)
				}
			}
			// tasks holds the fill, then one task per iteration. A grouped
			// task takes the keyword set of a group drawn at random.
			fill := workers*xmax + depth
			var tasks []*core.Task
			if grouped {
				kws := gen.Tasks(groups, 1)
				rng := rand.New(rand.NewSource(7))
				tasks = make([]*core.Task, fill+b.N)
				for i := range tasks {
					tasks[i] = &core.Task{ID: fmt.Sprintf("bench-%d", i), Keywords: kws[rng.Intn(groups)].Keywords}
				}
			} else {
				tasks = gen.Tasks(fill+b.N, 1)
			}
			for _, t := range tasks[:fill] {
				if _, err := a.OfferTask(t); err != nil {
					b.Fatal(err)
				}
			}
			if a.BufferLen() != depth || a.FreeCapacity() != 0 {
				b.Fatalf("fill: depth %d free %d", a.BufferLen(), a.FreeCapacity())
			}
			supply := tasks[fill:]
			prewarmSeen(a, supply)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := pool[i%len(pool)]
				ws := a.workers[w.ID]
				pulled, err := a.Complete(w.ID, ws.active[0].ID)
				if err != nil {
					b.Fatal(err)
				}
				if pulled == nil {
					b.Fatal("empty buffer mid-benchmark")
				}
				if _, err := a.OfferTask(supply[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// prewarmSeen grows the duplicate filter to its final size before timing
// so steady-state inserts reuse map cells instead of triggering growth.
func prewarmSeen(a *Assigner, tasks []*core.Task) {
	for _, t := range tasks {
		a.seen[t.ID] = true
	}
	for _, t := range tasks {
		delete(a.seen, t.ID)
	}
}

// BenchmarkOfferWide has the shape of one stream-wide bench shard: 512
// workers at Xmax 15, keywords over a universe of 100, and tasks drawn
// from 256 keyword groups, with an empty buffer, so each offer's cost is
// the worker scan.
//
//   - fill: 3840 offers into fresh workers, the setup fill to half the
//     slots. Greedy routing fills one worker at a time, so after it 256
//     workers are full and 256 empty; ns/op is one whole fill, worker
//     registration excluded.
//   - steady: 16 of the full workers have completed one task each, and
//     every op offers a task (it goes to a partial worker) and completes
//     it again, which restores the state.
func BenchmarkOfferWide(b *testing.B) {
	const workers, xmax, universe, groups, fill = 512, 15, 100, 256, 512 * 15 / 2
	gen, err := workload.NewGenerator(workload.Config{Universe: universe, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	pool := gen.Workers(workers)
	kws := gen.Tasks(groups, 1)
	rng := rand.New(rand.NewSource(7))
	newTasks := func(prefix string, n int) []*core.Task {
		tasks := make([]*core.Task, n)
		for i := range tasks {
			tasks[i] = &core.Task{ID: fmt.Sprintf("%s-%d", prefix, i), Keywords: kws[rng.Intn(groups)].Keywords}
		}
		return tasks
	}
	// filled registers the pool with the timer stopped and offers tasks.
	filled := func(b *testing.B, tasks []*core.Task) *Assigner {
		b.StopTimer()
		a, err := NewAssigner(Config{Xmax: xmax, BufferLimit: 1024, Metrics: NewMetrics(obs.NewRegistry())})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range pool {
			if _, err := a.AddWorker(w); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, t := range tasks {
			if wid, err := a.OfferTask(t); wid == "" || err != nil {
				b.Fatalf("fill offer %s: %q, %v", t.ID, wid, err)
			}
		}
		return a
	}
	fillTasks := newTasks("fill", fill)

	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filled(b, fillTasks)
		}
	})

	b.Run("full-scan", func(b *testing.B) {
		a := filled(b, fillTasks)
		probes := newTasks("probe", 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := a.BestGain(probes[i%len(probes)]); !ok {
				b.Fatal("no free worker")
			}
		}
	})

	b.Run("steady", func(b *testing.B) {
		a := filled(b, fillTasks)
		freed := 0
		for _, ws := range a.states {
			if len(ws.active) == xmax && freed < 16 {
				if _, err := a.Complete(ws.worker.ID, ws.active[0].ID); err != nil {
					b.Fatal(err)
				}
				freed++
			}
		}
		supply := newTasks("steady", b.N)
		prewarmSeen(a, supply)
		b.ReportAllocs()
		b.ResetTimer()
		for _, t := range supply {
			wid, err := a.OfferTask(t)
			if wid == "" || err != nil {
				b.Fatalf("offer %s: %q, %v", t.ID, wid, err)
			}
			if _, err := a.Complete(wid, t.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}
