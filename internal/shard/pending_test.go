package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/workload"
)

// fullShards is bare assigners as routing members that always answer in
// full: the engine's shards as they were scored before pending scores.
type fullShards []*stream.Assigner

func (m fullShards) Scatter(_ context.Context, t *core.Task) []Score {
	scores := make([]Score, len(m))
	for i, a := range m {
		s := &scores[i]
		s.Gain, s.Rel, s.Free = a.BestGain(t)
		s.Backlog = a.Backlog()
	}
	return scores
}

func (m fullShards) Rescore(context.Context, *core.Task, []Score) {}

func (m fullShards) Commit(_ context.Context, i int, t *core.Task) (string, bool) {
	return m[i].TryAssign(t)
}

func (m fullShards) Buffer(_ context.Context, i int, t *core.Task) error { return m[i].BufferTask(t) }

// TestPendingRouteMatchesFullScores: pending scores cannot change a
// decision of the engine. A multi-shard engine and its twin, one bare
// assigner per shard holding that shard's workers and routed by Route
// over full scores, take one seeded sequence of arrivals, departures,
// offers, completions and cluster-surface scores and commits. They agree
// on every worker, pulled, drained and dropped task, every Score bit
// and every backlog, while the engine runs fewer selection scans. Each
// offer that rescored is marked on its "shard.route" span, and an offer
// that finds every shard full rescores nothing.
func TestPendingRouteMatchesFullScores(t *testing.T) {
	const xmax, buffer, steps = 3, 8, 1500
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng := testEngine(t, Config{Shards: shards, StealInterval: -1,
				Stream: stream.Config{Xmax: xmax, BufferLimit: buffer}})
			twin := make(fullShards, shards)
			for i := range twin {
				a, err := stream.NewAssigner(stream.Config{Xmax: xmax, BufferLimit: buffer,
					Metrics: stream.NewMetrics(obs.NewRegistry())})
				if err != nil {
					t.Fatal(err)
				}
				twin[i] = a
			}
			on := func(wid string) *stream.Assigner { return twin[eng.ShardOf(wid)] }
			rec := trace.NewRecorder(4, 1)

			workers, tasks := genWorkload(11, 30, 1000)
			rng := rand.New(rand.NewSource(11))
			absent, present := workers, []*core.Worker(nil)
			type pair struct{ wid, tid string }
			var active []pair
			step := 0
			check := func(what string, got, want any, errE, errB error) {
				t.Helper()
				if (errE == nil) != (errB == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d %s: engine %v (%v), twin %v (%v)", step, what, got, errE, want, errB)
				}
				for i, a := range twin {
					if b := eng.parts[i].asn.Backlog(); b != a.Backlog() {
						t.Fatalf("step %d %s: shard %d backlog %d, twin %d", step, what, i, b, a.Backlog())
					}
				}
			}
			addActive := func(wid string, ts []*core.Task) {
				for _, tk := range ts {
					active = append(active, pair{wid, tk.ID})
				}
			}
			ti, rescored, fullOffers := 0, 0, 0
			for step = 0; step < steps && ti < len(tasks); step++ {
				// Bursts of offers alternate with lulls, so the crowd fills
				// up and drains again.
				op := rng.Intn(14)
				if burst := step/100%3 == 0; burst && op >= 11 {
					op = 3
				}
				switch {
				case op < 2 && len(absent) > 0: // arrive
					k := rng.Intn(len(absent))
					w := absent[k]
					absent = append(absent[:k], absent[k+1:]...)
					got, errE := eng.AddWorker(w)
					want, errB := on(w.ID).AddWorker(w)
					check("AddWorker", taskIDs(got), taskIDs(want), errE, errB)
					present = append(present, w)
					addActive(w.ID, got)
				case op == 2 && len(present) > 1: // depart
					k := rng.Intn(len(present))
					id := present[k].ID
					got, errE := eng.RemoveWorker(id)
					want, errB := on(id).RemoveWorker(id)
					check("RemoveWorker", taskIDs(got), taskIDs(want), errE, errB)
					absent = append(absent, present[k])
					present = append(present[:k], present[k+1:]...)
					kept := active[:0]
					for _, p := range active {
						if p.wid != id {
							kept = append(kept, p)
						}
					}
					active = kept
				case op < 7: // offer, under a sampled trace
					task := tasks[ti]
					ti++
					allFull := eng.FreeCapacity() == 0
					before := eng.metrics.RouteRescores.Value()
					ctx, root := rec.Start(context.Background(), "offer")
					got, errE := eng.OfferTaskCtx(ctx, task)
					root.End()
					want, _, errB := Route(context.Background(), twin, task)
					check("OfferTask", got, want, errE, errB)
					if errE == nil && got != "" {
						active = append(active, pair{got, task.ID})
					}
					didRescore := eng.metrics.RouteRescores.Value() != before
					marked := false
					for _, sp := range rec.Snapshot(1)[0].Spans() {
						for _, a := range sp.Attrs {
							marked = marked || sp.Name == "shard.route" && a.Key == "rescored" && a.Value() == true
						}
					}
					if marked != didRescore {
						t.Fatalf("step %d: offer rescored %v, span marked %v", step, didRescore, marked)
					}
					if allFull {
						fullOffers++
						if didRescore {
							t.Fatalf("step %d: an offer to full shards rescored", step)
						}
					}
					if didRescore {
						rescored++
					}
				case op == 7: // the cluster surface: score, then commit
					task := tasks[ti]
					ti++
					head0, _ := eng.Score(context.Background(), task)
					g, r, free := head0.Gain, head0.Rel, head0.Free
					scores := twin.Scatter(context.Background(), task)
					head := scores[rank(scores)[0]]
					if free != head.Free || free && (math.Float64bits(g) != math.Float64bits(head.Gain) || math.Float64bits(r) != math.Float64bits(head.Rel)) {
						t.Fatalf("step %d: Score (%v, %v, %v), twin head %+v", step, g, r, free, head)
					}
					got, ok := eng.Commit(context.Background(), task)
					want, at := commitWalk(context.Background(), twin, scores, task)
					check("Commit", got, want, nil, nil)
					if ok != (at >= 0) {
						t.Fatalf("step %d: Commit ok %v, twin committed at %d", step, ok, at)
					}
					if ok {
						active = append(active, pair{got, task.ID})
					}
				case len(active) > 0: // complete
					k := rng.Intn(len(active))
					p := active[k]
					active = append(active[:k], active[k+1:]...)
					got, errE := eng.Complete(p.wid, p.tid)
					want, errB := on(p.wid).Complete(p.wid, p.tid)
					check("Complete", taskID(got), taskID(want), errE, errB)
					if errE == nil && got != nil {
						active = append(active, pair{p.wid, got.ID})
					}
				}
			}
			if math.Float64bits(eng.Objective()) != math.Float64bits(twinObjective(twin)) {
				t.Fatalf("final objective: engine %v, twin %v", eng.Objective(), twinObjective(twin))
			}
			var engScans, twinScans uint64
			for i, a := range twin {
				eng.parts[i].call(func(asn *stream.Assigner) { engScans += asn.Scans() })
				twinScans += a.Scans()
			}
			t.Logf("%d offers rescored, %d offers found every shard full; %d scans, %d with full scores", rescored, fullOffers, engScans, twinScans)
			if rescored == 0 || fullOffers == 0 || engScans >= twinScans {
				t.Fatalf("%d offers rescored, %d found every shard full, %d scans against %d: want some of each, and scans saved",
					rescored, fullOffers, engScans, twinScans)
			}
		})
	}
}

// twinObjective sums the shards' objectives in shard order, as
// Engine.Objective does.
func twinObjective(twin fullShards) float64 {
	var total float64
	for _, a := range twin {
		total += a.Objective()
	}
	return total
}

// BenchmarkRouteFill times the offer path of a two-shard engine over a
// wide crowd: 1024 workers at Xmax 15, keywords over a universe of 100,
// tasks from 256 keyword groups, and an empty buffer. Each op registers
// the workers with the timer stopped, then offers 7680 tasks in process,
// filling half the slots, as the stream-wide bench's setup does. It
// reports ns/offer and scans/offer, the selection scans the shards ran
// (stream.Assigner.Scans) per offer.
func BenchmarkRouteFill(b *testing.B) {
	const workers, xmax, universe, groups, fill = 1024, 15, 100, 256, 1024 * 15 / 2
	gen, err := workload.NewGenerator(workload.Config{Universe: universe, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	pool := gen.Workers(workers)
	kws := gen.Tasks(groups, 1)
	rng := rand.New(rand.NewSource(7))
	tasks := make([]*core.Task, fill)
	for i := range tasks {
		tasks[i] = &core.Task{ID: fmt.Sprintf("fill-%d", i), Keywords: kws[rng.Intn(groups)].Keywords}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var elapsed time.Duration
	var scans uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(Config{Shards: 2, StealInterval: -1, Registry: obs.NewRegistry(),
			Stream: stream.Config{Xmax: xmax, BufferLimit: 1024}})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range pool {
			if _, err := e.AddWorker(w); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		start := time.Now()
		for _, t := range tasks {
			if wid, err := e.OfferTask(t); wid == "" || err != nil {
				b.Fatalf("fill offer %s: %q, %v", t.ID, wid, err)
			}
		}
		elapsed += time.Since(start)
		b.StopTimer()
		for _, a := range e.parts {
			a.call(func(asn *stream.Assigner) { scans += asn.Scans() })
		}
		e.Close()
		b.StartTimer()
	}
	offers := float64(b.N) * fill
	b.ReportMetric(float64(elapsed.Nanoseconds())/offers, "ns/offer")
	b.ReportMetric(float64(scans)/offers, "scans/offer")
}
