package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// PR10Point is one rebalancing mode measured on the deadline workload:
// bursty task arrivals (workload.BurstSchedule) over a sharded engine
// whose shard-0 worker cohort repeatedly departs and returns, requeueing
// its active tasks into a shard that has lost its service capacity.
// Reactive mode steals only after the backlog breaches the watermark —
// which the stranded requeues never do — so their deadlines lapse where
// predictive mode's forecaster (rate EWMAs + burstiness guard) projects
// the breach and moves them to shards that still have workers.
type PR10Point struct {
	Mode        string `json:"mode"` // "reactive" or "predictive"
	Shards      int    `json:"shards"`
	Workers     int    `json:"workers"`
	Xmax        int    `json:"xmax"`
	TotalBuffer int    `json:"total_buffer"`
	Watermark   int    `json:"watermark"`
	Steps       int    `json:"steps"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Dropped   int64 `json:"dropped"`
	Stolen    int64 `json:"stolen"`
	Conserved bool  `json:"conserved"`

	// MissPct = 100·Expired/Submitted (every task carries a deadline),
	// median over runs; PerEventNs is the median per offer+complete cost
	// of the timed phase.
	MissPct    float64 `json:"miss_pct"`
	PerEventNs int64   `json:"per_event_ns"`
}

// PR10Report is the payload of BENCH_PR10.json: deadline-miss rate of
// predictive vs reactive rebalancing under bursty churn, with the
// acceptance bar that predictive strictly beats reactive.
type PR10Report struct {
	Note                    string      `json:"note"`
	Points                  []PR10Point `json:"points"`
	ReactiveMissPct         float64     `json:"reactive_miss_pct"`
	PredictiveMissPct       float64     `json:"predictive_miss_pct"`
	MissReductionPct        float64     `json:"miss_reduction_pct"`
	PredictiveBeatsReactive bool        `json:"predictive_beats_reactive"`
}

// pr10Shape fixes the deadline workload both modes replay. Time is a
// logical clock (one step = stepNs) injected through stream.Config.Now,
// so runs are deterministic and deadline arithmetic is exact.
type pr10Shape struct {
	shards    int
	workers   int // generated pool; the shard-0 subset is the churn cohort
	xmax      int
	perShard  int // buffer limit per shard
	watermark int
	batch     int

	steps     int   // timed offer/complete steps
	stepNs    int64 // logical nanoseconds per step
	tickEvery int   // forecast/steal/expire cadence, in steps

	base, burst, period, burstLen int // arrival schedule (BurstSchedule)

	leadMin, leadMax int64 // deadline leads, in steps

	departEvery, departLen int // cohort churn cycle, in steps
	completions            int // Complete calls attempted per step

	urgency int64 // urgency horizon, in steps
	drain   int   // post-workload drain budget, in steps
}

var defaultPR10Shape = pr10Shape{
	shards:    4,
	workers:   48,
	xmax:      2,
	perShard:  96,
	watermark: 32,
	batch:     16,

	steps:     1000,
	stepNs:    int64(time.Millisecond),
	tickEvery: 10,

	base:     2,
	burst:    15,
	period:   20,
	burstLen: 4,

	leadMin: 30,
	leadMax: 100,

	departEvery: 100,
	departLen:   60,
	completions: 5,

	urgency: 50,
	drain:   2000,
}

// SweepPR10 measures the deadline-miss rate of reactive and predictive
// rebalancing on the identical bursty-churn deadline workload, o.Runs
// seeded runs per mode, medians reported.
func SweepPR10(o Options) (*PR10Report, error) {
	o.applyDefaults()
	report := &PR10Report{
		Note: "deadline-miss rate under bursty churn: bursty arrivals (on/off schedule) with uniform deadline leads on every task, while the shard-0 worker cohort departs and returns on a cycle, stranding its requeued tasks on a shard with no service capacity. Reactive = watermark-only stealing; predictive = per-shard EWMA demand forecast with burstiness guard projecting the breach ahead (same deadline-aware ordering and learned windows in both). Identical seeds per run pair; miss = expired / submitted.",
	}
	shape := defaultPR10Shape
	for _, predictive := range []bool{false, true} {
		point, err := measurePR10(o, shape, predictive)
		if err != nil {
			return nil, fmt.Errorf("experiments: pr10 predictive=%v: %w", predictive, err)
		}
		report.Points = append(report.Points, point)
		if predictive {
			report.PredictiveMissPct = point.MissPct
		} else {
			report.ReactiveMissPct = point.MissPct
		}
	}
	if report.ReactiveMissPct > 0 {
		report.MissReductionPct = 100 * (report.ReactiveMissPct - report.PredictiveMissPct) / report.ReactiveMissPct
	}
	report.PredictiveBeatsReactive = report.PredictiveMissPct < report.ReactiveMissPct
	return report, nil
}

// measurePR10 runs one mode o.Runs times and reports median miss rate
// and per-event time; counters and conservation come from the last run
// (all runs are deterministic for a given seed).
func measurePR10(o Options, shape pr10Shape, predictive bool) (PR10Point, error) {
	point := PR10Point{
		Mode:        "reactive",
		Shards:      shape.shards,
		Workers:     shape.workers,
		Xmax:        shape.xmax,
		TotalBuffer: shape.perShard * shape.shards,
		Watermark:   shape.watermark,
		Steps:       shape.steps,
	}
	if predictive {
		point.Mode = "predictive"
	}
	var missSamples []float64
	var timeSamples []time.Duration
	for run := 0; run < o.Runs; run++ {
		res, err := runPR10(o.Seed+int64(run), shape, predictive)
		if err != nil {
			return point, err
		}
		if !res.stats.Conserved() {
			return point, fmt.Errorf("conservation violated on run %d: %+v", run, res.stats)
		}
		missSamples = append(missSamples, 100*float64(res.stats.Expired)/float64(res.stats.Submitted))
		timeSamples = append(timeSamples, res.elapsed)
		point.Submitted = res.stats.Submitted
		point.Completed = res.stats.Completed
		point.Expired = res.stats.Expired
		point.Dropped = res.stats.Dropped
		point.Stolen = res.stolen
		point.Conserved = true
	}
	point.MissPct = medianF(missSamples)
	point.PerEventNs = medianNs(timeSamples) / int64(res10Events(shape))
	return point, nil
}

// res10Events is the event count of the timed phase: every offer plus
// every attempted complete.
func res10Events(shape pr10Shape) int {
	arrivals := 0
	sched, _ := workload.BurstSchedule(shape.steps, shape.base, shape.burst, shape.period, shape.burstLen)
	for _, n := range sched {
		arrivals += n
	}
	return arrivals + shape.steps*shape.completions
}

type pr10Result struct {
	elapsed time.Duration
	stats   shard.Stats
	stolen  int64
}

// runPR10 executes one seeded run of the deadline workload in the given
// mode. The logical clock ticks one stepNs per loop step; every
// tickEvery steps the run folds the forecast, rebalances, and sweeps
// expiry — the deterministic stand-in for the engine's periodic loops.
func runPR10(seed int64, shape pr10Shape, predictive bool) (pr10Result, error) {
	var res pr10Result
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		return res, err
	}
	sched, err := workload.BurstSchedule(shape.steps, shape.base, shape.burst, shape.period, shape.burstLen)
	if err != nil {
		return res, err
	}
	arrivals := 0
	for _, n := range sched {
		arrivals += n
	}
	tasks := gen.Tasks(arrivals/8+1, 8)[:arrivals]
	leads := rand.New(rand.NewSource(seed + 1))

	var clock int64 // logical ns; only the driver goroutine advances it
	now := func() int64 { return clock }
	eng, err := shard.New(shard.Config{
		Shards:         shape.shards,
		StealInterval:  -1, // ticked explicitly below, like pr5
		StealWatermark: shape.watermark,
		StealBatch:     shape.batch,
		Predictive:     predictive,
		LearnWindows:   true,
		Registry:       obs.NewRegistry(),
		Journal:        ops.NewJournal(256),
		Stream: stream.Config{
			Xmax:           shape.xmax,
			BufferLimit:    shape.perShard,
			DeadlineAware:  true,
			UrgencyHorizon: shape.urgency * shape.stepNs,
			Now:            now,
		},
	})
	if err != nil {
		return res, err
	}
	defer eng.Close()

	pool := gen.Workers(shape.workers)
	var cohort, others []*core.Worker
	for _, w := range pool {
		if eng.ShardOf(w.ID) == 0 {
			cohort = append(cohort, w)
		} else {
			others = append(others, w)
		}
	}
	if len(cohort) == 0 {
		return res, errors.New("pr10: no workers hashed to shard 0")
	}
	for _, w := range pool {
		if _, err := eng.AddWorker(w); err != nil {
			return res, err
		}
	}

	present := make(map[string]bool, len(pool))
	for _, w := range pool {
		present[w.ID] = true
	}
	cohortOut := false

	// completeSome attempts n completions round-robin over present
	// workers, querying the engine for live assignments so stolen-and-
	// assigned tasks are completed too (a private ledger would leak them
	// into permanently occupied slots).
	rr := 0
	completeSome := func(n int) error {
		for tries := 0; n > 0 && tries < len(pool); tries++ {
			w := pool[rr%len(pool)]
			rr++
			if !present[w.ID] {
				continue
			}
			ids, err := eng.Active(w.ID)
			if err != nil {
				return err
			}
			if len(ids) == 0 {
				continue
			}
			if _, err := eng.Complete(w.ID, ids[0]); err != nil {
				return err
			}
			n--
		}
		return nil
	}
	tick := func() {
		eng.ForecastTick()
		res.stolen += int64(eng.StealOnce())
		eng.ExpireOnce(clock)
	}

	next := 0
	start := time.Now()
	for step := 0; step < shape.steps; step++ {
		clock = int64(step) * shape.stepNs

		// Cohort churn: shard 0's workers leave mid-cycle and return at
		// the next cycle boundary, requeueing their active tasks into a
		// shard that just lost all its service capacity.
		phase := step % shape.departEvery
		if phase == shape.departEvery-shape.departLen && !cohortOut {
			for _, w := range cohort {
				if _, err := eng.RemoveWorker(w.ID); err != nil {
					return res, err
				}
				present[w.ID] = false
			}
			cohortOut = true
		} else if phase == 0 && cohortOut {
			for _, w := range cohort {
				if _, err := eng.AddWorker(w); err != nil {
					return res, err
				}
				present[w.ID] = true
			}
			cohortOut = false
		}

		if err := completeSome(shape.completions); err != nil {
			return res, err
		}
		for n := sched[step]; n > 0; n-- {
			t := tasks[next]
			next++
			t.Deadline = clock + (shape.leadMin+leads.Int63n(shape.leadMax-shape.leadMin+1))*shape.stepNs
			if _, err := eng.OfferTask(t); err != nil && !errors.Is(err, stream.ErrBufferFull) {
				return res, err
			}
		}
		if step%shape.tickEvery == shape.tickEvery-1 {
			tick()
		}
	}
	res.elapsed = time.Since(start)

	// Drain: no new arrivals; completions and ticks continue under the
	// advancing clock until every task is delivered or expired, so the
	// final ledger attributes every submitted task.
	for step := shape.steps; step < shape.steps+shape.drain; step++ {
		clock = int64(step) * shape.stepNs
		if err := completeSome(shape.completions); err != nil {
			return res, err
		}
		if step%shape.tickEvery == shape.tickEvery-1 {
			tick()
			st := eng.Stats()
			if st.Active == 0 && st.Buffered == 0 {
				break
			}
		}
	}
	// Anything still buffered is past rescue once the clock outruns the
	// longest lead.
	clock += shape.leadMax * shape.stepNs
	eng.ExpireOnce(clock)

	res.stats = eng.Stats()
	return res, nil
}

// medianNs returns the median of the samples in nanoseconds.
func medianNs(ds []time.Duration) int64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid].Nanoseconds()
	}
	return (sorted[mid-1].Nanoseconds() + sorted[mid].Nanoseconds()) / 2
}

// medianF returns the median of a float64 sample set.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// RenderPR10 prints the report as an aligned table.
func (r *PR10Report) RenderPR10(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%11s %7s %9s %10s %8s %8s %7s %11s\n",
		"mode", "shards", "submitted", "completed", "expired", "stolen", "miss", "per-event"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%11s %7d %9d %10d %8d %8d %6.2f%% %9dns\n",
			p.Mode, p.Shards, p.Submitted, p.Completed, p.Expired, p.Stolen,
			p.MissPct, p.PerEventNs); err != nil {
			return err
		}
	}
	verdict := "beats"
	if !r.PredictiveBeatsReactive {
		verdict = "DOES NOT beat"
	}
	_, err := fmt.Fprintf(w, "\npredictive %s reactive on deadline misses: %.2f%% vs %.2f%% (%.0f%% fewer; bursty arrivals, shard-0 cohort churn, conservation checked per run)\n",
		verdict, r.PredictiveMissPct, r.ReactiveMissPct, r.MissReductionPct)
	return err
}

// WritePR10JSON writes the BENCH_PR10.json payload.
func (r *PR10Report) WritePR10JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
