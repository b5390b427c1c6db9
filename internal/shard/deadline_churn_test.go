package shard

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// The predictive-scheduling claim, availability-window scheduling in the
// style of DATA-WA: on a deadline workload, forecast-driven stealing
// rescues the deadlines that watermark-only stealing lets lapse.
//
//	go test ./internal/shard -run TestDeadlineChurnPredictiveBeatsReactive -v
//
// Bursty task arrivals (workload.BurstSchedule) feed a sharded engine
// whose shard-0 worker cohort repeatedly departs and returns, requeueing
// its active tasks into a shard that has lost its service capacity.
// Reactive mode steals only after the backlog breaches the watermark —
// which the stranded requeues never do — so their deadlines lapse, where
// predictive mode's forecaster (rate EWMAs + burstiness guard) projects
// the breach and moves them to shards that still have workers.
// BENCH_PR10.json at the repository root holds the seed-5 figures and
// the reference per-event timings the test bounds.

// deadlineShape fixes the deadline workload both modes replay. Time is a
// logical clock (one step = stepNs) injected through stream.Config.Now,
// so runs are deterministic and deadline arithmetic is exact.
type deadlineShape struct {
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

var deadlineChurn = deadlineShape{
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

type deadlineResult struct {
	elapsed time.Duration // the timed phase
	events  int           // offers plus attempted completions in the timed phase
	stats   Stats
	stolen  int64
}

// runDeadlineChurn executes one seeded run of the deadline workload in
// the given mode. The logical clock ticks one stepNs per loop step; every
// tickEvery steps the run folds the forecast, rebalances, and sweeps
// expiry — the deterministic stand-in for the engine's periodic loops.
func runDeadlineChurn(t *testing.T, seed int64, shape deadlineShape, predictive bool) deadlineResult {
	t.Helper()
	var res deadlineResult
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := workload.BurstSchedule(shape.steps, shape.base, shape.burst, shape.period, shape.burstLen)
	if err != nil {
		t.Fatal(err)
	}
	arrivals := 0
	for _, n := range sched {
		arrivals += n
	}
	res.events = arrivals + shape.steps*shape.completions
	tasks := gen.Tasks(arrivals/8+1, 8)[:arrivals]
	leads := rand.New(rand.NewSource(seed + 1))

	var clock int64 // logical ns; only this goroutine advances it
	eng, err := New(Config{
		Shards:         shape.shards,
		StealInterval:  -1, // ticked explicitly below
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
			Now:            func() int64 { return clock },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	pool := gen.Workers(shape.workers)
	var cohort []*core.Worker
	present := make(map[string]bool, len(pool))
	for _, w := range pool {
		if eng.ShardOf(w.ID) == 0 {
			cohort = append(cohort, w)
		}
		if _, err := eng.AddWorker(w); err != nil {
			t.Fatal(err)
		}
		present[w.ID] = true
	}
	if len(cohort) == 0 {
		t.Fatal("no workers hashed to shard 0")
	}
	cohortOut := false

	// completeSome attempts n completions round-robin over present
	// workers, querying the engine for live assignments so stolen-and-
	// assigned tasks are completed too (a private ledger would leak them
	// into permanently occupied slots).
	rr := 0
	completeSome := func(n int) {
		for tries := 0; n > 0 && tries < len(pool); tries++ {
			w := pool[rr%len(pool)]
			rr++
			if !present[w.ID] {
				continue
			}
			ids, err := eng.Active(w.ID)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) == 0 {
				continue
			}
			if _, err := eng.Complete(w.ID, ids[0]); err != nil {
				t.Fatal(err)
			}
			n--
		}
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
					t.Fatal(err)
				}
				present[w.ID] = false
			}
			cohortOut = true
		} else if phase == 0 && cohortOut {
			for _, w := range cohort {
				if _, err := eng.AddWorker(w); err != nil {
					t.Fatal(err)
				}
				present[w.ID] = true
			}
			cohortOut = false
		}

		completeSome(shape.completions)
		for n := sched[step]; n > 0; n-- {
			task := tasks[next]
			next++
			task.Deadline = clock + (shape.leadMin+leads.Int63n(shape.leadMax-shape.leadMin+1))*shape.stepNs
			if _, err := eng.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
				t.Fatal(err)
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
		completeSome(shape.completions)
		if step%shape.tickEvery == shape.tickEvery-1 {
			tick()
			if st := eng.Stats(); st.Active == 0 && st.Buffered == 0 {
				break
			}
		}
	}
	// Anything still buffered is past rescue once the clock outruns the
	// longest lead.
	clock += shape.leadMax * shape.stepNs
	eng.ExpireOnce(clock)

	res.stats = eng.Stats()
	return res
}

// TestDeadlineChurnPredictiveBeatsReactive asserts the claim exactly on
// seeds 1–5: every task is submitted and none dropped, the ledger
// conserves, reactive stealing moves nothing and lets deadlines lapse,
// and predictive stealing moves tasks and lets none lapse. Each mode's
// median per-event time over the five seeds is also bounded against its
// BENCH_PR10.json reference.
func TestDeadlineChurnPredictiveBeatsReactive(t *testing.T) {
	want := map[bool]struct{ expired, stolen []int64 }{
		false: {expired: []int64{23, 24, 12, 12, 5}, stolen: []int64{0, 0, 0, 0, 0}},
		true:  {expired: []int64{0, 0, 0, 0, 0}, stolen: []int64{41, 44, 23, 19, 8}},
	}
	var ref struct {
		Points []struct {
			Mode       string `json:"mode"`
			PerEventNs int64  `json:"per_event_ns"`
		} `json:"points"`
	}
	data, err := os.ReadFile("../../BENCH_PR10.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	refNs := map[string]int64{}
	for _, p := range ref.Points {
		refNs[p.Mode] = p.PerEventNs
	}

	for _, predictive := range []bool{false, true} {
		mode := "reactive"
		if predictive {
			mode = "predictive"
		}
		var perEvent []time.Duration
		for i, seed := range []int64{1, 2, 3, 4, 5} {
			res := runDeadlineChurn(t, seed, deadlineChurn, predictive)
			st := res.stats
			if st.Submitted != 5000 || st.Dropped != 0 || !st.Conserved() {
				t.Errorf("%s seed %d: ledger %+v, want 5000 submitted, 0 dropped, conserved", mode, seed, st)
			}
			if w := want[predictive]; st.Expired != w.expired[i] || res.stolen != w.stolen[i] {
				t.Errorf("%s seed %d: expired %d stolen %d, want expired %d stolen %d",
					mode, seed, st.Expired, res.stolen, w.expired[i], w.stolen[i])
			}
			perEvent = append(perEvent, res.elapsed/time.Duration(res.events))
		}
		sort.Slice(perEvent, func(i, j int) bool { return perEvent[i] < perEvent[j] })
		checkTiming(t, mode+" per event", perEvent[len(perEvent)/2], time.Duration(refNs[mode]))
	}
}

// timingBound fails a timed value past 11× its checked-in reference:
// loose enough for a loaded shared runner, tight enough to catch an
// order-of-magnitude collapse.
const timingBound = 11

func checkTiming(t *testing.T, name string, got, ref time.Duration) {
	t.Helper()
	if ref <= 0 {
		t.Fatalf("%s: reference time %v is not positive", name, ref)
	}
	ratio := float64(got) / float64(ref)
	t.Logf("%s: %v, %.2f× the reference %v", name, got, ratio, ref)
	if raceEnabled {
		return // the race detector's slowdown is not the code's
	}
	if ratio > timingBound {
		t.Errorf("%s: %v is %.1f× the reference %v (bound %d×)", name, got, ratio, ref, timingBound)
	}
}

// TestDeadlineChurnSmall drives one run per mode at a toy size: both
// modes must conserve and drain, the reactive baseline must strand at
// least one deadline on the capacity-starved shard, and the predictive
// side must steal.
func TestDeadlineChurnSmall(t *testing.T) {
	shape := deadlineChurn
	shape.steps = 400
	shape.drain = 800
	for _, predictive := range []bool{false, true} {
		res := runDeadlineChurn(t, 7, shape, predictive)
		if !res.stats.Conserved() {
			t.Fatalf("predictive=%v: conservation violated: %+v", predictive, res.stats)
		}
		if res.stats.Completed == 0 {
			t.Fatalf("predictive=%v: no completions", predictive)
		}
		if res.stats.Active != 0 || res.stats.Buffered != 0 {
			t.Fatalf("predictive=%v: drain left active=%d buffered=%d",
				predictive, res.stats.Active, res.stats.Buffered)
		}
		if predictive && res.stolen == 0 {
			t.Fatal("predictive mode never stole — the forecast trigger is dead")
		}
		if !predictive && res.stats.Expired == 0 {
			t.Fatal("reactive baseline expired nothing — the workload no longer strands deadlines")
		}
	}
}

// TestDeadlineChurnDeterministic pins the replay protocol: identical
// seeds must produce identical ledgers, or the reactive/predictive
// contrast measures noise instead of the rebalancing policy.
func TestDeadlineChurnDeterministic(t *testing.T) {
	shape := deadlineChurn
	shape.steps = 300
	shape.drain = 600
	a := runDeadlineChurn(t, 11, shape, false)
	b := runDeadlineChurn(t, 11, shape, false)
	if a.stats.Submitted != b.stats.Submitted || a.stats.Completed != b.stats.Completed ||
		a.stats.Expired != b.stats.Expired || a.stats.Dropped != b.stats.Dropped {
		t.Fatalf("same seed, different ledgers:\n%+v\n%+v", a.stats, b.stats)
	}
}
