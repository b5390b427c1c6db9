package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/solver"
)

const universe = 32

func genTasks(r *rand.Rand, n int) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		kw := bitset.New(universe)
		for k := 0; k < universe; k++ {
			if r.Intn(5) == 0 {
				kw.Add(k)
			}
		}
		if kw.Count() == 0 {
			kw.Add(r.Intn(universe))
		}
		tasks[i] = &core.Task{ID: fmt.Sprintf("t%d", i), Keywords: kw}
	}
	return tasks
}

func genWorker(id string, kw ...int) *core.Worker {
	return &core.Worker{ID: id, Keywords: bitset.FromIndices(universe, kw...)}
}

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	cases := []struct {
		cfg Config
		sub string
	}{
		{Config{Xmax: 0}, "Xmax"},
		{Config{Xmax: 3, ExtraRandomTasks: -1}, "ExtraRandomTasks"},
		{Config{Xmax: 3, InitialAlpha: 1.5}, "InitialAlpha"},
	}
	for _, c := range cases {
		if _, err := NewEngine(c.cfg); err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("cfg %+v: err = %v, want substring %q", c.cfg, err, c.sub)
		}
	}
}

func TestAddTasksAndWorkersValidation(t *testing.T) {
	e := newEngine(t, Config{Xmax: 2})
	if err := e.AddTasks(&core.Task{ID: "", Keywords: bitset.New(4)}); err == nil {
		t.Error("empty task ID accepted")
	}
	if err := e.AddTasks(&core.Task{ID: "a", Keywords: bitset.New(4)}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddTasks(&core.Task{ID: "a", Keywords: bitset.New(4)}); err == nil {
		t.Error("duplicate task ID accepted")
	}
	if _, err := e.AddWorker(&core.Worker{ID: ""}); err == nil {
		t.Error("worker without keywords/ID accepted")
	}
	if _, err := e.AddWorker(genWorker("w1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err == nil {
		t.Error("duplicate worker accepted")
	}
	if _, err := e.Worker("nope"); err == nil {
		t.Error("unknown worker lookup succeeded")
	}
}

func TestColdStartAssignsRandomXmax(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e := newEngine(t, Config{Xmax: 4, Rand: r})
	if err := e.AddTasks(genTasks(r, 20)...); err != nil {
		t.Fatal(err)
	}
	ws, err := e.AddWorker(genWorker("w1", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(sets["w1"]) != 4 {
		t.Fatalf("cold start assigned %d tasks, want Xmax=4", len(sets["w1"]))
	}
	if e.PoolSize() != 16 {
		t.Fatalf("pool = %d, want 16 (assigned tasks dropped)", e.PoolSize())
	}
	if ws.Alpha() != 0.5 || ws.Beta() != 0.5 {
		t.Fatalf("prior weights = (%g,%g), want (0.5,0.5)", ws.Alpha(), ws.Beta())
	}
}

func TestExtraRandomTasks(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	e := newEngine(t, Config{Xmax: 3, ExtraRandomTasks: 2, Rand: r})
	if err := e.AddTasks(genTasks(r, 30)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err != nil {
		t.Fatal(err)
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(sets["w1"]) != 5 {
		t.Fatalf("display set = %d tasks, want Xmax+extra = 5", len(sets["w1"]))
	}
	if e.PoolSize() != 25 {
		t.Fatalf("pool = %d, want 25", e.PoolSize())
	}
}

func TestTasksNeverReassigned(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	e := newEngine(t, Config{Xmax: 3, Rand: r})
	if err := e.AddTasks(genTasks(r, 30)...); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if _, err := e.AddWorker(genWorker(id, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	for iter := 0; iter < 4; iter++ {
		sets, err := e.NextIteration()
		if err != nil {
			t.Fatal(err)
		}
		for wid, set := range sets {
			for _, task := range set {
				seen[task.ID]++
				if seen[task.ID] > 1 {
					t.Fatalf("iteration %d: task %s reassigned (worker %s)", iter, task.ID, wid)
				}
			}
		}
	}
}

func TestCompleteValidation(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	e := newEngine(t, Config{Xmax: 3, Rand: r})
	if err := e.AddTasks(genTasks(r, 10)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Complete("ghost", "t0"); err == nil {
		t.Error("unknown worker accepted")
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	assigned := sets["w1"][0].ID
	if err := e.Complete("w1", "not-assigned"); err == nil {
		t.Error("unassigned task accepted")
	}
	if err := e.Complete("w1", assigned); err != nil {
		t.Fatal(err)
	}
	if err := e.Complete("w1", assigned); err == nil {
		t.Error("double completion accepted")
	}
	ws, _ := e.Worker("w1")
	if ws.TotalCompleted != 1 {
		t.Fatalf("TotalCompleted = %d", ws.TotalCompleted)
	}
}

// TestWeightsConvergeToDiversitySeeker: a worker who always picks the most
// diverse remaining task should see its α estimate rise above β.
func TestWeightsConvergeToDiversitySeeker(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	e := newEngine(t, Config{Xmax: 6, Rand: r})
	if err := e.AddTasks(genTasks(r, 120)...); err != nil {
		t.Fatal(err)
	}
	ws, err := e.AddWorker(genWorker("w1", 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	dist := metric.Jaccard{}
	for iter := 0; iter < 6; iter++ {
		sets, err := e.NextIteration()
		if err != nil {
			t.Fatal(err)
		}
		set := sets["w1"]
		// Complete all tasks, always choosing the max-marginal-diversity one.
		for len(ws.Completed) < len(set) {
			var best *core.Task
			bestGain := -1.0
			for _, u := range set {
				if containsTask(ws.Completed, u.ID) {
					continue
				}
				var g float64
				for _, c := range ws.Completed {
					g += dist.Distance(u.Keywords, c.Keywords)
				}
				if g > bestGain {
					bestGain, best = g, u
				}
			}
			if err := e.Complete("w1", best.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ws.Alpha() <= ws.Beta() {
		t.Fatalf("diversity-seeker estimates α=%g β=%g, want α > β", ws.Alpha(), ws.Beta())
	}
	if ws.Observations() == 0 {
		t.Fatal("no observations collected")
	}
}

// TestWeightsConvergeToRelevanceSeeker: a worker who always picks the most
// relevant remaining task should see β rise above α.
func TestWeightsConvergeToRelevanceSeeker(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	e := newEngine(t, Config{Xmax: 6, Rand: r})
	if err := e.AddTasks(genTasks(r, 120)...); err != nil {
		t.Fatal(err)
	}
	ws, err := e.AddWorker(genWorker("w1", 1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	dist := metric.Jaccard{}
	for iter := 0; iter < 6; iter++ {
		sets, err := e.NextIteration()
		if err != nil {
			t.Fatal(err)
		}
		set := sets["w1"]
		for len(ws.Completed) < len(set) {
			var best *core.Task
			bestRel := -1.0
			for _, u := range set {
				if containsTask(ws.Completed, u.ID) {
					continue
				}
				if rel := metric.Relevance(dist, u.Keywords, ws.Worker.Keywords); rel > bestRel {
					bestRel, best = rel, u
				}
			}
			if err := e.Complete("w1", best.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ws.Beta() <= ws.Alpha() {
		t.Fatalf("relevance-seeker estimates α=%g β=%g, want β > α", ws.Alpha(), ws.Beta())
	}
}

func TestWeightsStayNormalized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := newEngine(t, Config{Xmax: 5, Rand: r})
	if err := e.AddTasks(genTasks(r, 60)...); err != nil {
		t.Fatal(err)
	}
	ws, err := e.AddWorker(genWorker("w1", 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 4; iter++ {
		sets, err := e.NextIteration()
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range sets["w1"] {
			if err := e.Complete("w1", task.ID); err != nil {
				t.Fatal(err)
			}
			a, b := ws.Alpha(), ws.Beta()
			if a < 0 || b < 0 || math.Abs(a+b-1) > 1e-9 {
				t.Fatalf("weights (%g,%g) not normalized", a, b)
			}
		}
	}
}

func TestUnavailableWorkerSkipped(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	e := newEngine(t, Config{Xmax: 3, Rand: r})
	if err := e.AddTasks(genTasks(r, 20)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w2", 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.SetAvailable("w2", false); err != nil {
		t.Fatal(err)
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sets["w2"]; ok {
		t.Fatal("unavailable worker received tasks")
	}
	if len(sets["w1"]) == 0 {
		t.Fatal("available worker received nothing")
	}
	if err := e.SetAvailable("ghost", false); err == nil {
		t.Error("SetAvailable on unknown worker succeeded")
	}
}

func TestPoolExhaustion(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	e := newEngine(t, Config{Xmax: 5, Rand: r})
	if err := e.AddTasks(genTasks(r, 7)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NextIteration(); err != nil {
		t.Fatal(err)
	}
	// Second iteration: only 2 tasks left.
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(sets["w1"]) != 2 {
		t.Fatalf("got %d tasks, want the 2 remaining", len(sets["w1"]))
	}
	// Third iteration: nothing left; must not error.
	sets, err = e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(sets["w1"]) != 0 {
		t.Fatalf("got %d tasks from an empty pool", len(sets["w1"]))
	}
	if e.Iteration() != 3 {
		t.Fatalf("Iteration = %d, want 3", e.Iteration())
	}
}

func TestCustomSolverIsUsed(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	called := 0
	custom := func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
		called++
		return solver.HTAGRE(in, opts...)
	}
	e := newEngine(t, Config{Xmax: 3, Solve: custom, Rand: r})
	if err := e.AddTasks(genTasks(r, 30)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NextIteration(); err != nil { // cold start, no solve
		t.Fatal(err)
	}
	if _, err := e.NextIteration(); err != nil { // warm, solve
		t.Fatal(err)
	}
	if called != 1 {
		t.Fatalf("custom solver called %d times, want 1", called)
	}
}

// TestFirstCompletionYieldsNoDiversityObservation: marginal diversity of
// the first task is 0/0 and must be skipped, while relevance (if any
// remaining task has positive relevance) may be observed.
func TestFirstCompletionGainAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := newEngine(t, Config{Xmax: 4, Rand: r})
	if err := e.AddTasks(genTasks(r, 12)...); err != nil {
		t.Fatal(err)
	}
	ws, err := e.AddWorker(genWorker("w1", 0, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Complete("w1", sets["w1"][0].ID); err != nil {
		t.Fatal(err)
	}
	if len(ws.divGains) != 0 {
		t.Fatalf("first completion produced %d diversity observations, want 0", len(ws.divGains))
	}
}

// TestIterationSecondsObserved: every iteration records one latency
// observation, and none while metrics are off.
func TestIterationSecondsObserved(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	e := newEngine(t, Config{Xmax: 2, Metrics: m})
	if err := e.AddTasks(genTasks(rand.New(rand.NewSource(5)), 20)...); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddWorker(genWorker("w1", 0, 1)); err != nil {
		t.Fatal(err)
	}
	iterate := func() {
		t.Helper()
		if _, err := e.NextIteration(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		iterate()
	}
	if n := m.IterationSeconds.Snapshot().Count; n != 3 {
		t.Fatalf("%d observations after 3 iterations", n)
	}
	obs.SetEnabled(false)
	defer obs.SetEnabled(true)
	iterate()
	if n := m.IterationSeconds.Snapshot().Count; n != 3 {
		t.Fatalf("%d observations with metrics off, want 3", n)
	}
}
