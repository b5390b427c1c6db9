package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/matching"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/workload"
)

// genericInstance builds an instance whose auxiliary LSAP optimum is
// generically unique: every worker shares keyword 0 with every task, so all
// relevances are strictly positive and no task ties several workers at
// profit zero. On such instances the dense and class-collapsed LSAP paths
// must select the same assignment bit for bit.
func genericInstance(t testing.TB, r *rand.Rand, numTasks, numWorkers, xmax, universe int) *core.Instance {
	t.Helper()
	tasks := make([]*core.Task, numTasks)
	for i := range tasks {
		kw := bitset.New(universe)
		kw.Add(0)
		for k := 1; k < universe; k++ {
			if r.Intn(3) == 0 {
				kw.Add(k)
			}
		}
		tasks[i] = &core.Task{ID: "t", Keywords: kw}
	}
	workers := make([]*core.Worker, numWorkers)
	for q := range workers {
		kw := bitset.New(universe)
		kw.Add(0)
		for k := 1; k < universe; k++ {
			if r.Intn(3) == 0 {
				kw.Add(k)
			}
		}
		alpha := r.Float64()
		workers[q] = &core.Worker{Alpha: alpha, Beta: 1 - alpha, Keywords: kw}
	}
	in, err := core.NewInstance(tasks, workers, xmax, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestClassedDenseObjectiveParity: on unique-optimum instances the default
// (class-collapsed) HTAAPP path and the WithDenseLSAP escape hatch produce
// bit-identical objectives under WithoutFlip, across instance seeds and
// shuffle seeds.
func TestClassedDenseObjectiveParity(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		r := rand.New(rand.NewSource(seed))
		in := genericInstance(t, r, 120, 5, 12, 40)
		for _, rs := range []int64{1, 99} {
			dense, err := HTAAPP(in, WithoutFlip(), WithDenseLSAP(), WithRand(rand.New(rand.NewSource(rs))))
			if err != nil {
				t.Fatal(err)
			}
			classed, err := HTAAPP(in, WithoutFlip(), WithRand(rand.New(rand.NewSource(rs))))
			if err != nil {
				t.Fatal(err)
			}
			if dense.Objective != classed.Objective {
				t.Errorf("seed=%d rs=%d: dense %.17g != classed %.17g", seed, rs, dense.Objective, classed.Objective)
			}
			if err := classed.Assignment.Validate(in); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestClassedDenseLSAPValueParity: on arbitrary instances (including
// degenerate ones, where tie-breaking may legitimately pick different
// equally-optimal assignments) the auxiliary LSAP optimum found by the
// class-collapsed solver equals the dense Hungarian's within 1e-9. The
// solvers see the real auxCosts matrix via the HTAWith hook.
func TestClassedDenseLSAPValueParity(t *testing.T) {
	shapes := []struct{ numTasks, numWorkers, xmax, universe int }{
		{16, 2, 4, 12},
		{60, 4, 10, 20},
		{150, 6, 12, 30},
		{200, 3, 40, 16},
	}
	for _, s := range shapes {
		r := rand.New(rand.NewSource(int64(s.numTasks)))
		in := randInstance(t, r, s.numTasks, s.numWorkers, s.xmax, s.universe)
		var denseVal, classedVal float64
		_, err := HTAWith(in, "dense-probe", func(c lsap.Costs) lsap.Solution {
			sol := lsap.Hungarian(c)
			denseVal = sol.Value
			return sol
		}, WithoutFlip(), WithRand(rand.New(rand.NewSource(7))))
		if err != nil {
			t.Fatal(err)
		}
		_, err = HTAWith(in, "classed-probe", func(c lsap.Costs) lsap.Solution {
			sol := lsap.Auto(c)
			classedVal = sol.Value
			return sol
		}, WithoutFlip(), WithRand(rand.New(rand.NewSource(7))))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(denseVal-classedVal) > 1e-9 {
			t.Errorf("%+v: dense LSAP value %.12f, classed %.12f", s, denseVal, classedVal)
		}
	}
}

// TestWorkspaceOptionParity: threading a reusable workspace through
// repeated solves changes nothing about the results.
func TestWorkspaceOptionParity(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in := randInstance(t, r, 60, 4, 10, 20)
	ws := lsap.NewWorkspace()
	for trial := 0; trial < 5; trial++ {
		base, err := HTAAPP(in, WithoutFlip(), WithRand(rand.New(rand.NewSource(int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		reused, err := HTAAPP(in, WithoutFlip(), WithWorkspace(ws), WithRand(rand.New(rand.NewSource(int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		if base.Objective != reused.Objective {
			t.Fatalf("trial %d: workspace run objective %.17g != %.17g", trial, reused.Objective, base.Objective)
		}
		gBase, err := HTAGRE(in, WithoutFlip(), WithRand(rand.New(rand.NewSource(int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		gReused, err := HTAGRE(in, WithoutFlip(), WithWorkspace(ws), WithRand(rand.New(rand.NewSource(int64(trial)))))
		if err != nil {
			t.Fatal(err)
		}
		if gBase.Objective != gReused.Objective {
			t.Fatalf("trial %d: GRE workspace objective %.17g != %.17g", trial, gReused.Objective, gBase.Objective)
		}
	}
}

// TestClassMatcherParity: the default matcher, which matches over task
// classes when equal keyword sets at least halve the task count, returns
// the same M_B as the all-pairs sort, so HTA-APP and HTA-GRE return the
// same assignment and objective with either. Covered: task groups with and
// without singletons, on both sides of the class-count dispatch, no
// shuffle, and an oracle instance, which has no classes.
func TestClassMatcherParity(t *testing.T) {
	grouped := func(seed int64, groups, perGroup, singles int) *core.Instance {
		gen, err := workload.NewGenerator(workload.Config{Universe: 60, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tasks := append(gen.Tasks(groups, perGroup), gen.Tasks(singles, 1)...)
		in, err := core.NewInstance(tasks, gen.Workers(6), 8, metric.Jaccard{})
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	r := rand.New(rand.NewSource(5))
	rel := make([][]float64, 3)
	for q := range rel {
		rel[q] = make([]float64, 40)
		for k := range rel[q] {
			rel[q][k] = r.Float64()
		}
	}
	oracle, err := core.NewCustomInstance(40, []*core.Worker{
		{ID: "a", Alpha: 0.7, Beta: 0.3}, {ID: "b", Alpha: 0.2, Beta: 0.8}, {ID: "c", Alpha: 0.5, Beta: 0.5},
	}, 6, rel, func(k, l int) float64 {
		if k == l {
			return 0
		}
		return float64((k*7+l*7)%5) / 5
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		in   *core.Instance
		opts []Option
	}{
		{"groups20x10", grouped(1, 20, 10, 0), nil},
		{"groups8x25", grouped(2, 8, 25, 0), nil},
		{"groups30x2", grouped(3, 30, 2, 0), nil},
		{"groups20x4+singles", grouped(4, 20, 4, 10), nil},
		{"groups10x6+singles", grouped(4, 10, 6, 50), nil}, // C > |T|/2: all pairs
		{"no-shuffle", grouped(6, 12, 15, 3), []Option{WithoutTaskShuffle()}},
		{"oracle", oracle, nil},
	}
	algs := map[string]func(*core.Instance, ...Option) (*Result, error){"app": HTAAPP, "gre": HTAGRE}
	for _, c := range cases {
		for name, solve := range algs {
			for _, seed := range []int64{1, 7} {
				rng := func() Option { return WithRand(rand.New(rand.NewSource(seed))) }
				def, err := solve(c.in, append([]Option{rng()}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				flat, err := solve(c.in, append([]Option{rng(), WithMatcher(matching.GreedySort)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				if def.Objective != flat.Objective || !reflect.DeepEqual(def.Assignment, flat.Assignment) {
					t.Errorf("%s %s seed=%d: default matcher %.17g %v, GreedySort %.17g %v",
						c.name, name, seed, def.Objective, def.Assignment.Sets, flat.Objective, flat.Assignment.Sets)
				}
			}
		}
	}
}
