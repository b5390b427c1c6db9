package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/matching"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

// PR2SolverPoint is one before/after measurement of a full solver run for
// the PR 2 report. "Before" is the dense O(|T|³) Hungarian for HTA-APP and
// the greedy M_B over all task pairs (solver.WithMatcher(matching.GreedySort))
// for HTA-GRE; "after" is the shipped default (class-collapsed LSAP, M_B
// over class pairs). Times are averaged ns/op over the sweep's runs; both
// sides solve identical instances with identical seeds under WithoutFlip.
type PR2SolverPoint struct {
	Algorithm string `json:"algorithm"`
	NumTasks  int    `json:"tasks"`
	Workers   int    `json:"workers"`

	BeforeNs     int64 `json:"before_ns"`
	AfterNs      int64 `json:"after_ns"`
	BeforeLSAPNs int64 `json:"before_lsap_ns"`
	AfterLSAPNs  int64 `json:"after_lsap_ns"`

	LSAPSpeedup float64 `json:"lsap_speedup"`

	// ObjectiveBefore/After are the flipless objectives of the two paths on
	// the last measured run. Both paths solve the auxiliary LSAP exactly;
	// when the optimum is unique they are bit-identical, and on degenerate
	// instances (zero-relevance tasks tying several workers at profit 0)
	// they may pick different equally-optimal assignments — LSAPValueDelta
	// stays ≤ 1e-9 either way.
	ObjectiveBefore    float64 `json:"objective_before"`
	ObjectiveAfter     float64 `json:"objective_after"`
	ObjectiveIdentical bool    `json:"objective_identical"`
	LSAPValueDelta     float64 `json:"lsap_value_delta"`
}

// PR2MicroPoint is one LSAP-only microbenchmark: the dense Hungarian, the
// class-collapsed Hungarian and the greedy solver on the same synthetic
// |T|-row profit matrix with |W| worker cliques (plus the isolated class).
type PR2MicroPoint struct {
	N          int   `json:"n"`
	Workers    int   `json:"workers"`
	DenseNs    int64 `json:"dense_ns"`
	ClassedNs  int64 `json:"classed_ns"`
	GreedyNs   int64 `json:"greedy_ns"`
	ValueEqual bool  `json:"value_equal"` // |dense − classed| ≤ 1e-9
}

// PR2Report is the payload of BENCH_PR2.json.
type PR2Report struct {
	Note    string           `json:"note"`
	Solvers []PR2SolverPoint `json:"solvers"`
	Micro   []PR2MicroPoint  `json:"lsap_micro"`
}

// SweepPR2 measures the class-collapsed-LSAP change end to end: app/gre at
// tasks ∈ {400, 700, 1000} (scaled by nothing — these are the BENCH_PR1
// comparison points) plus LSAP-only microbenchmarks across |W| ∈ {10, 50,
// 200} at |T| = 1000.
func SweepPR2(o Options) (*PR2Report, error) {
	o.applyDefaults()
	report := &PR2Report{
		Note: "before = dense Hungarian (app) / all-pairs M_B via WithMatcher(GreedySort) (gre); after = class-collapsed LSAP + class-pair M_B. Identical instances and seeds, WithoutFlip.",
	}

	for _, numTasks := range []int{400, 700, 1000} {
		const numGroups, numWorkers = 20, 20
		app, err := measurePR2Solver(o, "hta-app", numTasks, numGroups, numWorkers, solver.WithDenseLSAP())
		if err != nil {
			return nil, fmt.Errorf("experiments: pr2 app |T|=%d: %w", numTasks, err)
		}
		report.Solvers = append(report.Solvers, app)

		gre, err := measurePR2Solver(o, "hta-gre", numTasks, numGroups, numWorkers, solver.WithMatcher(matching.GreedySort))
		if err != nil {
			return nil, fmt.Errorf("experiments: pr2 gre |T|=%d: %w", numTasks, err)
		}
		report.Solvers = append(report.Solvers, gre)
	}

	for _, numWorkers := range []int{10, 50, 200} {
		point, err := measurePR2Micro(o, 1000, numWorkers)
		if err != nil {
			return nil, fmt.Errorf("experiments: pr2 micro |W|=%d: %w", numWorkers, err)
		}
		report.Micro = append(report.Micro, point)
	}
	return report, nil
}

// measurePR2Solver times one algorithm before (the shipped default plus
// beforeOpt) and after (the shipped default) on identical instances.
func measurePR2Solver(o Options, algo string, numTasks, numGroups, numWorkers int, beforeOpt solver.Option) (PR2SolverPoint, error) {
	point := PR2SolverPoint{Algorithm: algo, NumTasks: numTasks, Workers: numWorkers}
	solve := solver.HTAGRE
	if algo == "hta-app" {
		solve = solver.HTAAPP
	}
	perGroup := numTasks / numGroups
	if perGroup < 1 {
		perGroup = 1
	}
	var beforeTotal, afterTotal, beforeLSAP, afterLSAP time.Duration
	for run := 0; run < o.Runs; run++ {
		gen, err := workload.NewGenerator(workload.Config{Seed: o.Seed + int64(run)})
		if err != nil {
			return point, err
		}
		in, err := core.NewInstance(gen.Tasks(numGroups, perGroup), gen.Workers(numWorkers), o.Xmax, metric.Jaccard{})
		if err != nil {
			return point, err
		}
		seed := o.Seed + int64(run)

		measureOne := func(extra ...solver.Option) (*solver.Result, error) {
			opts := append([]solver.Option{
				solver.WithoutFlip(),
				solver.WithRand(rand.New(rand.NewSource(seed))),
			}, extra...)
			return solve(in, opts...)
		}

		before, err := measureOne(beforeOpt)
		if err != nil {
			return point, err
		}
		after, err := measureOne()
		if err != nil {
			return point, err
		}
		beforeTotal += before.TotalTime
		afterTotal += after.TotalTime
		beforeLSAP += before.LSAPTime
		afterLSAP += after.LSAPTime
		point.ObjectiveBefore = before.Objective
		point.ObjectiveAfter = after.Objective
		point.ObjectiveIdentical = before.Objective == after.Objective
	}
	n := int64(o.Runs)
	point.BeforeNs = beforeTotal.Nanoseconds() / n
	point.AfterNs = afterTotal.Nanoseconds() / n
	point.BeforeLSAPNs = beforeLSAP.Nanoseconds() / n
	point.AfterLSAPNs = afterLSAP.Nanoseconds() / n
	if point.AfterLSAPNs > 0 {
		point.LSAPSpeedup = float64(point.BeforeLSAPNs) / float64(point.AfterLSAPNs)
	}
	if algo == "hta-app" {
		delta, err := lsapValueDelta(o, numTasks, numGroups, numWorkers)
		if err != nil {
			return point, err
		}
		point.LSAPValueDelta = delta
	}
	return point, nil
}

// lsapValueDelta reruns the APP pipeline once per path, capturing the
// auxiliary LSAP optimum each finds; exactness requires the difference to
// vanish.
func lsapValueDelta(o Options, numTasks, numGroups, numWorkers int) (float64, error) {
	gen, err := workload.NewGenerator(workload.Config{Seed: o.Seed})
	if err != nil {
		return 0, err
	}
	perGroup := numTasks / numGroups
	if perGroup < 1 {
		perGroup = 1
	}
	tasks := gen.Tasks(numGroups, perGroup)
	workers := gen.Workers(numWorkers)
	var denseVal, classedVal float64
	for _, probe := range []struct {
		val    *float64
		assign func(c lsap.Costs) lsap.Solution
	}{
		{&denseVal, lsap.Hungarian},
		{&classedVal, lsap.Auto},
	} {
		in, err := core.NewInstance(tasks, workers, o.Xmax, metric.Jaccard{})
		if err != nil {
			return 0, err
		}
		val := probe.val
		assign := probe.assign
		_, err = solver.HTAWith(in, "pr2-probe", func(c lsap.Costs) lsap.Solution {
			sol := assign(c)
			*val = sol.Value
			return sol
		}, solver.WithoutFlip(), solver.WithRand(rand.New(rand.NewSource(o.Seed))))
		if err != nil {
			return 0, err
		}
	}
	return math.Abs(denseVal - classedVal), nil
}

// measurePR2Micro times the three LSAP solvers on one synthetic clique-
// structured profit matrix: |W| classes of n/|W| columns each (isolated
// class empty when |W| divides n).
func measurePR2Micro(o Options, n, numWorkers int) (PR2MicroPoint, error) {
	point := PR2MicroPoint{N: n, Workers: numWorkers}
	xmax := n / numWorkers
	if xmax < 1 {
		xmax = 1
	}
	r := rand.New(rand.NewSource(o.Seed))
	nc := numWorkers + 1
	classOf := make([]int, n)
	for j := range classOf {
		if q := j / xmax; q < numWorkers {
			classOf[j] = q
		} else {
			classOf[j] = numWorkers
		}
	}
	profits := make([][]float64, n)
	for i := range profits {
		profits[i] = make([]float64, nc)
		for c := 0; c < numWorkers; c++ {
			profits[i][c] = r.Float64() * 5
		}
	}
	costs := lsap.NewBlock(classOf, profits)
	ws := lsap.NewWorkspace()
	caps := make([]int, nc)
	for _, cl := range classOf {
		caps[cl]++
	}

	var denseVal, classedVal float64
	point.DenseNs = minDuration(o.Runs, func() error {
		denseVal = lsap.HungarianWS(costs, ws).Value
		return nil
	})
	point.ClassedNs = minDuration(o.Runs, func() error {
		sol, err := lsap.HungarianClassedWS(costs, caps, ws)
		if err != nil {
			return err
		}
		classedVal = sol.Value
		return nil
	})
	point.GreedyNs = minDuration(o.Runs, func() error {
		lsap.GreedyWS(costs, ws)
		return nil
	})
	point.ValueEqual = math.Abs(denseVal-classedVal) <= 1e-9
	if point.DenseNs < 0 || point.ClassedNs < 0 {
		return point, fmt.Errorf("experiments: pr2 micro solver error at n=%d |W|=%d", n, numWorkers)
	}
	return point, nil
}

// minDuration returns the fastest of runs timings of fn in nanoseconds, or
// -1 if fn errors.
func minDuration(runs int, fn func() error) int64 {
	best := int64(-1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return -1
		}
		ns := time.Since(start).Nanoseconds()
		if best < 0 || ns < best {
			best = ns
		}
	}
	return best
}

// WritePR2JSON writes the report as indented JSON (the BENCH_PR2.json
// payload).
func (r *PR2Report) WritePR2JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RenderPR2 prints the report as aligned text tables.
func (r *PR2Report) RenderPR2(w io.Writer) error {
	fmt.Fprintln(w, "solver before/after (ns/op, flipless, identical instances):")
	fmt.Fprintf(w, "  %-9s %6s %4s %14s %14s %14s %14s %8s %s\n",
		"algorithm", "|T|", "|W|", "before", "after", "lsap-before", "lsap-after", "speedup", "objective")
	for _, p := range r.Solvers {
		obj := "identical"
		if !p.ObjectiveIdentical {
			obj = fmt.Sprintf("%.6f vs %.6f (tie-degenerate, lsap Δ=%.2g)",
				p.ObjectiveBefore, p.ObjectiveAfter, p.LSAPValueDelta)
		}
		fmt.Fprintf(w, "  %-9s %6d %4d %14d %14d %14d %14d %7.1fx %s\n",
			p.Algorithm, p.NumTasks, p.Workers, p.BeforeNs, p.AfterNs,
			p.BeforeLSAPNs, p.AfterLSAPNs, p.LSAPSpeedup, obj)
	}
	fmt.Fprintln(w, "lsap micro (ns/op, n=1000):")
	fmt.Fprintf(w, "  %4s %14s %14s %14s %s\n", "|W|", "dense", "classed", "greedy", "value")
	for _, p := range r.Micro {
		val := "equal"
		if !p.ValueEqual {
			val = "DIFFERS"
		}
		fmt.Fprintf(w, "  %4d %14d %14d %14d %s\n", p.Workers, p.DenseNs, p.ClassedNs, p.GreedyNs, val)
	}
	return nil
}
