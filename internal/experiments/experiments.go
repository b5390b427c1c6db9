// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V):
//
//	Figure 2a — response time vs |T| with the matching/LSAP phase split
//	Figure 2b — objective function value vs |T| for HTA-APP vs HTA-GRE
//	Figure 2c — response time vs |W|
//	Figure 3  — response time vs the number of task groups (task diversity)
//	Figure 5  — the online study: quality, throughput, retention
//
// The paper's offline experiments ran on a 2×Xeon/128 GB server at
// |T| up to 10,000; the Scale option shrinks every size proportionally so
// the same sweeps finish on a laptop (Scale=1 reproduces the paper's
// sizes). Absolute times differ from the paper's Java implementation; the
// shapes — HTA-GRE ≪ HTA-APP, HTA-APP's sensitivity to worker count and
// task diversity — are what the runners demonstrate. (Since the
// class-collapsed LSAP of PR 2, the exact assignment step no longer
// dominates HTA-APP the way the paper's cubic Hungarian did;
// BENCH_PR2.json records that before/after.)
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"
	"time"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/crowd"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

// Options tune an offline experiment run.
type Options struct {
	// Scale multiplies every size of the paper's setup (tasks, workers,
	// groups). 1.0 is the paper's scale; the default 0.1 keeps the full
	// sweep under a minute on commodity hardware.
	Scale float64
	// Runs is how many times each point is measured and averaged
	// (the paper reports the average of ten runs).
	Runs int
	// Seed drives workload generation and solver randomness.
	Seed int64
	// Xmax is the per-worker capacity (paper: 20 offline).
	Xmax int
	// SkipAPP drops the cubic HTA-APP runs (useful at large scales).
	SkipAPP bool
}

func (o *Options) applyDefaults() {
	if o.Scale == 0 {
		o.Scale = 0.1
	}
	if o.Runs == 0 {
		o.Runs = 3
	}
	if o.Xmax == 0 {
		o.Xmax = 20
	}
}

func (o Options) scaled(n int) int {
	s := int(float64(n) * o.Scale)
	if s < 1 {
		s = 1
	}
	return s
}

// Row is one measured point of an offline experiment.
type Row struct {
	// Sweep coordinates.
	NumTasks   int
	NumWorkers int
	NumGroups  int
	Algorithm  string
	// Measurements, averaged over Options.Runs.
	MatchingSeconds float64
	LSAPSeconds     float64
	TotalSeconds    float64
	Objective       float64
}

type solveFn func(in *core.Instance, opts ...solver.Option) (*solver.Result, error)

func algorithms(o Options) map[string]solveFn {
	algos := map[string]solveFn{"hta-gre": solver.HTAGRE}
	if !o.SkipAPP {
		algos["hta-app"] = solver.HTAAPP
	}
	return algos
}

// measure runs one algorithm Runs times on fresh instances and averages.
func measure(o Options, algo string, solve solveFn, numGroups, tasksPerGroup, numWorkers int) (Row, error) {
	row := Row{
		NumTasks:   numGroups * tasksPerGroup,
		NumWorkers: numWorkers,
		NumGroups:  numGroups,
		Algorithm:  algo,
	}
	for run := 0; run < o.Runs; run++ {
		gen, err := workload.NewGenerator(workload.Config{Seed: o.Seed + int64(run)})
		if err != nil {
			return row, err
		}
		tasks := gen.Tasks(numGroups, tasksPerGroup)
		workers := gen.Workers(numWorkers)
		in, err := core.NewInstance(tasks, workers, o.Xmax, metric.Jaccard{})
		if err != nil {
			return row, err
		}
		res, err := solve(in, solver.WithRand(rand.New(rand.NewSource(o.Seed+int64(run)))))
		if err != nil {
			return row, err
		}
		row.MatchingSeconds += res.MatchingTime.Seconds()
		row.LSAPSeconds += res.LSAPTime.Seconds()
		row.TotalSeconds += res.TotalTime.Seconds()
		row.Objective += res.Objective
	}
	n := float64(o.Runs)
	row.MatchingSeconds /= n
	row.LSAPSeconds /= n
	row.TotalSeconds /= n
	row.Objective /= n
	return row, nil
}

// SweepTasks runs the Figure 2a/2b sweep: |T| from 4,000 to 10,000 (scaled)
// with 200 task groups and |W| = 200, measuring both algorithms. Figure 2a
// reads the time columns, Figure 2b the objective column.
func SweepTasks(o Options) ([]Row, error) {
	o.applyDefaults()
	numWorkers := o.scaled(200)
	numGroups := o.scaled(200)
	var rows []Row
	for _, t := range []int{4000, 5000, 6000, 7000, 8000, 9000, 10000} {
		numTasks := o.scaled(t)
		perGroup := numTasks / numGroups
		if perGroup < 1 {
			perGroup = 1
		}
		for algo, solve := range algorithms(o) {
			row, err := measure(o, algo, solve, numGroups, perGroup, numWorkers)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig2 |T|=%d %s: %w", numTasks, algo, err)
			}
			rows = append(rows, row)
		}
	}
	sortRows(rows)
	return rows, nil
}

// SweepWorkers runs the Figure 2c sweep: |W| from 30 to 350 (scaled) at
// |T| = 8,000 (scaled), 200 task groups.
func SweepWorkers(o Options) ([]Row, error) {
	o.applyDefaults()
	numGroups := o.scaled(200)
	numTasks := o.scaled(8000)
	perGroup := numTasks / numGroups
	if perGroup < 1 {
		perGroup = 1
	}
	var rows []Row
	for _, w := range []int{30, 100, 150, 200, 250, 300, 350} {
		numWorkers := o.scaled(w)
		for algo, solve := range algorithms(o) {
			row, err := measure(o, algo, solve, numGroups, perGroup, numWorkers)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig2c |W|=%d %s: %w", numWorkers, algo, err)
			}
			rows = append(rows, row)
		}
	}
	sortRows(rows)
	return rows, nil
}

// SweepGroups runs the Figure 3 sweep: the number of task groups varies
// from 10 to 10,000 (scaled) at fixed |T| = 10,000 (scaled) and |W| = 300.
// More groups = more diverse tasks; the paper shows HTA-APP slowing down
// with diversity while HTA-GRE is oblivious to it.
func SweepGroups(o Options) ([]Row, error) {
	o.applyDefaults()
	numWorkers := o.scaled(300)
	numTasks := o.scaled(10000)
	var rows []Row
	for _, g := range []int{10, 100, 1000, 10000} {
		numGroups := o.scaled(g)
		if numGroups > numTasks {
			numGroups = numTasks
		}
		perGroup := numTasks / numGroups
		for algo, solve := range algorithms(o) {
			row, err := measure(o, algo, solve, numGroups, perGroup, numWorkers)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig3 groups=%d %s: %w", numGroups, algo, err)
			}
			rows = append(rows, row)
		}
	}
	sortRows(rows)
	return rows, nil
}

// SweepObjective compares the objective value (and time) of every solver
// in the repository on identical instances: the paper's two algorithms,
// the auction-based LSAP variant, the local-search-polished GRE, the
// marginal-gain greedy baseline and random assignment. It extends Figure
// 2b into a solver-quality ablation table.
func SweepObjective(o Options) ([]Row, error) {
	o.applyDefaults()
	numWorkers := o.scaled(200)
	numGroups := o.scaled(200)
	algos := []struct {
		name  string
		solve solveFn
	}{
		{"hta-app", solver.HTAAPP},
		{"hta-gre", solver.HTAGRE},
		{"hta-gre+ls", solver.HTAGREPlus},
		{"hta-auction", func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			return solver.HTAWith(in, "hta-auction", lsap.Auction, opts...)
		}},
		{"greedy-motiv", func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			return solver.GreedyMotiv(in), nil
		}},
		{"random", func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			return solver.Random(in, rand.New(rand.NewSource(o.Seed))), nil
		}},
	}
	if o.SkipAPP {
		algos = algos[1:]
	}
	var rows []Row
	for _, t := range []int{4000, 8000} {
		numTasks := o.scaled(t)
		perGroup := numTasks / numGroups
		if perGroup < 1 {
			perGroup = 1
		}
		for _, a := range algos {
			row, err := measure(o, a.name, a.solve, numGroups, perGroup, numWorkers)
			if err != nil {
				return nil, fmt.Errorf("experiments: objective sweep %s: %w", a.name, err)
			}
			rows = append(rows, row)
		}
	}
	sortRows(rows)
	return rows, nil
}

// LatencyRow is one point of the background-assignment check.
type LatencyRow struct {
	PoolSize   int
	NumWorkers int
	// IterationSeconds is the adaptive engine's HTA-GRE solve latency for
	// one assignment iteration over the pool.
	IterationSeconds float64
	// BatchSeconds is how long one worker takes to finish its batch at the
	// paper's pace (Xmax tasks × ~36 s/task) — the time budget an
	// in-background solver must fit into.
	BatchSeconds float64
}

// SweepIterationLatency quantifies the paper's deployment claim (Section
// V-A): "HTA-GRE has an acceptable response time and could therefore be
// executed in the background while workers complete tasks, to prepare the
// next round of assignments." For each pool size it measures one HTA-GRE
// iteration of the adaptive engine and compares it with the wall-clock a
// worker needs to complete a batch. The claim holds where
// IterationSeconds ≪ BatchSeconds.
func SweepIterationLatency(o Options) ([]LatencyRow, error) {
	o.applyDefaults()
	const secondsPerTask = 36 // the paper's observed pace (~22 min / 36.7 tasks)
	numWorkers := o.scaled(200)
	numGroups := o.scaled(200)
	var rows []LatencyRow
	for _, t := range []int{2000, 4000, 6000, 8000, 10000} {
		poolSize := o.scaled(t)
		perGroup := poolSize / numGroups
		if perGroup < 1 {
			perGroup = 1
		}
		var total float64
		for run := 0; run < o.Runs; run++ {
			gen, err := workload.NewGenerator(workload.Config{Seed: o.Seed + int64(run)})
			if err != nil {
				return nil, err
			}
			engine, err := adaptive.NewEngine(adaptive.Config{
				Xmax:                   o.Xmax,
				Rand:                   rand.New(rand.NewSource(o.Seed + int64(run))),
				DisableRandomColdStart: true,
			})
			if err != nil {
				return nil, err
			}
			if err := engine.AddTasks(gen.Tasks(numGroups, perGroup)...); err != nil {
				return nil, err
			}
			for _, w := range gen.Workers(numWorkers) {
				if _, err := engine.AddWorker(w); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			if _, err := engine.NextIteration(); err != nil {
				return nil, err
			}
			total += time.Since(start).Seconds()
		}
		rows = append(rows, LatencyRow{
			PoolSize:         poolSize,
			NumWorkers:       numWorkers,
			IterationSeconds: total / float64(o.Runs),
			BatchSeconds:     float64(o.Xmax) * secondsPerTask,
		})
	}
	return rows, nil
}

// RenderLatency prints the background-assignment table.
func RenderLatency(w io.Writer, rows []LatencyRow) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "pool\t|W|\titeration(s)\tworker-batch(s)\tfits-in-background")
	for _, r := range rows {
		fits := "yes"
		if r.IterationSeconds >= r.BatchSeconds {
			fits = "NO"
		}
		fmt.Fprintf(tw, "%d\t%d\t%.3f\t%.0f\t%s\n",
			r.PoolSize, r.NumWorkers, r.IterationSeconds, r.BatchSeconds, fits)
	}
	return tw.Flush()
}

func sortRows(rows []Row) {
	// Stable presentation order: by sweep coordinates then algorithm.
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rowLess(rows[j], rows[j-1]); j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

func rowLess(a, b Row) bool {
	if a.NumTasks != b.NumTasks {
		return a.NumTasks < b.NumTasks
	}
	if a.NumWorkers != b.NumWorkers {
		return a.NumWorkers < b.NumWorkers
	}
	if a.NumGroups != b.NumGroups {
		return a.NumGroups < b.NumGroups
	}
	return a.Algorithm < b.Algorithm
}

// RenderRows prints rows as an aligned text table with the requested
// figure's columns: "time" (2a/2c/3) or "objective" (2b).
func RenderRows(w io.Writer, rows []Row, kind string) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	switch kind {
	case "time":
		fmt.Fprintln(tw, "|T|\t|W|\tgroups\talgorithm\tmatching(s)\tlsap(s)\ttotal(s)")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%.4f\t%.4f\t%.4f\n",
				r.NumTasks, r.NumWorkers, r.NumGroups, r.Algorithm,
				r.MatchingSeconds, r.LSAPSeconds, r.TotalSeconds)
		}
	case "objective":
		fmt.Fprintln(tw, "|T|\t|W|\tgroups\talgorithm\tobjective")
		for _, r := range rows {
			fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%.1f\n",
				r.NumTasks, r.NumWorkers, r.NumGroups, r.Algorithm, r.Objective)
		}
	default:
		return fmt.Errorf("experiments: unknown table kind %q", kind)
	}
	return tw.Flush()
}

// Fig5Options tune the online-study reproduction.
type Fig5Options struct {
	// SessionsPerStrategy matches the paper's 20 work sessions.
	SessionsPerStrategy int
	// Seed drives the simulation.
	Seed int64
	// Params overrides the behavioural constants (zero value = defaults).
	Params *crowd.Params
	// Filtered runs the paper's full selection pipeline (qualification,
	// overtime and incompleteness filters, top-N by completions) instead
	// of taking every session as-is.
	Filtered bool
}

// Fig5Result carries everything Figures 5a–5c plot plus the significance
// tests the paper reports.
type Fig5Result struct {
	Study *crowd.StudyResult
	Grid  []float64
	// Filters is non-nil when the run used the filtered pipeline.
	Filters map[crowd.Strategy]crowd.FilterCounts
}

// Fig5 runs the online study simulation: generates the 22-task-kind corpus
// (the paper's CrowdFlower set had 22 kinds of micro-tasks), simulates
// SessionsPerStrategy sessions per strategy, and returns the curves.
func Fig5(o Fig5Options) (*Fig5Result, error) {
	if o.SessionsPerStrategy == 0 {
		o.SessionsPerStrategy = 20
	}
	params := crowd.DefaultParams()
	if o.Params != nil {
		params = *o.Params
	}
	if o.Seed != 0 {
		params.Seed = o.Seed
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: params.Seed})
	if err != nil {
		return nil, err
	}
	corpus := gen.Tasks(22, 40)
	sim, err := crowd.NewSimulator(params, corpus)
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{}
	if o.Filtered {
		cfg := crowd.DefaultStudyConfig()
		cfg.SessionsTarget = o.SessionsPerStrategy
		filtered, err := sim.RunFilteredStudy(crowd.Strategies, cfg)
		if err != nil {
			return nil, err
		}
		res.Study = filtered.StudyResult
		res.Filters = filtered.Filters
	} else {
		study, err := sim.RunStudy(crowd.Strategies, o.SessionsPerStrategy)
		if err != nil {
			return nil, err
		}
		res.Study = study
	}
	grid := make([]float64, 0, 30)
	for m := 1.0; m <= params.SessionMinutes; m++ {
		grid = append(grid, m)
	}
	res.Grid = grid
	return res, nil
}

// Render writes the Figure 5 tables (quality, throughput, retention per
// strategy over time) plus totals and significance tests.
func (f *Fig5Result) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "minute\tgre-quality%\trel-quality%\tdiv-quality%\tgre-tasks\trel-tasks\tdiv-tasks\tgre-alive\trel-alive\tdiv-alive")
	qualGRE := f.Study.QualityCurve(crowd.StrategyGRE, f.Grid)
	qualREL := f.Study.QualityCurve(crowd.StrategyRel, f.Grid)
	qualDIV := f.Study.QualityCurve(crowd.StrategyDiv, f.Grid)
	thrGRE := f.Study.ThroughputCurve(crowd.StrategyGRE, f.Grid)
	thrREL := f.Study.ThroughputCurve(crowd.StrategyRel, f.Grid)
	thrDIV := f.Study.ThroughputCurve(crowd.StrategyDiv, f.Grid)
	retGRE := f.Study.RetentionCurve(crowd.StrategyGRE, f.Grid)
	retREL := f.Study.RetentionCurve(crowd.StrategyRel, f.Grid)
	retDIV := f.Study.RetentionCurve(crowd.StrategyDiv, f.Grid)
	for i, m := range f.Grid {
		fmt.Fprintf(tw, "%.0f\t%.1f\t%.1f\t%.1f\t%d\t%d\t%d\t%.2f\t%.2f\t%.2f\n",
			m, qualGRE[i], qualREL[i], qualDIV[i],
			thrGRE[i], thrREL[i], thrDIV[i],
			retGRE[i].Fraction, retREL[i].Fraction, retDIV[i].Fraction)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\ntotals:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tsessions\tcompleted\tquality%\tmean-duration(min)\ttasks/session\tavg-reward($)")
	for _, s := range crowd.Strategies {
		t := f.Study.Total(s)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.3f\n",
			s, t.Sessions, t.Completed, t.QualityPercent, t.MeanDuration, t.MeanPerSession, t.MeanTaskReward)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if f.Filters != nil {
		fmt.Fprintln(w, "\nselection pipeline (as in the paper: qualification, overtime, ≥1 iteration, top-N):")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "strategy\trecruited\tunqualified\tovertime\tincomplete\tvalid\tselected")
		for _, s := range crowd.Strategies {
			c := f.Filters[s]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
				s, c.Recruited, c.Unqualified, c.Overtime, c.Incomplete, c.Valid, c.Selected)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\nsignificance tests (as in the paper):")
	if z, err := f.Study.CompareQuality(crowd.StrategyDiv, crowd.StrategyGRE); err == nil {
		fmt.Fprintf(w, "  quality DIV vs GRE: two-proportions Z = %.2f, one-sided p = %.3f\n", z.Z, z.POneSided)
	}
	if z, err := f.Study.CompareQuality(crowd.StrategyGRE, crowd.StrategyRel); err == nil {
		fmt.Fprintf(w, "  quality GRE vs REL: two-proportions Z = %.2f, one-sided p = %.3f\n", z.Z, z.POneSided)
	}
	if u, err := f.Study.CompareThroughput(crowd.StrategyGRE, crowd.StrategyDiv); err == nil {
		fmt.Fprintf(w, "  throughput GRE vs DIV: Mann-Whitney U = %.0f, one-sided p = %.3f\n", u.U, u.POneSided)
	}
	if u, err := f.Study.CompareRetention(crowd.StrategyGRE, crowd.StrategyRel); err == nil {
		fmt.Fprintf(w, "  retention GRE vs REL: Mann-Whitney U = %.0f, one-sided p = %.3f\n", u.U, u.POneSided)
	}
	return nil
}

// Elapsed is a tiny helper used by the CLIs to report wall-clock per sweep.
func Elapsed(start time.Time) string {
	return time.Since(start).Round(time.Millisecond).String()
}
