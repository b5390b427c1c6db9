// Command hta-bench regenerates the paper's offline experiments
// (Section V-B): Figure 2a (response time vs |T| with the matching/LSAP
// split), Figure 2b (objective value vs |T|), Figure 2c (response time vs
// |W|) and Figure 3 (response time vs task diversity).
//
// Usage:
//
//	hta-bench -fig 2a [-scale 0.1] [-runs 3] [-seed 1] [-xmax 20] [-skip-app]
//	hta-bench -compare [-threshold 0.10] BENCH_old.json BENCH_new.json
//
// Scale 1.0 reproduces the paper's sizes (|T| up to 10,000); the default
// 0.1 finishes each sweep in seconds on a laptop while preserving the
// curves' shapes.
//
// The older timing reports (BENCH_PR2.json ... BENCH_PR7.json) are
// history: the layered benchmark in bench/ measures those paths now, and
// scripts/bench-gate.sh is its CI gate.
//
// -compare diffs every *_ns measurement shared by two bench report JSON
// files and exits non-zero if any slowed down by more than -threshold
// (relative, default 0.10 = +10%); CI runs it on the pr8 and pr10
// reports.
//
// -fig pr8 measures answer quality vs redundancy k under a 40% spammy
// crowd: gold grades drive online accuracy estimates and quarantines, and
// accuracy-weighted and EM aggregation are scored against plain majority
// on identical vote sets; with -gate it exits non-zero when either
// trust-aware aggregator fails to beat majority at k=3 (BENCH_PR8.json).
//
// -fig pr9 measures the cluster observability stack's overhead on the pr7
// gateway workload (BENCH_PR7.json) at 3 nodes: federated metrics + 1/16
// head sampling with cross-node spans + ops journals, against all of it
// disabled; with -gate it exits non-zero when the overhead exceeds the 2%
// budget (BENCH_PR9.json).
//
// -fig pr10 measures the deadline-miss rate of predictive vs reactive
// rebalancing on a bursty-churn deadline workload (every task deadlined,
// the shard-0 worker cohort departing and returning on a cycle); with
// -gate it exits non-zero unless predictive strictly beats reactive
// (BENCH_PR10.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/htacs/ata/internal/experiments"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
)

// runCompare is the -compare mode: exit 0 when new stays within
// threshold of old on every shared *_ns measurement, 1 on regression.
func runCompare(oldPath, newPath string, threshold float64) error {
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newData, err := os.ReadFile(newPath)
	if err != nil {
		return err
	}
	deltas, missing, regressed, err := experiments.CompareBenchJSON(oldData, newData, threshold)
	if err != nil {
		return err
	}
	fmt.Printf("bench comparison: %s -> %s (threshold +%.0f%%)\n\n", oldPath, newPath, 100*threshold)
	if err := experiments.RenderBenchDeltas(os.Stdout, deltas, missing, threshold); err != nil {
		return err
	}
	if regressed {
		os.Exit(1)
	}
	return nil
}

func main() {
	fig := flag.String("fig", "2a", "figure to regenerate: 2a, 2b, 2c, 3, obj, bg, pr8, pr9 or pr10")
	scale := flag.Float64("scale", 0.1, "size multiplier on the paper's setup (1.0 = paper scale)")
	runs := flag.Int("runs", 3, "measurement runs to average (paper: 10)")
	seed := flag.Int64("seed", 1, "random seed")
	xmax := flag.Int("xmax", 20, "per-worker capacity Xmax")
	skipAPP := flag.Bool("skip-app", false, "skip the O(|T|^3) HTA-APP runs")
	format := flag.String("format", "table", "output format: table or csv")
	jsonPath := flag.String("json", "", "with a -fig prN report: also write it as JSON to this path (e.g. BENCH_PR8.json)")
	gate := flag.Bool("gate", false, "with -fig pr8, pr9 or pr10: exit 1 when the report misses its target (the CI gate)")
	compareMode := flag.Bool("compare", false, "compare two bench report JSON files (old new); exit 1 on regression beyond -threshold")
	threshold := flag.Float64("threshold", 0.10, "with -compare: relative slowdown tolerated per *_ns measurement")
	metricsAddr := flag.String("metrics", "",
		"serve the obs registry on this address (/metrics, /healthz, /debug/pprof) while the sweep runs; empty disables")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "hta-bench: -compare needs exactly two arguments: old.json new.json")
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "hta-bench:", err)
			os.Exit(1)
		}
		return
	}

	// The side listener is tied to main's lifetime: cancelling the context
	// shuts the server down and releases the port (no leaked goroutine).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *metricsAddr != "" {
		mux := obs.Default().SideMux()
		trace.RegisterDebug(mux, trace.Default())
		go func() {
			if err := obs.Default().ServeUntil(ctx, *metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "hta-bench: metrics:", err)
			}
		}()
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(os.Stderr, "hta-bench: unknown format %q\n", *format)
		os.Exit(2)
	}
	asCSV := *format == "csv"

	opts := experiments.Options{Scale: *scale, Runs: *runs, Seed: *seed, Xmax: *xmax, SkipAPP: *skipAPP}
	start := time.Now()
	var err error
	switch *fig {
	case "2a":
		err = render(experiments.SweepTasks, opts, "time", asCSV,
			"Figure 2a: response time vs number of tasks (|W| = 200·scale, Xmax = %d)")
	case "2b":
		err = render(experiments.SweepTasks, opts, "objective", asCSV,
			"Figure 2b: objective function value vs number of tasks (|W| = 200·scale, Xmax = %d)")
	case "2c":
		err = render(experiments.SweepWorkers, opts, "time", asCSV,
			"Figure 2c: response time vs number of workers (|T| = 8000·scale, Xmax = %d)")
	case "3":
		err = render(experiments.SweepGroups, opts, "time", asCSV,
			"Figure 3: effect of task diversity (|T| = 10000·scale, |W| = 300·scale, Xmax = %d)")
	case "obj":
		// Not a paper figure: the Figure 2b comparison extended to every
		// solver in the repository.
		err = render(experiments.SweepObjective, opts, "objective", asCSV,
			"Solver ablation: objective value across all algorithms (Xmax = %d)")
	case "bg":
		// Not a paper figure: quantifies the Section V-A deployment claim
		// that HTA-GRE can prepare the next round in the background.
		fmt.Printf("Background-assignment check: HTA-GRE iteration latency vs worker batch time (Xmax = %d)\n\n", opts.Xmax)
		var rows []experiments.LatencyRow
		rows, err = experiments.SweepIterationLatency(opts)
		if err == nil {
			err = experiments.RenderLatency(os.Stdout, rows)
		}
	case "pr8":
		// Not a paper figure: the quality-layer report — one simulated
		// crowd answering at k = 1/3/5, three aggregators scored against
		// ground truth, judged by the trust-aware methods beating plain
		// majority at k=3.
		fmt.Printf("PR 8 report: answer accuracy vs redundancy k under a mixed honest/spammy crowd\n\n")
		var report *experiments.PR8Report
		report, err = experiments.SweepPR8(opts)
		if err == nil {
			err = report.RenderPR8(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR8JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *gate && !report.MeetsTarget {
			fmt.Fprintf(os.Stderr, "hta-bench: pr8 gate: weighted beats majority at k=3: %v, EM beats majority at k=3: %v\n",
				report.WeightedBeatsMajorityAtK3, report.EMBeatsMajorityAtK3)
			os.Exit(1)
		}
	case "pr9":
		// Not a paper figure: the cluster observability overhead report —
		// the pr7 gateway workload at 3 nodes with federated metrics, 1/16
		// head sampling (remote spans on every node) and ops journals live,
		// against the same cluster with all of it off, judged by the 2%
		// budget.
		fmt.Printf("PR 9 report: cluster observability overhead on the pr7 gateway workload (3 nodes)\n\n")
		var report *experiments.PR9Report
		report, err = experiments.SweepPR9(opts)
		if err == nil {
			err = report.RenderPR9(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR9JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *gate && !report.WithinBudget {
			fmt.Fprintf(os.Stderr, "hta-bench: pr9 gate: observability overhead %.2f%% exceeds the %.0f%% budget\n",
				report.MaxOverheadPct, report.BudgetPct)
			os.Exit(1)
		}
	case "pr10":
		// Not a paper figure: the predictive-scheduling report — the
		// bursty-churn deadline workload replayed under reactive
		// (watermark-only) and predictive (forecast-driven) rebalancing on
		// identical seeds, judged by deadline-miss rate.
		fmt.Printf("PR 10 report: deadline-miss rate, predictive vs reactive rebalancing under bursty churn\n\n")
		var report *experiments.PR10Report
		report, err = experiments.SweepPR10(opts)
		if err == nil {
			err = report.RenderPR10(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR10JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *gate && !report.PredictiveBeatsReactive {
			fmt.Fprintf(os.Stderr, "hta-bench: pr10 gate: predictive miss %.2f%% does not beat reactive %.2f%%\n",
				report.PredictiveMissPct, report.ReactiveMissPct)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "hta-bench: unknown figure %q (want 2a, 2b, 2c, 3, obj, bg, pr8, pr9 or pr10)\n", *fig)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hta-bench:", err)
		os.Exit(1)
	}
	if !asCSV {
		fmt.Printf("\ncompleted in %s (scale %.2f, %d run(s) per point)\n",
			experiments.Elapsed(start), *scale, *runs)
	}
}

func render(sweep func(experiments.Options) ([]experiments.Row, error), opts experiments.Options, kind string, asCSV bool, title string) error {
	rows, err := sweep(opts)
	if err != nil {
		return err
	}
	if asCSV {
		return experiments.WriteRowsCSV(os.Stdout, rows)
	}
	fmt.Printf(title+"\n\n", opts.Xmax)
	return experiments.RenderRows(os.Stdout, rows, kind)
}
