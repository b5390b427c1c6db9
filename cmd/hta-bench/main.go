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
// -compare diffs every *_ns measurement shared by two bench report JSON
// files and exits non-zero if any slowed down by more than -threshold
// (relative, default 0.10 = +10%) — the CI regression gate.
//
// -fig pr4 measures the request-scoped tracing layer's overhead (off vs
// 1/16 head sampling vs always-on) on the pr2 solver workload; with
// -trace-out the sweep also writes one fully-recorded solve as Chrome
// trace-event JSON, loadable in Perfetto.
//
// -fig pr5 measures the sharded streaming engine's event throughput at
// 1/2/4/8 shards on a churn-laden complete-dominated workload with the
// total buffer capacity fixed across shard counts (BENCH_PR5.json).
//
// -fig pr6 re-runs the pr5 workload on the incremental hot path and
// reports the single-shard speedup against the pre-optimisation baseline
// loaded from -baseline (default BENCH_PR5.json); with -gate it exits
// non-zero when the speedup misses -min-speedup (BENCH_PR6.json).
//
// -fig pr7 measures the multi-node cluster gateway at 1/2/4 single-shard
// nodes over real loopback HTTP, batched frames vs a MaxBatch=1 per-op
// control, with total buffer capacity fixed across node counts; with
// -gate it exits non-zero when 4 nodes miss the 2x aggregate target or
// batching loses to the control (BENCH_PR7.json).
//
// -fig pr8 measures answer quality vs redundancy k under a 40% spammy
// crowd: gold grades drive online accuracy estimates and quarantines, and
// accuracy-weighted and EM aggregation are scored against plain majority
// on identical vote sets; with -gate it exits non-zero when either
// trust-aware aggregator fails to beat majority at k=3 (BENCH_PR8.json).
//
// -fig pr9 measures the cluster observability stack's overhead on the pr7
// gateway workload at 3 nodes: federated metrics + 1/16 head sampling
// with cross-node spans + ops journals, against all of it disabled; with
// -gate it exits non-zero when the overhead exceeds the 2% budget
// (BENCH_PR9.json).
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
	fig := flag.String("fig", "2a", "figure to regenerate: 2a, 2b, 2c, 3, obj, bg, pr2, pr3, pr4, pr5, pr6, pr7, pr8, pr9 or pr10")
	scale := flag.Float64("scale", 0.1, "size multiplier on the paper's setup (1.0 = paper scale)")
	runs := flag.Int("runs", 3, "measurement runs to average (paper: 10)")
	seed := flag.Int64("seed", 1, "random seed")
	xmax := flag.Int("xmax", 20, "per-worker capacity Xmax")
	skipAPP := flag.Bool("skip-app", false, "skip the O(|T|^3) HTA-APP runs")
	format := flag.String("format", "table", "output format: table or csv")
	jsonPath := flag.String("json", "", "with a -fig prN report: also write it as JSON to this path (e.g. BENCH_PR2.json)")
	traceOut := flag.String("trace-out", "", "with -fig pr4: write a sample solver trace as Chrome trace-event JSON to this path")
	baselinePath := flag.String("baseline", "BENCH_PR5.json", "with -fig pr6: bench JSON whose shards=1 point is the speedup baseline")
	minSpeedup := flag.Float64("min-speedup", experiments.DefaultPR6Target, "with -fig pr6 -gate: required single-shard speedup over -baseline")
	gate := flag.Bool("gate", false, "with -fig pr6: exit 1 when the speedup misses -min-speedup (the CI gate)")
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
	case "pr2":
		// Not a paper figure: the before/after report of the PR 2 LSAP
		// class collapse (dense Hungarian → capacitated class-level
		// Hungarian) and the class-pair M_B against the all-pairs one.
		fmt.Printf("PR 2 report: class-collapsed exact LSAP + class-pair M_B (Xmax = %d)\n\n", opts.Xmax)
		var report *experiments.PR2Report
		report, err = experiments.SweepPR2(opts)
		if err == nil {
			err = report.RenderPR2(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR2JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
	case "pr3":
		// Not a paper figure: the observability-layer overhead report —
		// the -fig pr2 solver workload with telemetry enabled vs
		// obs.SetEnabled(false), against the 2% budget.
		fmt.Printf("PR 3 report: obs instrumentation overhead on the pr2 solver workload (Xmax = %d)\n\n", opts.Xmax)
		var report *experiments.PR3Report
		report, err = experiments.SweepPR3(opts)
		if err == nil {
			err = report.RenderPR3(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR3JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
	case "pr4":
		// Not a paper figure: the tracing-layer overhead report — the
		// -fig pr2 solver workload under a disabled recorder, 1/16 head
		// sampling, and always-on tracing, against the 2% budget.
		fmt.Printf("PR 4 report: request-scoped tracing overhead on the pr2 solver workload (Xmax = %d)\n\n", opts.Xmax)
		var report *experiments.PR4Report
		var sample []*trace.Trace
		report, sample, err = experiments.SweepPR4(opts)
		if err == nil {
			err = report.RenderPR4(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR4JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *traceOut != "" {
			if len(sample) == 0 {
				err = fmt.Errorf("pr4 sweep retained no sample trace for -trace-out")
			} else {
				var f *os.File
				if f, err = os.Create(*traceOut); err == nil {
					err = trace.WriteChrome(f, sample)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
					if err == nil {
						fmt.Printf("\nwrote sample solver trace to %s (load it in Perfetto)\n", *traceOut)
					}
				}
			}
		}
	case "pr5":
		// Not a paper figure: the sharded streaming engine's throughput
		// scaling — the same churn workload at 1/2/4/8 shards with total
		// buffer capacity held constant, against the 2.5x target.
		fmt.Printf("PR 5 report: sharded streaming engine event throughput (total buffer fixed across shard counts)\n\n")
		var report *experiments.PR5Report
		report, err = experiments.SweepPR5(opts)
		if err == nil {
			err = report.RenderPR5(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR5JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
	case "pr6":
		// Not a paper figure: the incremental hot-path report — the pr5
		// churn workload re-measured on the cached-gain engine, judged by
		// single-shard speedup over the recorded pr5 baseline.
		fmt.Printf("PR 6 report: incremental hot path vs pr5 baseline on the churn workload\n\n")
		var data []byte
		data, err = os.ReadFile(*baselinePath)
		var report *experiments.PR6Report
		if err == nil {
			var baseline experiments.PR6Baseline
			baseline, err = experiments.PR5BaselineFromJSON(data, *baselinePath)
			if err == nil {
				report, err = experiments.SweepPR6(opts, baseline, *minSpeedup)
			}
		}
		if err == nil {
			err = report.RenderPR6(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR6JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *gate && !report.MeetsTarget {
			fmt.Fprintf(os.Stderr, "hta-bench: pr6 gate: speedup %.2fx below required %.2fx\n",
				report.SpeedupAt1, report.TargetSpeedup)
			os.Exit(1)
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
	case "pr7":
		// Not a paper figure: the multi-node cluster report — the pr5
		// churn workload routed through the gateway's batched RPC plane at
		// 1/2/4 nodes, judged by 4-node aggregate speedup and by the
		// batched-vs-per-op contrast.
		fmt.Printf("PR 7 report: cluster gateway throughput over loopback HTTP (total buffer fixed across node counts)\n\n")
		var report *experiments.PR7Report
		report, err = experiments.SweepPR7(opts)
		if err == nil {
			err = report.RenderPR7(os.Stdout)
		}
		if err == nil && *jsonPath != "" {
			var f *os.File
			if f, err = os.Create(*jsonPath); err == nil {
				err = report.WritePR7JSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
		}
		if err == nil && *gate && !report.MeetsTarget {
			fmt.Fprintf(os.Stderr, "hta-bench: pr7 gate: 4-node speedup %.2fx (target %.2fx), batched beats per-op: %v\n",
				report.SpeedupAt4, report.TargetSpeedup, report.BatchedBeatsUnbatched)
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
		fmt.Fprintf(os.Stderr, "hta-bench: unknown figure %q (want 2a, 2b, 2c, 3, obj, bg, pr2, pr3, pr4, pr5, pr6, pr7, pr8, pr9 or pr10)\n", *fig)
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
