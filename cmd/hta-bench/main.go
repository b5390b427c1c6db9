// Command hta-bench regenerates the paper's offline experiments
// (Section V-B): Figure 2a (response time vs |T| with the matching/LSAP
// split), Figure 2b (objective value vs |T|), Figure 2c (response time vs
// |W|) and Figure 3 (response time vs task diversity).
//
// Usage:
//
//	hta-bench -fig 2a [-scale 0.1] [-runs 3] [-seed 1] [-xmax 20] [-skip-app]
//	hta-bench -fig pr9 [-runs 5] [-gate] [-json BENCH_PR9.json]
//
// Scale 1.0 reproduces the paper's sizes (|T| up to 10,000); the default
// 0.1 finishes each sweep in seconds on a laptop while preserving the
// curves' shapes.
//
// The older timing reports (BENCH_PR2.json ... BENCH_PR7.json) are
// history: the layered benchmark in bench/ measures those paths now, and
// scripts/bench-gate.sh is its CI gate. The answer-quality and
// predictive-scheduling claims are exact seeded tests, which bound their
// timings against BENCH_PR8.json and BENCH_PR10.json:
//
//	go test ./internal/quality -run TestSpammyCrowdAccuracyByRedundancy -v
//	go test ./internal/shard -run TestDeadlineChurnPredictiveBeatsReactive -v
//
// -fig pr9 measures the cluster observability stack's overhead on the pr7
// gateway workload (BENCH_PR7.json) at 3 nodes: federated metrics + 1/16
// head sampling with cross-node spans + ops journals, against all of it
// disabled; with -gate it exits non-zero when the overhead exceeds the 2%
// budget (BENCH_PR9.json). -gate and -json apply to pr9 only.
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

func main() {
	fig := flag.String("fig", "2a", "figure to regenerate: 2a, 2b, 2c, 3, obj, bg or pr9")
	scale := flag.Float64("scale", 0.1, "size multiplier on the paper's setup (1.0 = paper scale)")
	runs := flag.Int("runs", 3, "measurement runs to average (paper: 10)")
	seed := flag.Int64("seed", 1, "random seed")
	xmax := flag.Int("xmax", 20, "per-worker capacity Xmax")
	skipAPP := flag.Bool("skip-app", false, "skip the O(|T|^3) HTA-APP runs")
	format := flag.String("format", "table", "output format: table or csv")
	jsonPath := flag.String("json", "", "with -fig pr9: also write the report as JSON to this path (e.g. BENCH_PR9.json)")
	gate := flag.Bool("gate", false, "with -fig pr9: exit 1 when the overhead exceeds its budget (the CI gate)")
	metricsAddr := flag.String("metrics", "",
		"serve the obs registry on this address (/metrics, /healthz, /debug/pprof) while the sweep runs; empty disables")
	flag.Parse()

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
	default:
		fmt.Fprintf(os.Stderr, "hta-bench: unknown figure %q (want 2a, 2b, 2c, 3, obj, bg or pr9)\n", *fig)
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
