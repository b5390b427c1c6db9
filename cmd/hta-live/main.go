// Command hta-live regenerates the paper's online deployment experiment
// (Section V-C, Figures 5a–5c): 30-minute simulated work sessions under
// the strategies HTA-GRE (adaptive), HTA-GRE-REL (relevance only) and
// HTA-GRE-DIV (diversity only), reporting crowdwork quality, task
// throughput and worker retention over time plus the significance tests
// the paper runs.
//
// Usage:
//
//	hta-live [-sessions 20] [-seed 1] [-minutes 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/htacs/ata/internal/crowd"
	"github.com/htacs/ata/internal/experiments"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/plot"
	"github.com/htacs/ata/internal/trace"
)

// renderCharts draws the three Figure 5 panels as ASCII line charts.
func renderCharts(res *experiments.Fig5Result) error {
	charts := []struct {
		title  string
		series func(crowd.Strategy) []float64
		cfg    plot.Config
	}{
		{"\nFigure 5a — cumulative % correct answers", func(s crowd.Strategy) []float64 {
			return res.Study.QualityCurve(s, res.Grid)
		}, plot.Config{}},
		{"\nFigure 5b — cumulative completed tasks", func(s crowd.Strategy) []float64 {
			curve := res.Study.ThroughputCurve(s, res.Grid)
			out := make([]float64, len(curve))
			for i, v := range curve {
				out[i] = float64(v)
			}
			return out
		}, plot.Config{}},
		{"\nFigure 5c — % of sessions still running", func(s crowd.Strategy) []float64 {
			ret := res.Study.RetentionCurve(s, res.Grid)
			out := make([]float64, len(ret))
			for i, p := range ret {
				out[i] = 100 * p.Fraction
			}
			return out
		}, plot.Config{YMin: 0, YMax: 105}},
	}
	for _, c := range charts {
		series := make([]plot.Series, len(crowd.Strategies))
		for i, s := range crowd.Strategies {
			series[i] = plot.Series{Name: string(s), Y: c.series(s)}
		}
		if err := plot.Lines(os.Stdout, c.title, res.Grid, series, c.cfg); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	sessions := flag.Int("sessions", 20, "work sessions per strategy (paper: 20)")
	seed := flag.Int64("seed", 1, "random seed")
	minutes := flag.Float64("minutes", 30, "session time limit in minutes (paper: 30)")
	csvOut := flag.String("csv", "", "also write the per-minute curves as CSV to this file")
	filtered := flag.Bool("filtered", false,
		"run the paper's full selection pipeline: worker qualification, overtime and incomplete-session filters, top-N by completions")
	chart := flag.Bool("chart", false, "render the Figure 5a-5c curves as ASCII charts")
	sessionsOut := flag.String("out", "", "archive raw sessions as JSON lines to this file (analyze with hta-report)")
	metricsAddr := flag.String("metrics", "",
		"serve the obs registry on this address (/metrics, /healthz, /debug/pprof) while the study runs; empty disables")
	flag.Parse()

	// The side listener shuts down — and releases the port — when main's
	// context is cancelled, instead of leaking a goroutine until exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *metricsAddr != "" {
		mux := obs.Default().SideMux()
		trace.RegisterDebug(mux, trace.Default())
		go func() {
			if err := obs.Default().ServeUntil(ctx, *metricsAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "hta-live: metrics:", err)
			}
		}()
	}

	params := crowd.DefaultParams()
	params.SessionMinutes = *minutes
	start := time.Now()
	res, err := experiments.Fig5(experiments.Fig5Options{
		SessionsPerStrategy: *sessions,
		Seed:                *seed,
		Params:              &params,
		Filtered:            *filtered,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hta-live:", err)
		os.Exit(1)
	}
	fmt.Printf("Figures 5a-5c: online study, %d sessions per strategy, %.0f-minute sessions\n\n",
		*sessions, *minutes)
	if err := res.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hta-live:", err)
		os.Exit(1)
	}
	if *chart {
		if err := renderCharts(res); err != nil {
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
	}
	if *sessionsOut != "" {
		f, err := os.Create(*sessionsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		if err := res.Study.WriteSessions(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		fmt.Printf("\narchived sessions to %s\n", *sessionsOut)
	}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		if err := res.WriteFig5CSV(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hta-live:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote per-minute curves to %s\n", *csvOut)
	}
	fmt.Printf("\ncompleted in %s\n", experiments.Elapsed(start))
}
