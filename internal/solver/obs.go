package solver

import (
	"context"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
)

// Solver telemetry, registered on the process-wide obs registry. The
// instruments are always on — every write is a few atomic operations,
// under 2% of a full solve as BENCH_PR3.json records — with
// obs.SetEnabled(false) as the global kill switch.
var (
	phaseMatching = phaseHist("matching")
	phaseLSAP     = phaseHist("lsap")
	phaseFlip     = phaseHist("flip")
	phaseTotal    = phaseHist("total")

	lastObjective = func(algo string) *obs.Gauge {
		return obs.Default().Gauge("hta_solver_last_objective",
			"objective value of the most recent run, by algorithm", obs.L("algorithm", algo))
	}

	// approxSanity is objective / (Σ_w (α_w+β_w)·Xmax·(Xmax−1)) — the
	// trivial upper bound with every pairwise distance and relevance at
	// 1.0. For bounded metrics (Jaccard) the ratio lives in [0, 1]; a
	// value near 0 on a large instance, or above 1 on a supposedly bounded
	// metric, is the operational smell the gauge exists to surface.
	approxSanity = obs.Default().Gauge("hta_solver_approx_sanity",
		"objective of the last run as a fraction of the all-ones upper bound")

	objectiveNegative = obs.Default().Counter("hta_solver_objective_negative_total",
		"runs whose objective came out negative (motivation is a sum of nonnegative terms; this must stay 0)")
)

func solverRuns(algo string) *obs.Counter {
	return obs.Default().Counter("hta_solver_runs_total",
		"solver runs completed, by algorithm", obs.L("algorithm", algo))
}

func phaseHist(phase string) *obs.Histogram {
	return obs.Default().Histogram("hta_solver_phase_seconds",
		"time per solver phase", obs.DurationBuckets(), obs.L("phase", phase))
}

// startPhase couples one pipeline phase to both telemetry sinks: a trace
// span joining the caller's context (inert when the context carries no
// sampled trace — one nil check) and the phase-latency histogram. The
// returned func ends the phase, optionally attaching result attributes,
// and returns the measured wall-clock duration for Result bookkeeping.
func startPhase(ctx context.Context, name string, h *obs.Histogram, attrs ...trace.Attr) func(extra ...trace.Attr) time.Duration {
	_, sp := trace.Start(ctx, name, attrs...)
	start := time.Now()
	return func(extra ...trace.Attr) time.Duration {
		if len(extra) > 0 {
			sp.SetAttrs(extra...)
		}
		sp.End()
		d := time.Since(start)
		obs.ObserveDuration(h, d)
		return d
	}
}

// recordRunMetrics publishes one finished run into the registry. Phase
// histograms (matching/lsap/flip) are fed by startPhase at
// each call site; this records the run-level totals and sanity gauges.
func recordRunMetrics(in *core.Instance, res *Result) {
	if !obs.Enabled() {
		return
	}
	solverRuns(res.Algorithm).Inc()
	obs.ObserveDuration(phaseTotal, res.TotalTime)
	lastObjective(res.Algorithm).Set(res.Objective)
	if res.Objective < 0 {
		objectiveNegative.Inc()
	}
	if ub := trivialUpperBound(in); ub > 0 {
		approxSanity.Set(res.Objective / ub)
	}
}

// trivialUpperBound bounds the HTA objective from above assuming every
// distance and relevance equals 1: each worker contributes at most
// α·Xmax·(Xmax−1) diversity (2·C(Xmax,2) ordered pairs) plus
// β·(Xmax−1)·Xmax relevance.
func trivialUpperBound(in *core.Instance) float64 {
	x := float64(in.Xmax)
	var ub float64
	for _, w := range in.Workers {
		ub += (w.Alpha + w.Beta) * x * (x - 1)
	}
	return ub
}
