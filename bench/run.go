package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/htacs/ata/internal/platform"
)

// Options configures one run.
type Options struct {
	Seed      int64
	Seconds   float64 // length of the timed phase
	Trace     bool    // report per-layer metrics from a traced run
	TracePath string  // where a traced run writes its Perfetto trace

	// wrap, when set, wraps the backend handed to the platform server.
	wrap func(platform.StreamBackend) platform.StreamBackend
}

// Run runs one workload in this process. An untraced run reports every
// end-to-end metric, a traced run every per-layer metric.
func Run(sh Shape, opt Options) (*Result, error) {
	if opt.Seconds <= 0 {
		return nil, fmt.Errorf("bench: seconds = %g", opt.Seconds)
	}
	if opt.Trace && opt.TracePath == "" {
		return nil, fmt.Errorf("bench: traced run without a trace path")
	}
	res := &Result{Detail: Detail{Workload: sh.Name, Seed: opt.Seed, Seconds: opt.Seconds, Traced: opt.Trace}}
	if opt.Trace {
		for _, m := range PerLayer {
			res.set(m.Name, 0)
		}
	}
	var err error
	if sh.Kind == Batch {
		err = runBatch(&sh, opt, res)
	} else {
		err = runServing(&sh, opt, res)
	}
	if err != nil {
		return nil, err
	}
	if ref, ok := referenceDigest(sh.Name, opt.Seed); ok && !opt.Trace && res.Detail.Digest != "" {
		same := ref == res.Detail.Digest
		res.Detail.DecisionsIdentical = &same
	}
	res.Line.Correct = res.Detail.correct()
	return res, nil
}

// baselineJSON is the report of the seed-commit baseline runs; its
// digests are the reference decisions.
//
//go:embed baseline.json
var baselineJSON []byte

// referenceDigest returns the baseline's decision digest for an untraced
// run of the workload at seed, if the baseline has one.
func referenceDigest(workload string, seed int64) (string, bool) {
	var base struct{ Runs []RunRecord }
	if json.Unmarshal(baselineJSON, &base) != nil {
		return "", false
	}
	for _, r := range base.Runs {
		d := r.Detail
		if d.Workload == workload && d.Seed == seed && !d.Traced && d.Digest != "" {
			return d.Digest, true
		}
	}
	return "", false
}

// RunRecord is one run of a report.
type RunRecord struct {
	Round  int    `json:"round"`
	Result Line   `json:"result"`
	Detail Detail `json:"detail"`
}

// Summary is one metric's distribution over a report's runs of a
// workload. Spread is (Q3 − Q1) / median, the quantity the metric's bound
// caps.
type Summary struct {
	N         int     `json:"n"`
	Unit      string  `json:"unit"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	Spread    float64 `json:"spread"`
	Bound     float64 `json:"bound,omitempty"`
	OverBound bool    `json:"over_bound,omitempty"`
}

// Machine records where a report was measured.
type Machine struct {
	NumCPU    int     `json:"nproc"`
	GoVersion string  `json:"go"`
	CalibMs   float64 `json:"calib_ms"` // median of the runs' calib_ms
}

// Report is the JSON report of a set of runs, and the format of the
// checked-in baseline.
type Report struct {
	Machine  Machine                       `json:"machine"`
	Seconds  float64                       `json:"seconds"`
	EndToEnd []Metric                      `json:"end_to_end"`
	PerLayer []Metric                      `json:"per_layer"`
	Summary  map[string]map[string]Summary `json:"summary"`
	Runs     []RunRecord                   `json:"runs"`
}

// Summarize fills the report's per-workload metric summaries.
func (r *Report) Summarize() {
	bounds := make(map[string]float64)
	for _, m := range EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	var calib []float64
	for _, run := range r.Runs {
		w := run.Detail.Workload
		if values[w] == nil {
			values[w] = make(map[string][]float64)
		}
		for name, v := range run.Result.Metrics {
			values[w][name] = append(values[w][name], v.Value)
			units[name] = v.Unit
		}
		calib = append(calib, run.Detail.CalibMs)
	}
	r.Machine.CalibMs = median(calib)
	r.Summary = make(map[string]map[string]Summary)
	for w, byName := range values {
		r.Summary[w] = make(map[string]Summary)
		for name, xs := range byName {
			q1, q3 := quartiles(xs)
			s := Summary{N: len(xs), Unit: units[name], Median: median(xs), Q1: q1, Q3: q3, Bound: bounds[name]}
			if s.Median != 0 {
				s.Spread = (q3 - q1) / s.Median
			}
			// setup_s's bound caps drift between medians, not the spread.
			s.OverBound = s.Bound > 0 && name != "setup_s" && s.Spread > s.Bound
			r.Summary[w][name] = s
		}
	}
}

// Render prints the summaries as a table, flagging spreads over bound.
func (r *Report) Render(w io.Writer) {
	var names []string
	for n := range r.Summary {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-36s %-6s %3s %12s %12s %12s %7s %6s\n",
		"workload", "metric", "unit", "n", "median", "q1", "q3", "spread", "bound")
	for _, wl := range names {
		var metrics []string
		for m := range r.Summary[wl] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			s := r.Summary[wl][m]
			bound, flag := "", ""
			if s.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", 100*s.Bound)
			}
			if s.OverBound {
				flag = "  spread over bound"
			}
			fmt.Fprintf(w, "%-12s %-36s %-6s %3d %12.5g %12.5g %12.5g %6.1f%% %6s%s\n",
				wl, m, s.Unit, s.N, s.Median, s.Q1, s.Q3, 100*s.Spread, bound, flag)
		}
	}
}

// WriteJSON writes the report to path.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Print writes a run's human-readable summary, then the detail line and,
// last, the result line.
func (r *Result) Print(w io.Writer) error {
	d := &r.Detail
	fmt.Fprintf(w, "hta-layers %s seed=%d seconds=%g traced=%v calib=%.4fms events=%d wall=%.2fs\n",
		d.Workload, d.Seed, d.Seconds, d.Traced, d.CalibMs, d.Events, d.WallS)
	var names []string
	for n := range r.Line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Line.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, v.Value, v.Unit)
	}
	var ops []string
	for o := range d.Ops {
		ops = append(ops, o)
	}
	sort.Strings(ops)
	for _, o := range ops {
		s := d.Ops[o]
		fmt.Fprintf(w, "  call %-10s n=%-8d p50=%.4fms p99=%.4fms\n", o, s.N, s.P50ms, s.P99ms)
	}
	for _, c := range d.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-40s %s  %s\n", c.Name, status, c.Note)
	}
	if d.Digest != "" {
		identical := "no reference for this seed"
		if d.DecisionsIdentical != nil {
			identical = fmt.Sprint(*d.DecisionsIdentical)
		}
		fmt.Fprintf(w, "  decision digest %s, identical to the baseline: %s\n", d.Digest, identical)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", r.Line.Attempted, r.Line.Failed, r.Line.Correct)
	for _, v := range []any{d, r.Line} {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", b); err != nil {
			return err
		}
	}
	return nil
}

// ParseOutput reads a run's output: everything before the last two lines
// is the human-readable part, then the detail line and the result line.
func ParseOutput(out string) (human string, rec RunRecord, err error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 2 {
		return out, rec, fmt.Errorf("bench: run printed no result")
	}
	n := len(lines)
	if err := json.Unmarshal([]byte(lines[n-2]), &rec.Detail); err != nil {
		return out, rec, fmt.Errorf("bench: detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[n-1]), &rec.Result); err != nil {
		return out, rec, fmt.Errorf("bench: result line: %w", err)
	}
	return strings.Join(lines[:n-2], "\n") + "\n", rec, nil
}
