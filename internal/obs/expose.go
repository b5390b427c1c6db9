package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// escapeHelp escapes a HELP comment per the Prometheus text format:
// backslash and newline are escaped (a raw newline would split the
// comment into a garbage line the scraper rejects).
func escapeHelp(s string) string {
	return helpEscaper.Replace(s)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabelValue escapes a label value per the Prometheus text format:
// backslash, double-quote and newline.
func escapeLabelValue(s string) string {
	return labelEscaper.Replace(s)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels renders a sorted label set (plus optional extras, appended
// after) as an exposition fragment: `{k="v",...}`, or "" when empty.
func renderLabels(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for _, set := range [2][]Label{labels, extra} {
		for _, l := range set {
			if n > 0 {
				b.WriteByte(',')
			}
			n++
			b.WriteString(l.Key)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families in registration order,
// series sorted by label set within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch m := s.metric.(type) {
			case *Counter:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(m.Value()))
			case *Gauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(m.Value()))
			case *Histogram:
				err = writePromHistogram(w, f.name, s.labels, m.Snapshot())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram renders one histogram series: cumulative _bucket
// lines, then _sum and _count.
func writePromHistogram(w io.Writer, name string, labels []Label, s HistSnapshot) error {
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = fmtFloat(s.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(labels, L("le", le)), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labels), fmtFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), cum)
	return err
}

// fmtFloat renders floats the way Prometheus expects (shortest exact
// representation, Inf/NaN spelled out).
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// JSONSeries is one series in the JSON exposition.
type JSONSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value *float64 `json:"value,omitempty"`
	// Histogram summary fields (quantiles interpolated from buckets).
	Count *uint64  `json:"count,omitempty"`
	Sum   *float64 `json:"sum,omitempty"`
	Mean  *float64 `json:"mean,omitempty"`
	Min   *float64 `json:"min,omitempty"`
	Max   *float64 `json:"max,omitempty"`
	P50   *float64 `json:"p50,omitempty"`
	P90   *float64 `json:"p90,omitempty"`
	P99   *float64 `json:"p99,omitempty"`
}

// JSONFamily is one metric family in the JSON exposition.
type JSONFamily struct {
	Name   string       `json:"name"`
	Type   MetricType   `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []JSONSeries `json:"series"`
}

// WriteJSON renders the registry as a JSON document — the
// machine-friendly twin of WritePrometheus, with histogram quantile
// summaries instead of raw buckets.
func (r *Registry) WriteJSON(w io.Writer) error {
	fams := r.snapshotFamilies()
	out := make([]JSONFamily, 0, len(fams))
	for _, f := range fams {
		jf := JSONFamily{Name: f.name, Type: f.typ, Help: f.help, Series: []JSONSeries{}}
		for _, s := range f.series {
			js := JSONSeries{Labels: labelMap(s.labels)}
			switch m := s.metric.(type) {
			case *Counter:
				v := m.Value()
				js.Value = &v
			case *Gauge:
				v := m.Value()
				js.Value = &v
			case *Histogram:
				snap := m.Snapshot()
				js.Count = &snap.Count
				js.Sum = &snap.Sum
				if snap.Count > 0 {
					mean, mn, mx := snap.Mean(), snap.Min, snap.Max
					p50, p90, p99 := snap.Quantile(0.50), snap.Quantile(0.90), snap.Quantile(0.99)
					js.Mean, js.Min, js.Max, js.P50, js.P90, js.P99 = &mean, &mn, &mx, &p50, &p90, &p99
				}
			}
			jf.Series = append(jf.Series, js)
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"metrics": out})
}

// labelMap converts a label set to the JSON exposition's map form.
func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]string, len(labels))
	for _, l := range labels {
		out[l.Key] = l.Value
	}
	return out
}

// Handler serves the registry: Prometheus text by default, JSON when the
// request asks for it (?format=json or an Accept header preferring
// application/json), and the lossless mergeable snapshot form on
// ?format=snapshot (what the gateway's federation poller pulls).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "snapshot" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.Snapshot().WriteJSON(w)
			return
		}
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// SideMux builds the sidecar mux the CLI tools expose behind their
// -metrics flags: /metrics and /healthz for the registry. Callers may
// mount extra debug handlers (trace.RegisterDebug) before serving it.
func (r *Registry) SideMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/healthz", HealthzHandler(nil))
	return mux
}

// ServeUntil serves h (or, when h is nil, the registry's SideMux) on addr
// until ctx is cancelled, then shuts the server down gracefully and
// releases the port. It blocks like http.ListenAndServe; callers run it
// in a goroutine. Returns nil on a ctx-triggered shutdown.
func (r *Registry) ServeUntil(ctx context.Context, addr string, h http.Handler) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return r.ServeListener(ctx, l, h)
}

// ServeListener is ServeUntil over an already-bound listener — the form
// tests use to grab an ephemeral port before serving.
func (r *Registry) ServeListener(ctx context.Context, l net.Listener, h http.Handler) error {
	if h == nil {
		h = r.SideMux()
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(shctx)
	}()
	err := srv.Serve(l)
	<-done // Shutdown owns closing the listener; wait so the port is free on return.
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// HealthzHandler answers liveness probes: 200 "ok" while ready() is true
// (or always, when ready is nil), 503 "draining" otherwise — the signal a
// load balancer needs to stop routing to an instance that entered graceful
// shutdown.
func HealthzHandler(ready func() bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ready != nil && !ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = io.WriteString(w, "draining\n")
			return
		}
		_, _ = io.WriteString(w, "ok\n")
	})
}
