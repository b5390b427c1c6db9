package platform

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
)

// statusRecorder captures the response code written by a handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps one endpoint handler with the serving telemetry:
// request counter by endpoint+code, latency histogram by endpoint, the
// shared in-flight gauge, and — when the request wins the tracer's
// sampling draw — a root span propagated through the request context into
// the engine and solver, with the trace ID echoed in X-Trace-Id so a
// client can pull its own trace from /debug/trace. The endpoint label is
// the mux pattern, so path parameters ({id}) do not explode the series
// cardinality.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	reg := s.cfg.Metrics
	latency := reg.Histogram("hta_http_request_seconds",
		"request latency by endpoint", obs.DurationBuckets(), obs.L("endpoint", endpoint))
	inFlight := reg.Gauge("hta_http_in_flight", "requests currently being served")
	// The endpoint's success series, resolved by its first 2xx response
	// rather than up front, so /metrics lists only the codes served.
	var success atomic.Pointer[codeCounter]
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		ctx, span := s.cfg.Tracer.Start(r.Context(), endpoint,
			trace.Str("method", r.Method), trace.Str("path", r.URL.Path))
		if ctx != r.Context() {
			// Propagate even an unsampled decision: the sentinel in ctx
			// keeps downstream layers from opening fresh roots of their own.
			r = r.WithContext(ctx)
		}
		if span.Recorded() {
			w.Header().Set("X-Trace-Id", span.TraceID().String())
		}
		inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		span.SetAttrs(trace.Int("code", rec.status))
		span.End()
		latency.Observe(elapsed.Seconds())
		inFlight.Add(-1)
		if c := success.Load(); c != nil && c.code == rec.status {
			c.Inc()
		} else {
			c := reg.Counter("hta_http_requests_total", "requests served by endpoint and status code",
				obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(rec.status)))
			c.Inc()
			if rec.status < 300 {
				success.CompareAndSwap(nil, &codeCounter{code: rec.status, Counter: c})
			}
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("endpoint", endpoint), slog.Int("code", rec.status),
				slog.Duration("duration", elapsed))
		}
	}
}

// codeCounter is a request counter series with its status code.
type codeCounter struct {
	code int
	*obs.Counter
}

// draining flips when the process enters graceful shutdown; /healthz
// reports 503 from then on so load balancers stop routing here while
// in-flight assignments finish.
type drainState struct {
	flag atomic.Bool
}

// SetDraining marks the server as (un)draining; /healthz returns 503 while
// set. Safe to call from a signal handler goroutine.
func (s *Server) SetDraining(v bool) { s.drain.flag.Store(v) }

// Ready reports whether the server is accepting new work (not draining).
func (s *Server) Ready() bool { return !s.drain.flag.Load() }
