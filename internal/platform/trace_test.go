package platform

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/workload"
)

// newTracedServer builds a platform server with a private 1/1 tracer, a
// private metrics registry, and a JSON logger writing into logBuf.
func newTracedServer(t *testing.T, rec *trace.Recorder, logBuf *bytes.Buffer) (*httptest.Server, *Client) {
	t.Helper()
	engine, err := adaptive.NewEngine(adaptive.Config{
		Xmax:    4,
		Rand:    rand.New(rand.NewSource(1)),
		Metrics: adaptive.NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	var logger *slog.Logger
	if logBuf != nil {
		logger, err = trace.NewLogger(logBuf, "debug", "json")
		if err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(ServerConfig{
		Engine:            engine,
		Universe:          universe,
		ReassignPerWorker: 2,
		ReassignTotal:     4,
		Metrics:           obs.NewRegistry(),
		Tracer:            rec,
		Logger:            logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	g, err := workload.NewGenerator(workload.Config{Seed: 3, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddTasks(g.Tasks(12, 5)); err != nil {
		t.Fatal(err)
	}
	return ts, client
}

// TestEndToEndTrace is the acceptance path: drive the platform until a
// completion triggers a warm re-assignment, then assert the final trace
// shows the endpoint root span, the adaptive iteration under it, and all
// four solver phases — one trace ID throughout — and that the same trace
// is retrievable from GET /debug/trace as Perfetto-loadable JSON.
func TestEndToEndTrace(t *testing.T) {
	rec := trace.NewRecorder(64, 1)
	var logBuf bytes.Buffer
	ts, client := newTracedServer(t, rec, &logBuf)

	tasks, err := client.Register("w1", sixKeywords(0))
	if err != nil {
		t.Fatal(err)
	}
	// Complete tasks until the platform re-assigns: the worker is warm by
	// then, so the iteration inside that request runs the full solver.
	var resp *CompleteResponse
	for i := 0; i < len(tasks) && (resp == nil || !resp.Reassigned); i++ {
		resp, err = client.Complete("w1", tasks[i].ID)
		if err != nil {
			t.Fatal(err)
		}
	}
	if resp == nil || !resp.Reassigned {
		t.Fatal("no completion triggered a re-assignment")
	}

	traces := rec.Snapshot(0)
	if len(traces) == 0 {
		t.Fatal("no traces recorded")
	}
	last := traces[len(traces)-1]
	spans := last.Spans()
	byName := map[string]int{}
	for _, sd := range spans {
		byName[sd.Name]++
	}
	if spans[0].Name != "POST /api/workers/{id}/complete" {
		t.Fatalf("root span = %q, want the complete endpoint", spans[0].Name)
	}
	for _, want := range []string{
		"adaptive.reestimate", "adaptive.iteration", "solver.run",
		"solver.matching", "solver.lsap", "solver.flip",
	} {
		if byName[want] == 0 {
			t.Fatalf("trace missing span %q; got %v", want, byName)
		}
	}

	// Every span of the trace shares the root's trace ID by construction;
	// the exported form must agree.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, []*trace.Trace{last}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				TraceID string `json:"trace_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != len(spans) {
		t.Fatalf("exported %d events for %d spans", len(out.TraceEvents), len(spans))
	}
	for _, ev := range out.TraceEvents {
		if ev.Args.TraceID != last.ID.String() {
			t.Fatalf("event %q trace_id = %s, want %s", ev.Name, ev.Args.TraceID, last.ID)
		}
	}

	// The same trace is served over HTTP from the debug mux.
	httpResp, err := http.Get(ts.URL + "/debug/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if httpResp.StatusCode != 200 || !json.Valid(body) {
		t.Fatalf("GET /debug/trace: %d, valid JSON %v", httpResp.StatusCode, json.Valid(body))
	}
	if !strings.Contains(string(body), "solver.lsap") {
		t.Fatal("served trace lacks solver phases")
	}

	// pprof rides on the same mux.
	pp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != 200 {
		t.Fatalf("GET /debug/pprof/cmdline: %d", pp.StatusCode)
	}

	// The request log is trace-correlated: the complete request's line
	// carries the trace ID of the recorded trace.
	if !strings.Contains(logBuf.String(), last.ID.String()) {
		t.Fatalf("request log lacks trace id %s:\n%s", last.ID, logBuf.String())
	}
}

// TestTraceHeaderAndSampling: sampled responses carry X-Trace-Id matching
// a retained trace; an all-off tracer adds no header and records nothing.
func TestTraceHeaderAndSampling(t *testing.T) {
	rec := trace.NewRecorder(8, 1)
	ts, _ := newTracedServer(t, rec, nil)
	resp, err := http.Get(ts.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hdr := resp.Header.Get("X-Trace-Id")
	if len(hdr) != 16 {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", hdr)
	}
	found := false
	for _, tr := range rec.Snapshot(0) {
		if tr.ID.String() == hdr {
			found = true
		}
	}
	if !found {
		t.Fatalf("header trace %s not among retained traces", hdr)
	}

	off := trace.NewRecorder(8, 0)
	ts2, _ := newTracedServer(t, off, nil)
	resp2, err := http.Get(ts2.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("disabled tracer set X-Trace-Id = %q", got)
	}
	if len(off.Snapshot(0)) != 0 {
		t.Fatal("disabled tracer recorded traces")
	}
}
