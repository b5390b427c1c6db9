package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "h", L("path", "/x"))
	b := r.Counter("hits_total", "h", L("path", "/x"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("hits_total", "h", L("path", "/y"))
	if a == c {
		t.Fatal("different labels must return a different counter")
	}
	// Label order must not matter.
	d := r.Gauge("multi", "", L("a", "1"), L("b", "2"))
	e := r.Gauge("multi", "", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatal("label order must not distinguish series")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid name")
		}
	}()
	r.Counter("bad name", "")
}

func TestConcurrentCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 10000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", DurationBuckets())
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000) // 1ms .. 1s uniform
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 0.001 || s.Max != 1.0 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	p50 := s.Quantile(0.5)
	// Log-spaced buckets give coarse absolute accuracy; p50 of uniform
	// (0,1] must land within the bucket containing 0.5.
	if p50 < 0.3 || p50 > 0.7 {
		t.Fatalf("p50 = %v, want ~0.5", p50)
	}
	if q0, q1 := s.Quantile(0), s.Quantile(1); q0 < s.Min || q1 > s.Max {
		t.Fatalf("q0/q1 = %v/%v outside [min,max]", q0, q1)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty_seconds", "", nil)
	s := h.Snapshot()
	if !math.IsNaN(s.Quantile(0.5)) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty histogram must report NaN quantiles and mean")
	}
}

func TestPrometheusRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests served", L("path", "/api/tasks")).Add(3)
	r.Gauge("inflight", "").Set(2)
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total requests served",
		"# TYPE req_total counter",
		`req_total{path="/api/tasks"} 3`,
		"# TYPE inflight gauge",
		"inflight 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 5.55",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q\n--- got:\n%s", want, out)
		}
	}
}

func TestJSONRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", L("k", "v")).Add(7)
	h := r.Histogram("h_seconds", "", nil)
	h.Observe(0.25)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []JSONFamily `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v\n%s", err, b.String())
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("families = %d, want 2", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "c_total" || *doc.Metrics[0].Series[0].Value != 7 {
		t.Fatalf("counter family mangled: %+v", doc.Metrics[0])
	}
	if doc.Metrics[0].Series[0].Labels["k"] != "v" {
		t.Fatalf("labels mangled: %+v", doc.Metrics[0].Series[0].Labels)
	}
	hs := doc.Metrics[1].Series[0]
	if *hs.Count != 1 || *hs.P50 < 0 {
		t.Fatalf("histogram series mangled: %+v", hs)
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("default content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Fatalf("text body = %q", rec.Body.String())
	}

	req = httptest.NewRequest("GET", "/metrics?format=json", nil)
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatal("json body invalid")
	}
}

func TestHealthz(t *testing.T) {
	ready := true
	h := HealthzHandler(func() bool { return ready })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || rec.Body.String() != "ok\n" {
		t.Fatalf("healthy: %d %q", rec.Code, rec.Body.String())
	}
	ready = false
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("draining: %d", rec.Code)
	}
}

func TestSetEnabled(t *testing.T) {
	defer SetEnabled(true)
	r := NewRegistry()
	c := r.Counter("gated_total", "")
	h := r.Histogram("gated_seconds", "", nil)
	SetEnabled(false)
	if Enabled() {
		t.Fatal("Enabled() must reflect the switch")
	}
	c.Inc()
	h.Observe(1)
	SetEnabled(true)
	if c.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("writes recorded while disabled")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("writes not recorded after re-enable")
	}
}
