package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/platform"
)

const testUniverse = 40

// newTestServer builds the same engine+platform wiring main assembles,
// with reassignment after every completion so the solver path (and its
// telemetry) is exercised immediately.
func newTestServer(t *testing.T, maxBody int64) (*platform.Server, *adaptive.Engine) {
	t.Helper()
	engine, err := adaptive.NewEngine(adaptive.Config{
		Xmax:             3,
		ExtraRandomTasks: 0,
		Rand:             rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := platform.NewServer(platform.ServerConfig{
		Engine:            engine,
		Universe:          testUniverse,
		ReassignPerWorker: 1,
		ReassignTotal:     1,
		MaxBodyBytes:      maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, engine
}

func genTasks(n int) []*core.Task {
	tasks := make([]*core.Task, n)
	for i := range tasks {
		tasks[i] = &core.Task{
			ID:       fmt.Sprintf("t%d", i),
			Reward:   0.05,
			Keywords: bitset.FromIndices(testUniverse, i%testUniverse, (i*7+3)%testUniverse, (i*11+5)%testUniverse),
		}
	}
	return tasks
}

// TestAssignmentRoundTrip drives the full worker loop over a real HTTP
// socket through the hardened listener: upload tasks, register, fetch,
// complete, stats.
func TestAssignmentRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	httpSrv := newHTTPServer("", srv, serverParams{
		readTimeout: 5 * time.Second, writeTimeout: 5 * time.Second, idleTimeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	client := platform.NewClient("http://"+ln.Addr().String(), nil)
	if err := client.AddTasks(genTasks(30)); err != nil {
		t.Fatal(err)
	}
	set, err := client.Register("w1", []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) == 0 {
		t.Fatal("registration returned no tasks")
	}
	resp, err := client.Complete("w1", set[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Reassigned {
		t.Fatal("ReassignPerWorker=1 must trigger reassignment on first completion")
	}
	if len(resp.Tasks) == 0 {
		t.Fatal("reassignment returned no tasks")
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iteration < 2 || len(stats.Workers) != 1 || stats.Workers[0].Completed != 1 {
		t.Fatalf("stats = %+v, want iteration >= 2 and one worker with one completion", stats)
	}
}

// TestMetricsEndpoint checks that after a solver-backed iteration the
// /metrics exposition carries the pipeline telemetry the ROADMAP
// acceptance names: solver phase histograms, stream queue depth, and
// per-endpoint request latency — and that both exposition formats parse.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := platform.NewClient(ts.URL, nil)
	if err := client.AddTasks(genTasks(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("w1", []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	set, err := client.Tasks("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Completing forces a warm iteration → the HTA solver runs → phase
	// histograms fill.
	if _, err := client.Complete("w1", set[0].ID); err != nil {
		t.Fatal(err)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	values := parsePrometheus(t, res.Body)
	// Solver ran at least once: the total-phase histogram has counts.
	if v := values[`hta_solver_phase_seconds_count{phase="total"}`]; v < 1 {
		t.Fatalf("solver total-phase count = %v, want >= 1\nseries: %v", v, keysWithPrefix(values, "hta_solver"))
	}
	for _, phase := range []string{"matching", "lsap", "flip"} {
		key := fmt.Sprintf("hta_solver_phase_seconds_count{phase=%q}", phase)
		if _, ok := values[key]; !ok {
			t.Fatalf("missing solver phase series %s", key)
		}
	}
	// Stream family is pre-registered (zero until a streaming deployment
	// exercises it) so the scrape surface is stable.
	if _, ok := values["hta_stream_queue_depth"]; !ok {
		t.Fatal("missing hta_stream_queue_depth")
	}
	// Per-endpoint serving telemetry. The default registry is process-wide
	// (other tests in this binary also drive servers), so the assertions
	// are lower bounds.
	if v := values[`hta_http_request_seconds_count{endpoint="POST /api/workers"}`]; v < 1 {
		t.Fatalf("register endpoint latency count = %v, want >= 1", v)
	}
	if v := values[`hta_http_requests_total{code="200",endpoint="POST /api/workers/{id}/complete"}`]; v < 1 {
		t.Fatalf("complete endpoint request counter = %v, want >= 1", v)
	}
	// Engine telemetry follows the iterations driven above.
	if v := values["hta_adaptive_iterations_total"]; v < 2 {
		t.Fatalf("adaptive iterations = %v, want >= 2", v)
	}

	// JSON twin must parse and carry the same families.
	res2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(res2.Body).Decode(&doc); err != nil {
		t.Fatalf("JSON exposition does not parse: %v", err)
	}
	names := make(map[string]bool)
	for _, m := range doc.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"hta_solver_phase_seconds", "hta_stream_queue_depth", "hta_http_request_seconds"} {
		if !names[want] {
			t.Fatalf("JSON exposition missing family %s", want)
		}
	}
}

// parsePrometheus reads text exposition lines into series → value.
func parsePrometheus(t *testing.T, r interface{ Read([]byte) (int, error) }) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func keysWithPrefix(m map[string]float64, prefix string) []string {
	var out []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// TestHealthzAndDraining: healthy server answers 200, a draining one 503.
func TestHealthzAndDraining(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("healthy /healthz status %d", res.StatusCode)
	}
	srv.SetDraining(true)
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status %d, want 503", res.StatusCode)
	}
}

// TestBodyLimit: a request body over MaxBodyBytes must be rejected, not
// buffered.
func TestBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t, 256)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	big := `{"tasks":[` + strings.Repeat(`{"id":"x","keywords":[1]},`, 100)
	big = strings.TrimSuffix(big, ",") + "]}"
	res, err := http.Post(ts.URL+"/api/tasks", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body status %d, want 400", res.StatusCode)
	}
}

// TestReadTimeout: a client that stalls mid-request is cut off by the
// listener's read deadline instead of pinning a connection forever.
func TestReadTimeout(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	httpSrv := newHTTPServer("", srv, serverParams{
		readTimeout: 150 * time.Millisecond, writeTimeout: time.Second, idleTimeout: time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send an incomplete request and stall past the read deadline.
	if _, err := conn.Write([]byte("POST /api/tasks HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1024)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // connection closed (possibly after a 408) — deadline enforced
		}
	}
}

// TestGracefulShutdown: shutdown drains in-flight requests to completion,
// flips /healthz to draining, and refuses new connections afterwards.
func TestGracefulShutdown(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	started := make(chan struct{})
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "done")
	})
	httpSrv := newHTTPServer("", mux, serverParams{
		readTimeout: 5 * time.Second, writeTimeout: 5 * time.Second, idleTimeout: time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	wg.Add(1)
	var slowBody string
	var slowErr error
	go func() {
		defer wg.Done()
		res, err := http.Get(base + "/slow")
		if err != nil {
			slowErr = err
			return
		}
		defer res.Body.Close()
		b := make([]byte, 16)
		n, _ := res.Body.Read(b)
		slowBody = string(b[:n])
	}()

	<-started
	if err := shutdownGracefully(httpSrv, srv, 5*time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("in-flight request was cut off: %v", slowErr)
	}
	if slowBody != "done" {
		t.Fatalf("in-flight response = %q, want %q", slowBody, "done")
	}
	if srv.Ready() {
		t.Fatal("server must report draining after shutdown")
	}
	// The drained server answers 503 on /healthz (checked handler-level —
	// the listener no longer accepts).
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown /healthz = %d, want 503", rec.Code)
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting connections after shutdown")
	}
}

// TestSnapshotRoundTrip covers main's snapshot save/restore path: a
// drained server's state written by writeAtomic must restore through
// openOrFresh.
func TestSnapshotRoundTrip(t *testing.T) {
	srv, engine := newTestServer(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := platform.NewClient(ts.URL, nil)
	if err := client.AddTasks(genTasks(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("w1", []int{0, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := writeAtomic(path, srv.Snapshot); err != nil {
		t.Fatal(err)
	}
	restored, wasRestored, err := openEngine(adaptive.Config{
		Xmax: 3, Rand: rand.New(rand.NewSource(7)),
	}, path)
	if err != nil {
		t.Fatal(err)
	}
	if !wasRestored {
		t.Fatal("existing snapshot must restore")
	}
	if restored.Iteration() != engine.Iteration() || restored.PoolSize() != engine.PoolSize() {
		t.Fatalf("restored (iter %d, pool %d) != live (iter %d, pool %d)",
			restored.Iteration(), restored.PoolSize(), engine.Iteration(), engine.PoolSize())
	}
	// Missing snapshot path starts fresh.
	fresh, wasRestored, err := openEngine(adaptive.Config{
		Xmax: 3, Rand: rand.New(rand.NewSource(7)),
	}, filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if wasRestored || fresh.Iteration() != 0 {
		t.Fatal("absent snapshot must start a fresh engine")
	}
}

// TestBatchSnapshotKeepsDeadlines runs main's batch -snapshot path over
// tasks with deadlines: the display set a worker reads after the restore
// must show the same deadline_ms it showed before.
func TestBatchSnapshotKeepsDeadlines(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	tasks := genTasks(30)
	due := time.Now().Add(time.Hour).UnixMilli() * int64(time.Millisecond)
	for i, task := range tasks {
		task.Deadline = due + int64(i)*int64(time.Millisecond)
	}
	client := platform.NewClient(ts.URL, nil)
	if err := client.AddTasks(tasks); err != nil {
		t.Fatal(err)
	}
	before, err := client.Register("w1", []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || before[0].DeadlineMS == 0 {
		t.Fatalf("display set before the snapshot = %+v, want deadlined tasks", before)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := writeAtomic(path, srv.Snapshot); err != nil {
		t.Fatal(err)
	}
	restored, wasRestored, err := openEngine(adaptive.Config{Xmax: 3, Rand: rand.New(rand.NewSource(7))}, path)
	if err != nil || !wasRestored {
		t.Fatalf("restore: %v (restored %v)", err, wasRestored)
	}
	srv2, err := platform.NewServer(platform.ServerConfig{Engine: restored, Universe: testUniverse})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	after, err := platform.NewClient(ts2.URL, nil).Tasks("w1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("display set changed across the snapshot:\n before %+v\n after  %+v", before, after)
	}
}

// openEngine is main's batch-mode openOrFresh call.
func openEngine(cfg adaptive.Config, path string) (*adaptive.Engine, bool, error) {
	return openOrFresh(path,
		func() (*adaptive.Engine, error) { return adaptive.NewEngine(cfg) },
		func(r io.Reader) (*adaptive.Engine, error) { return adaptive.Restore(r, cfg) })
}
