package platform

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/question"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

func newShardedServer(t *testing.T, shards, numTasks int) (*shard.Engine, *Client) {
	t.Helper()
	eng, err := shard.New(shard.Config{
		Shards:        shards,
		StealInterval: -1,
		Registry:      obs.NewRegistry(),
		Stream:        stream.Config{Xmax: 3, BufferLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := NewServer(ServerConfig{
		Shards:   eng,
		Universe: universe,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	if numTasks > 0 {
		g, err := workload.NewGenerator(workload.Config{Seed: 3, Universe: universe})
		if err != nil {
			t.Fatal(err)
		}
		if err := client.AddTasks(g.Tasks(numTasks/5+1, 5)[:numTasks]); err != nil {
			t.Fatal(err)
		}
	}
	return eng, client
}

func TestShardedServerConfigValidation(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 1, Registry: obs.NewRegistry(), Stream: stream.Config{Xmax: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	batch, _ := adaptive.NewEngine(adaptive.Config{Xmax: 3})
	if _, err := NewServer(ServerConfig{Engine: batch, Shards: eng, Universe: 10}); err == nil {
		t.Error("both engines accepted")
	}
	if _, err := NewServer(ServerConfig{Shards: eng}); err == nil {
		t.Error("zero universe accepted")
	}
	bank := question.NewBank()
	if _, err := NewServer(ServerConfig{Shards: eng, Universe: 10, Questions: bank}); err == nil {
		t.Error("questions accepted in sharded mode")
	}
}

// TestShardedWorkflow drives the full worker loop over the sharded
// backend: upload → register (drains backlog) → complete (pulls) →
// leave (requeues) → stats conserve globally.
func TestShardedWorkflow(t *testing.T) {
	eng, client := newShardedServer(t, 4, 0)

	// Upload before any workers: everything buffers.
	g, err := workload.NewGenerator(workload.Config{Seed: 5, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	tasks := g.Tasks(4, 5)
	if err := client.AddTasks(tasks); err != nil {
		t.Fatal(err)
	}
	if got := eng.BufferLen(); got != 20 {
		t.Fatalf("buffered %d of 20 uploaded tasks", got)
	}

	// Register: the new worker drains up to Xmax=3 tasks immediately.
	first, err := client.Register("w1", sixKeywords(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 {
		t.Fatalf("register drained %d tasks, want Xmax=3", len(first))
	}
	got, err := client.Tasks("w1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Tasks returned %d, want 3", len(got))
	}

	// Complete: frees a slot, which pulls from the worker's shard buffer.
	res, err := client.Complete("w1", got[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("after complete: %d active, want 3 (slot refilled from backlog)", len(res.Tasks))
	}
	if !res.Reassigned {
		t.Fatal("Reassigned = false though a buffered task was pulled")
	}
	for _, v := range res.Tasks {
		if v.ID == got[0].ID {
			t.Fatal("completed task still in display set")
		}
	}

	// Unknown worker and stale task IDs map to 404.
	if _, err := client.Tasks("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown worker: %v", err)
	}
	if _, err := client.Complete("w1", got[0].ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("completing a finished task: %v", err)
	}

	// Stats: conservation must hold over the HTTP surface.
	st, err := client.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Conserved {
		t.Fatalf("conservation violated: %+v", st.Stats)
	}
	if st.Shards != 4 || st.Submitted != 20 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st.Stats)
	}
	if len(st.WorkerSet) != 1 || st.WorkerSet[0].Completed != 1 {
		t.Fatalf("worker set: %+v", st.WorkerSet)
	}

	// Leave: active tasks requeue (buffer has room → none dropped).
	if err := client.Leave("w1"); err != nil {
		t.Fatal(err)
	}
	st, err = client.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 0 || !st.Conserved {
		t.Fatalf("after leave: %+v", st.Stats)
	}
}

func TestShardedRegisterValidation(t *testing.T) {
	_, client := newShardedServer(t, 2, 0)
	if _, err := client.Register("w1", []int{1, 2, 3}); err == nil {
		t.Error("fewer than 6 keywords accepted")
	}
	if _, err := client.Register("w1", []int{0, 1, 2, 3, 4, universe}); err == nil {
		t.Error("out-of-universe keyword accepted")
	}
	if _, err := client.Register("w1", sixKeywords(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("w1", sixKeywords(0)); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate registration: %v", err)
	}
}

func TestShardedAddTasksReportsDrops(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 2, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 1, BufferLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := NewServer(ServerConfig{Shards: eng, Universe: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.Register("w1", sixKeywords(0)); err != nil {
		t.Fatal(err)
	}
	g, _ := workload.NewGenerator(workload.Config{Seed: 9, Universe: universe})
	// 1 slot + 2 buffer spaces, 6 tasks → 1 assigned, 2 buffered, 3 dropped.
	if err := client.AddTasks(g.Tasks(2, 3)); err != nil {
		t.Fatal(err)
	}
	st, err := client.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Active != 1 || st.Buffered != 2 || st.Dropped != 3 || !st.Conserved {
		t.Fatalf("batch fate: %+v", st.Stats)
	}
}

// TestShardedSnapshotMergesShards: the server-level snapshot is the
// consistent merge of per-shard snapshots and round-trips through
// shard.Restore.
func TestShardedSnapshotMergesShards(t *testing.T) {
	eng, client := newShardedServer(t, 3, 30)
	for _, id := range []string{"w1", "w2", "w3"} {
		if _, err := client.Register(id, sixKeywords(rand.Intn(20))); err != nil {
			t.Fatal(err)
		}
	}
	srvSnap := func() *bytes.Buffer {
		var buf bytes.Buffer
		// Find the server through the engine-agnostic surface: rebuild a
		// Server around the same engine to call Snapshot, mirroring what
		// the hta-server shutdown path does.
		srv, err := NewServer(ServerConfig{Shards: eng, Universe: universe, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}()
	restored, err := shard.Restore(srvSnap, shard.Config{
		Shards: 3, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 3, BufferLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	want, got := eng.Stats(), restored.Stats()
	if want.Submitted != got.Submitted || want.Active != got.Active ||
		want.Buffered != got.Buffered || !got.Conserved() {
		t.Fatalf("snapshot round trip drifted:\n want %+v\n got  %+v", want, got)
	}
}

// chunkedCounter is a RoundTripper that counts the responses sent with
// chunked transfer encoding.
type chunkedCounter struct {
	next    http.RoundTripper
	chunked atomic.Int64
}

func (c *chunkedCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(req)
	if err == nil && len(resp.TransferEncoding) > 0 && resp.TransferEncoding[0] == "chunked" {
		c.chunked.Add(1)
	}
	return resp, err
}

// TestClientReusesConnection runs one client's whole session (successes,
// errors and a chunked response) over a transport limited to one
// connection, and checks that the server saw exactly one: the client
// reads every response to EOF, so net/http keeps the connection alive.
func TestClientReusesConnection(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards:        2,
		StealInterval: -1,
		Registry:      obs.NewRegistry(),
		Stream:        stream.Config{Xmax: 3, BufferLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	srv, err := NewServer(ServerConfig{Shards: eng, Universe: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	tr := &http.Transport{MaxConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	rt := &chunkedCounter{next: tr}
	client := NewClient(ts.URL, &http.Client{Transport: rt})

	// Enough workers that the stats response outgrows the server's
	// 2 KiB pre-chunking buffer.
	const workers = 40
	for i := 0; i < workers; i++ {
		if _, err := client.Register(fmt.Sprintf("w%d", i), sixKeywords(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := workload.NewGenerator(workload.Config{Seed: 5, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddTasks(g.Tasks(4, 5)); err != nil {
		t.Fatal(err)
	}
	stats, err := client.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.WorkerSet) != workers {
		t.Fatalf("stats list %d workers, want %d", len(stats.WorkerSet), workers)
	}
	if rt.chunked.Load() == 0 {
		t.Fatal("no response was chunked; the stats response went untested")
	}
	var worker string
	var active []TaskView
	for i := 0; i < workers && len(active) == 0; i++ {
		worker = fmt.Sprintf("w%d", i)
		if active, err = client.Tasks(worker); err != nil {
			t.Fatal(err)
		}
	}
	if len(active) == 0 {
		t.Fatal("no worker was assigned a task")
	}
	if _, err := client.Complete(worker, active[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := client.Leave(worker); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Complete("ghost", "t0"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("complete for an unknown worker: err = %v, want HTTP 404", err)
	}
	bad := &core.Task{ID: "bad", Keywords: bitset.FromIndices(universe+1, universe)}
	if err := client.AddTasks([]*core.Task{bad}); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("upload outside the universe: err = %v, want HTTP 400", err)
	}
	// One call after the errors, which would redial had they closed the
	// connection.
	if _, err := client.ShardStats(); err != nil {
		t.Fatal(err)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("the session opened %d connections, want 1", n)
	}
}
