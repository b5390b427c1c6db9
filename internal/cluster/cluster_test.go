package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// testCluster is an in-process cluster: N node engines behind httptest
// servers, fronted by one gateway with the heartbeat loop disabled (tests
// drive CheckHealth for determinism).
type testCluster struct {
	gw      *Gateway
	nodes   []*Node
	engines []*shard.Engine
	servers []*httptest.Server
}

func newTestCluster(t *testing.T, n, shardsPer, bufferPer, xmax int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	specs := make([]PeerSpec, 0, n)
	for i := 0; i < n; i++ {
		eng, err := shard.New(shard.Config{
			Shards:        shardsPer,
			StealInterval: -1, // see the steal caveat in the Gateway doc
			Stream:        stream.Config{Xmax: xmax, BufferLimit: bufferPer},
			Registry:      obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("node %d engine: %v", i, err)
		}
		name := fmt.Sprintf("n%d", i)
		node, err := NewNode(NodeConfig{Name: name, Engine: eng})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := httptest.NewServer(node)
		tc.engines = append(tc.engines, eng)
		tc.nodes = append(tc.nodes, node)
		tc.servers = append(tc.servers, srv)
		specs = append(specs, PeerSpec{Name: name, URL: srv.URL})
	}
	gw, err := NewGateway(GatewayConfig{
		Peers:             specs,
		HeartbeatInterval: -1,
		FailAfter:         1,
		RetryBackoff:      time.Millisecond,
		Registry:          obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("gateway: %v", err)
	}
	tc.gw = gw
	t.Cleanup(func() {
		gw.Close()
		for i, srv := range tc.servers {
			srv.Close()
			tc.engines[i].Close()
		}
	})
	return tc
}

func testWorkload(t *testing.T, seed int64, workers, tasks int) ([]*core.Worker, []*core.Task) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Workers(workers), gen.Tasks(tasks/4+1, 4)[:tasks]
}

// checkConserved asserts the cluster-wide conservation law.
func checkConserved(t *testing.T, gw *Gateway, when string) shard.Stats {
	t.Helper()
	st := gw.Stats()
	if !st.Conserved() {
		t.Fatalf("%s: conservation broken: submitted=%d active=%d completed=%d buffered=%d dropped=%d",
			when, st.Submitted, st.Active, st.Completed, st.Buffered, st.Dropped)
	}
	return st
}

func TestClusterBasicFlow(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 1, 12, 40)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatalf("AddWorker(%s): %v", w.ID, err)
		}
	}
	if got := len(gw.WorkerIDs()); got != len(workers) {
		t.Fatalf("WorkerIDs: %d, want %d", got, len(workers))
	}
	assigned, buffered := 0, 0
	for _, task := range tasks {
		wid, err := gw.OfferTask(task)
		if err != nil {
			t.Fatalf("OfferTask(%s): %v", task.ID, err)
		}
		if wid != "" {
			assigned++
		} else {
			buffered++
		}
	}
	if assigned == 0 {
		t.Fatal("no task assigned")
	}
	st := checkConserved(t, gw, "after offers")
	if st.Submitted != int64(len(tasks)) {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, len(tasks))
	}
	if st.Active != assigned || st.Buffered != buffered {
		t.Fatalf("Active/Buffered = %d/%d, want %d/%d", st.Active, st.Buffered, assigned, buffered)
	}
	if st.Workers != len(workers) {
		t.Fatalf("Workers = %d, want %d", st.Workers, len(workers))
	}

	// Duplicate offers are rejected without counting Submitted.
	if _, err := gw.OfferTask(tasks[0]); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate offer: err = %v", err)
	}
	if got := gw.Stats().Submitted; got != int64(len(tasks)) {
		t.Fatalf("duplicate counted: Submitted = %d", got)
	}

	// Complete every active task via the gateway. Completions pull
	// buffered tasks back into freed slots — possibly onto a worker
	// drained earlier in the pass — so keep sweeping until a full pass
	// completes nothing.
	completed := 0
	for progress := true; progress; {
		progress = false
		for _, w := range workers {
			for {
				active, err := gw.ActiveTasks(w.ID)
				if err != nil {
					t.Fatalf("ActiveTasks(%s): %v", w.ID, err)
				}
				if len(active) == 0 {
					break
				}
				if _, err := gw.Complete(w.ID, active[0].ID); err != nil {
					t.Fatalf("Complete(%s, %s): %v", w.ID, active[0].ID, err)
				}
				completed++
				progress = true
			}
		}
	}
	st = checkConserved(t, gw, "after completions")
	if st.Active != 0 {
		t.Fatalf("drained cluster: Active=%d", st.Active)
	}
	// Tasks may legitimately remain buffered on a shard that never had a
	// worker (stealing is off in cluster tests); everything else is done.
	if st.Completed != int64(completed) || st.Completed != int64(len(tasks))-int64(st.Buffered) {
		t.Fatalf("Completed = %d (loop counted %d), want %d tasks - %d buffered",
			st.Completed, completed, len(tasks), st.Buffered)
	}
	if obj := gw.Objective(); obj != 0 {
		t.Fatalf("Objective of drained cluster = %g", obj)
	}
}

func TestClusterErrorMapping(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 2, 1)
	gw := tc.gw
	if _, err := gw.Complete("ghost", "t"); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("unknown worker error lost in transit: %v", err)
	}
	if _, err := gw.ActiveTasks("ghost"); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("ActiveTasks ghost: %v", err)
	}
	workers, tasks := testWorkload(t, 2, 1, 30)
	if _, err := gw.AddWorker(workers[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Complete(workers[0].ID, "never-offered"); err == nil || !strings.Contains(err.Error(), "not active") {
		t.Fatalf("not-active error lost in transit: %v", err)
	}
	// Fill the single worker (Xmax=1) and both nodes' buffers (2 each):
	// the sixth task must be rejected with the sentinel, and the
	// rejection counted by the gateway so conservation still holds.
	accepted := 0
	var sawFull bool
	for _, task := range tasks {
		_, err := gw.OfferTask(task)
		switch {
		case err == nil:
			accepted++
		case err == stream.ErrBufferFull:
			sawFull = true
		default:
			t.Fatalf("OfferTask: %v", err)
		}
		if sawFull {
			break
		}
	}
	if !sawFull {
		t.Fatal("never saw ErrBufferFull with tiny buffers")
	}
	if accepted != 1+2*2 {
		t.Fatalf("accepted %d tasks, want %d (1 active + 2 nodes x 2 buffer)", accepted, 5)
	}
	st := checkConserved(t, gw, "after overflow")
	if st.Dropped == 0 {
		t.Fatal("gateway did not count the rejected offer")
	}
}

func TestClusterConcurrentLoadConserves(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 128, 4)
	gw := tc.gw
	workers, tasks := testWorkload(t, 3, 24, 600)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	// G concurrent drivers interleave offers and completions — the batching
	// layer must coalesce them without losing or duplicating any op.
	const G = 8
	var wg sync.WaitGroup
	perDriver := len(tasks) / G
	for d := 0; d < G; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, task := range tasks[d*perDriver : (d+1)*perDriver] {
				if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
					t.Errorf("offer %s: %v", task.ID, err)
					return
				}
				w := workers[(d*7)%len(workers)]
				if active, err := gw.ActiveTasks(w.ID); err == nil && len(active) > 0 {
					// Completing a task another driver already completed is a
					// legal race; only transport errors are failures.
					if _, err := gw.Complete(w.ID, active[0].ID); err != nil &&
						!strings.Contains(err.Error(), "not active") {
						t.Errorf("complete: %v", err)
						return
					}
				}
			}
		}(d)
	}
	wg.Wait()
	st := checkConserved(t, gw, "after concurrent load")
	if st.Submitted != int64(G*perDriver) {
		t.Fatalf("Submitted = %d, want %d", st.Submitted, G*perDriver)
	}
	// The realized coalescing factor must show batching actually engaged.
	frames, ops := gw.FramesSent(), gw.OpsSent()
	if frames == 0 || ops <= frames {
		t.Fatalf("no coalescing: %d frames for %d ops", frames, ops)
	}
	t.Logf("coalescing: %d ops over %d frames (%.2f ops/frame)", ops, frames, float64(ops)/float64(frames))
}

func TestClusterFailoverRequeuesAndConserves(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 256, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 4, 18, 300)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
			t.Fatalf("offer: %v", err)
		}
	}
	before := checkConserved(t, gw, "before failover")

	// Kill node n1 mid-run: its HTTP server vanishes; the next health
	// check (FailAfter=1) must remove it from the ring and requeue its
	// pending tasks onto the survivors.
	victim := tc.engines[1].Stats()
	tc.servers[1].Close()
	gw.CheckHealth(context.Background())
	if got := gw.Members(); len(got) != 2 {
		t.Fatalf("members after failover = %v", got)
	}

	after := checkConserved(t, gw, "after failover")
	if after.Submitted != before.Submitted {
		t.Fatalf("Submitted changed across failover: %d -> %d", before.Submitted, after.Submitted)
	}
	if after.Workers != before.Workers-victim.Workers {
		t.Fatalf("Workers = %d, want %d - %d", after.Workers, before.Workers, victim.Workers)
	}
	// The victim's pending tasks are requeued (now active or buffered on
	// survivors) or counted dropped — none simply vanish.
	pendingVictim := victim.Active + victim.Buffered
	accountedAfter := after.Active + after.Buffered + int(after.Dropped-before.Dropped)
	accountedBefore := before.Active + before.Buffered
	if accountedAfter != accountedBefore {
		t.Fatalf("failover lost tasks: active+buffered+newdrops %d, want %d (victim held %d)",
			accountedAfter, accountedBefore, pendingVictim)
	}

	// Ops against the dead node's workers now fail cleanly; the survivors
	// keep serving, and completing everything still balances the books.
	for _, w := range workers {
		active, err := gw.ActiveTasks(w.ID)
		if err != nil {
			continue // worker lived on the dead node
		}
		for len(active) > 0 {
			if _, err := gw.Complete(w.ID, active[0].ID); err != nil {
				t.Fatalf("post-failover complete: %v", err)
			}
			active, err = gw.ActiveTasks(w.ID)
			if err != nil {
				t.Fatalf("post-failover active: %v", err)
			}
		}
	}
	final := checkConserved(t, gw, "after draining survivors")
	if final.Active != 0 {
		t.Fatalf("Active = %d after drain", final.Active)
	}
}

func TestClusterAllNodesDead(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 16, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 5, 4, 20)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks[:10] {
		if _, err := gw.OfferTask(task); err != nil {
			t.Fatalf("offer: %v", err)
		}
	}
	tc.servers[0].Close()
	tc.servers[1].Close()
	gw.CheckHealth(context.Background())
	if got := gw.Members(); len(got) != 0 {
		t.Fatalf("members = %v, want none", got)
	}
	if _, err := gw.OfferTask(tasks[10]); err == nil {
		t.Fatal("offer succeeded with no live nodes")
	}
	if _, err := gw.AddWorker(workers[0]); err == nil {
		t.Fatal("register succeeded with no live nodes")
	}
	// Everything pending died with the nodes: all non-completed submitted
	// tasks are dropped, and the books still balance.
	st := checkConserved(t, gw, "after total failure")
	if st.Active != 0 || st.Buffered != 0 {
		t.Fatalf("ghost state: Active=%d Buffered=%d", st.Active, st.Buffered)
	}
}

func TestClusterJoinTakesNewWorkers(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 6, 16, 60)
	half := workers[:8]
	for _, w := range half {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks[:30] {
		if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	before := checkConserved(t, gw, "before join")

	// Join a fresh third node.
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Name: "n2", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	t.Cleanup(func() { srv.Close(); eng.Close() })
	if err := gw.AddNode("n2", srv.URL); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if got := gw.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v", got)
	}
	if err := gw.AddNode("n2", srv.URL); err == nil {
		t.Fatal("duplicate join accepted")
	}

	// Existing workers stay pinned: every pre-join worker still answers.
	for _, w := range half {
		if _, err := gw.ActiveTasks(w.ID); err != nil {
			t.Fatalf("pre-join worker %s broken by join: %v", w.ID, err)
		}
	}
	// New workers spread over three nodes; some land on the joiner.
	for _, w := range workers[8:] {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().Workers == 0 {
		t.Fatal("joined node received no new workers (16 post-join registrations)")
	}
	for _, task := range tasks[30:] {
		if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	after := checkConserved(t, gw, "after join")
	if after.Workers != len(workers) {
		t.Fatalf("Workers = %d, want %d", after.Workers, len(workers))
	}
	if after.Submitted <= before.Submitted {
		t.Fatalf("Submitted did not grow: %d -> %d", before.Submitted, after.Submitted)
	}
}

// TestClusterSnapshotMergedCut: the gateway's snapshot is one engine
// document, a consistent cut of every node, and a single engine restores
// it at any shard count with the cluster's accounting.
func TestClusterSnapshotMergedCut(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 7, 9, 50)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	for _, w := range workers[:4] {
		if active, err := gw.ActiveTasks(w.ID); err == nil && len(active) > 0 {
			if _, err := gw.Complete(w.ID, active[0].ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := gw.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	doc, err := shard.ReadCut(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("cluster snapshot does not read: %v", err)
	}
	if doc.Shards != 3*2 || len(doc.PerShard) != 3*2 {
		t.Fatalf("doc: shards=%d entries=%d, want 6 (3 nodes x 2 shards)", doc.Shards, len(doc.PerShard))
	}
	st := gw.Stats()
	if st.Completed == 0 || doc.Submitted != st.Submitted || doc.Completed != st.Completed {
		t.Fatalf("doc counters (%d, %d) != stats (%d, %d)",
			doc.Submitted, doc.Completed, st.Submitted, st.Completed)
	}
	for _, shards := range []int{1, 4} {
		eng, err := shard.Restore(bytes.NewReader(buf.Bytes()), shard.Config{
			Shards: shards, StealInterval: -1,
			Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		rst := eng.Stats()
		eng.Close()
		if !rst.Conserved() || rst.Submitted != st.Submitted || rst.Completed != st.Completed ||
			rst.Active != st.Active || rst.Buffered != st.Buffered ||
			rst.Dropped != st.Dropped || rst.Expired != st.Expired {
			t.Fatalf("restored at %d shards: %+v\nlive cluster: %+v", shards, rst, st)
		}
	}
}

// TestClusterSnapshotFailedNodeCut: a node whose cut fails answers an
// error status, not a document, and the gateway's Snapshot fails naming
// the node.
func TestClusterSnapshotFailedNodeCut(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 16, 2)
	tc.engines[1].Close()
	resp, err := http.Get(tc.servers[1].URL + "/cluster/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed node's snapshot: HTTP %d, want 503", resp.StatusCode)
	}
	var buf bytes.Buffer
	err = tc.gw.Snapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "n1") {
		t.Fatalf("Snapshot with n1 closed: err=%v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("failed Snapshot wrote %d bytes", buf.Len())
	}
}

func TestNodeFrameReplayDedup(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n0", Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()

	workers, tasks := testWorkload(t, 8, 1, 2)
	if _, err := eng.AddWorker(workers[0]); err != nil {
		t.Fatal(err)
	}
	rec := core.RecordOf(tasks[0])
	frame := Frame{ID: "frame-replay-1", Ops: []Op{{Op: opCommit, Task: &rec}}}
	post := func() FrameResult {
		t.Helper()
		body, _ := json.Marshal(frame)
		resp, err := http.Post(srv.URL+"/cluster/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out FrameResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post()
	if len(first.Results) != 1 || !first.Results[0].OK {
		t.Fatalf("first application: %+v", first)
	}
	// The same frame again: replayed from cache, not re-applied — the
	// engine must still count exactly one submission.
	second := post()
	if len(second.Results) != 1 || !second.Results[0].OK ||
		second.Results[0].WorkerID != first.Results[0].WorkerID {
		t.Fatalf("replay mismatch: %+v vs %+v", second, first)
	}
	if st := eng.Stats(); st.Submitted != 1 {
		t.Fatalf("retried frame double-applied: Submitted = %d", st.Submitted)
	}
	// A different frame ID with the same op is a genuine duplicate task,
	// but a node keeps no filter — the gateway owns global dedup. What
	// must hold: a fresh frame re-applies (at-least-once only when IDs
	// differ).
	frame.ID = "frame-replay-2"
	third := post()
	if third.Results[0].OK {
		// Same task committed twice under distinct frame IDs — allowed at
		// node level (the gateway's filter prevents it in practice), but
		// it must be visible in the books.
		if st := eng.Stats(); st.Submitted != 2 {
			t.Fatalf("second commit invisible: Submitted = %d", st.Submitted)
		}
	}
}

func TestPeerPipelineWindowRecoversAfterErrors(t *testing.T) {
	// A node that 500s every request: the peer must resolve every call
	// with an error (no hangs, no leaked window slots), and keep working
	// after the node recovers.
	var failing sync.Map
	failing.Store("on", true)
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, _ := NewNode(NodeConfig{Name: "n0", Engine: eng})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if on, _ := failing.Load("on"); on.(bool) {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		node.ServeHTTP(w, r)
	}))
	defer srv.Close()
	p := newPeer("n0", srv.URL, srv.Client(), obs.NewRegistry(), 8, 2, 2, time.Millisecond)
	defer p.close()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.doCtx(context.Background(), Op{Op: opWorkers}); err == nil {
				t.Error("op succeeded against a 500ing node")
			}
		}()
	}
	wg.Wait()
	failing.Store("on", false)
	// Window slots must all be free again: window+1 concurrent ops succeed.
	for i := 0; i < 3; i++ {
		if _, err := p.doCtx(context.Background(), Op{Op: opWorkers}); err != nil {
			t.Fatalf("op after recovery: %v", err)
		}
	}
}

// TestClusterTrustRoundTrip: trust set through the gateway RPC lands on
// the owning node, reads back, and survives the cluster's snapshot
// restored into one engine at a *different* shard count.
func TestClusterTrustRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 3, 2, 64, 2)
	gw := tc.gw
	workers, tasks := testWorkload(t, 13, 9, 30)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
			t.Fatal(err)
		}
	}
	// A spread of values, including an exact 0 (quarantine) — the wire
	// encoding must not drop the zero.
	want := map[string]float64{}
	for i, w := range workers {
		v := []float64{0.9, 0.35, 0, 0.7}[i%4]
		if _, err := gw.SetTrust(w.ID, v); err != nil {
			t.Fatalf("SetTrust(%s): %v", w.ID, err)
		}
		want[w.ID] = v
	}
	for id, v := range want {
		got, err := gw.Trust(id)
		if err != nil {
			t.Fatalf("Trust(%s): %v", id, err)
		}
		if got != v {
			t.Fatalf("worker %s: trust %v over RPC, want %v", id, got, v)
		}
	}
	if _, err := gw.SetTrust("ghost", 1); err == nil {
		t.Fatal("SetTrust on unknown worker accepted")
	}

	var buf bytes.Buffer
	if err := gw.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	eng, err := shard.Restore(&buf, shard.Config{
		Shards: 5, StealInterval: -1, // re-shard 3 nodes x 2 shards → 5 on restore
		Stream:   stream.Config{Xmax: 2, BufferLimit: 64},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("restore of the cluster's cut: %v", err)
	}
	defer eng.Close()
	for id, v := range want {
		got, err := eng.Trust(id)
		if err != nil {
			t.Fatalf("worker %s after restore: %v", id, err)
		}
		if got != v {
			t.Fatalf("worker %s: trust %v after restore, want %v", id, got, v)
		}
	}
}

// TestGatewayAllFullSendsNoCommit pins the gateway's fallback rule, the
// same decision the engine makes: an offer that finds every node full
// costs one score op per node and one buffer op, and no commit op.
func TestGatewayAllFullSendsNoCommit(t *testing.T) {
	tc := newTestCluster(t, 3, 1, 64, 1)
	gw := tc.gw
	workers, tasks := testWorkload(t, 5, 6, 16)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	buffered := 0
	for _, task := range tasks {
		before := gw.OpsSent()
		wid, err := gw.OfferTask(task)
		if err != nil {
			t.Fatalf("OfferTask(%s): %v", task.ID, err)
		}
		if wid != "" {
			continue
		}
		// With one client nothing frees a slot mid-offer, so a buffered
		// offer found every node full.
		buffered++
		if sent := gw.OpsSent() - before; sent != 3+1 {
			t.Fatalf("buffered offer %s sent %d ops, want 3 scores + 1 buffer", task.ID, sent)
		}
	}
	if buffered < 2 {
		t.Fatalf("only %d of %d offers buffered; the fallback went untested", buffered, len(tasks))
	}
	checkConserved(t, gw, "after offers")
}

// TestGatewayWorkerReadsFromPin checks that the gateway answers worker
// reads from the record it pinned at registration, without an RPC, and
// that the copy goes when the pin does.
func TestGatewayWorkerReadsFromPin(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 16, 2)
	gw := tc.gw
	workers, _ := testWorkload(t, 7, 4, 4)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	sameWorker := func(got, want *core.Worker) bool {
		return got.ID == want.ID && got.Alpha == want.Alpha && got.Beta == want.Beta &&
			slices.Equal(got.Keywords.Indices(), want.Keywords.Indices())
	}
	frames := gw.FramesSent()
	for _, w := range workers {
		got, err := gw.Worker(w.ID)
		if err != nil {
			t.Fatalf("Worker(%s): %v", w.ID, err)
		}
		if !sameWorker(got, w) {
			t.Fatalf("Worker(%s) = %+v, want %+v", w.ID, got, w)
		}
	}
	if sent := gw.FramesSent() - frames; sent != 0 {
		t.Fatalf("pinned worker reads sent %d frames, want 0", sent)
	}

	// Leaving and registering again with other keywords replaces the copy.
	w0 := workers[0]
	if _, err := gw.RemoveWorker(w0.ID); err != nil {
		t.Fatal(err)
	}
	again := &core.Worker{ID: w0.ID, Keywords: workers[1].Keywords, Alpha: workers[1].Alpha, Beta: workers[1].Beta}
	if _, err := gw.AddWorker(again); err != nil {
		t.Fatal(err)
	}
	if got, err := gw.Worker(w0.ID); err != nil || !sameWorker(got, again) {
		t.Fatalf("Worker(%s) after re-registration = %+v, %v; want %+v", w0.ID, got, err, again)
	}

	// A gateway that never saw the registrations asks the owner once per
	// worker and keeps the answer.
	specs := make([]PeerSpec, len(tc.servers))
	for i, srv := range tc.servers {
		specs[i] = PeerSpec{Name: fmt.Sprintf("n%d", i), URL: srv.URL}
	}
	gw2, err := NewGateway(GatewayConfig{Peers: specs, HeartbeatInterval: -1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw2.Close() })
	w1 := workers[1]
	for round, want := range []int64{1, 0} {
		frames := gw2.FramesSent()
		got, err := gw2.Worker(w1.ID)
		if err != nil || !sameWorker(got, w1) {
			t.Fatalf("round %d: Worker(%s) = %+v, %v; want %+v", round, w1.ID, got, err, w1)
		}
		if sent := gw2.FramesSent() - frames; sent != want {
			t.Fatalf("round %d: Worker(%s) sent %d frames, want %d", round, w1.ID, sent, want)
		}
	}

	// A worker whose node is marked down gets ErrPeerDown, not its copy:
	// the liveness check runs before the pin is read. dropNode marks the
	// peer down before it unpins the node's workers.
	owner, _ := gw2.owner(w1.ID)
	owner.markDown()
	if _, err := gw2.Worker(w1.ID); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("Worker(%s) on a down node: err = %v, want ErrPeerDown", w1.ID, err)
	}

	// Once the node is dropped, its workers' copies are gone with their
	// pins: the read goes to the ring's new owner, which never heard of
	// them.
	victim := ownerName(gw, w1.ID)
	for i, srv := range tc.servers {
		if specs[i].Name == victim {
			srv.Close()
		}
	}
	gw.CheckHealth(context.Background())
	if got, err := gw.Worker(w1.ID); err == nil {
		t.Fatalf("Worker(%s) after its node was dropped = %+v, want an error", w1.ID, got)
	}
}

// ownerName is the name of the node that serves the worker's calls.
func ownerName(gw *Gateway, workerID string) string {
	p, err := gw.owner(workerID)
	if err != nil {
		return ""
	}
	return p.name
}
