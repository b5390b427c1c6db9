package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// countingBackend counts every StreamBackend call the handlers make.
type countingBackend struct {
	b     StreamBackend
	calls atomic.Int64
}

func (c *countingBackend) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	c.calls.Add(1)
	return c.b.OfferTaskCtx(ctx, t)
}

func (c *countingBackend) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	c.calls.Add(1)
	return c.b.AddWorkerCtx(ctx, w)
}

func (c *countingBackend) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	c.calls.Add(1)
	return c.b.RemoveWorkerCtx(ctx, id)
}

func (c *countingBackend) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	c.calls.Add(1)
	return c.b.CompleteCtx(ctx, workerID, taskID)
}

func (c *countingBackend) CompleteRead(ctx context.Context, workerID, taskID string) (shard.Completion, error) {
	c.calls.Add(1)
	return c.b.CompleteRead(ctx, workerID, taskID)
}

func (c *countingBackend) ActiveTasks(workerID string) ([]*core.Task, error) {
	c.calls.Add(1)
	return c.b.ActiveTasks(workerID)
}

func (c *countingBackend) Worker(workerID string) (*core.Worker, error) {
	c.calls.Add(1)
	return c.b.Worker(workerID)
}

func (c *countingBackend) Completed(workerID string) (int, error) {
	c.calls.Add(1)
	return c.b.Completed(workerID)
}

func (c *countingBackend) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	c.calls.Add(1)
	return c.b.SetTrust(workerID, trust)
}

func (c *countingBackend) Trust(workerID string) (float64, error) {
	c.calls.Add(1)
	return c.b.Trust(workerID)
}

func (c *countingBackend) SetWindow(workerID string, until int64) error {
	c.calls.Add(1)
	return c.b.SetWindow(workerID, until)
}

func (c *countingBackend) Window(workerID string) (int64, error) {
	c.calls.Add(1)
	return c.b.Window(workerID)
}

func (c *countingBackend) WorkerIDs() []string {
	c.calls.Add(1)
	return c.b.WorkerIDs()
}

func (c *countingBackend) Stats() shard.Stats {
	c.calls.Add(1)
	return c.b.Stats()
}

func (c *countingBackend) Objective() float64 {
	c.calls.Add(1)
	return c.b.Objective()
}

func (c *countingBackend) Snapshot(w io.Writer) error {
	c.calls.Add(1)
	return c.b.Snapshot(w)
}

// stripDisplay makes a node look like one that predates the display
// marker: every /cluster/batch result loses "display" and, with it, the
// display set a complete op carries.
type stripDisplay struct{ stripped atomic.Int64 }

func (s *stripDisplay) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/cluster/batch") || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var fr struct {
		Results []map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, err
	}
	for _, r := range fr.Results {
		if _, ok := r["display"]; ok {
			delete(r, "display")
			delete(r, "tasks")
			s.stripped.Add(1)
		}
	}
	if body, err = json.Marshal(fr); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// loopbackGateway fronts two one-shard nodes; rt carries its RPC traffic
// (nil for the default transport).
func loopbackGateway(t *testing.T, rt http.RoundTripper) *cluster.Gateway {
	t.Helper()
	var specs []cluster.PeerSpec
	for i := 0; i < 2; i++ {
		eng, err := shard.New(shard.Config{
			Shards: 1, StealInterval: -1, Registry: obs.NewRegistry(),
			Stream: stream.Config{Xmax: 3, BufferLimit: 64},
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("n%d", i)
		node, err := cluster.NewNode(cluster.NodeConfig{Name: name, Engine: eng, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node)
		t.Cleanup(func() { srv.Close(); eng.Close() })
		specs = append(specs, cluster.PeerSpec{Name: name, URL: srv.URL})
	}
	cfg := cluster.GatewayConfig{
		Peers: specs, HeartbeatInterval: -1, RetryBackoff: time.Millisecond,
		Registry: obs.NewRegistry(),
	}
	if rt != nil {
		cfg.HTTPClient = &http.Client{Transport: rt}
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// completionRun drives four workers through every task over backend and
// returns each completion's response. After every completion the display
// set it returned must equal what GET …/tasks returns right after it, and
// the handler must have made exactly one backend call. Over a gateway,
// each completion must also have sent frames RPC frames.
func completionRun(t *testing.T, backend StreamBackend, frames int64) []CompleteResponse {
	t.Helper()
	counted := &countingBackend{b: backend}
	srv, err := NewServer(ServerConfig{Shards: counted, Universe: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client())
	g, err := workload.NewGenerator(workload.Config{Seed: 7, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddTasks(g.Tasks(6, 5)); err != nil {
		t.Fatal(err)
	}
	workers := []string{"w1", "w2", "w3", "w4"}
	for i, id := range workers {
		if _, err := client.Register(id, sixKeywords(10*i)); err != nil {
			t.Fatal(err)
		}
	}
	var out []CompleteResponse
	for busy := true; busy; {
		busy = false
		for _, id := range workers {
			set, err := client.Tasks(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(set) == 0 {
				continue
			}
			busy = true
			before, sent := counted.calls.Load(), framesSent(backend)
			res, err := client.Complete(id, set[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			if n := counted.calls.Load() - before; n != 1 {
				t.Fatalf("completing %s/%s made %d backend calls, want 1", id, set[0].ID, n)
			}
			if n := framesSent(backend) - sent; n != frames {
				t.Fatalf("completing %s/%s sent %d frames, want %d", id, set[0].ID, n, frames)
			}
			after, err := client.Tasks(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Tasks, after) {
				t.Fatalf("completing %s/%s returned the set %+v, GET …/tasks then %+v", id, set[0].ID, res.Tasks, after)
			}
			if res.Alpha != 0.5 || res.Beta != 0.5 {
				t.Fatalf("completion of %s read alpha %v beta %v", id, res.Alpha, res.Beta)
			}
			out = append(out, *res)
		}
	}
	if len(out) != 30 {
		t.Fatalf("%d completions, want all 30 tasks", len(out))
	}
	return out
}

// framesSent is the gateway's RPC frame count, 0 for other backends.
func framesSent(b StreamBackend) int64 {
	if gw, ok := b.(*cluster.Gateway); ok {
		return gw.FramesSent()
	}
	return 0
}

// TestCompleteReturnsDisplaySet checks, over the engine with one and two
// shards and over a loopback gateway, that a completion's display set is
// the worker's set right after it, read in one backend call; through the
// gateway it costs one RPC frame.
func TestCompleteReturnsDisplaySet(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("engine-%d", shards), func(t *testing.T) {
			eng, err := shard.New(shard.Config{
				Shards: shards, StealInterval: -1, Registry: obs.NewRegistry(),
				Stream: stream.Config{Xmax: 3, BufferLimit: 64},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			completionRun(t, eng, 0)
		})
	}
	t.Run("gateway", func(t *testing.T) { completionRun(t, loopbackGateway(t, nil), 1) })
}

// TestCompleteFallsBackForOldNodes runs the same completions through a
// gateway whose nodes' results lose the display marker, as a node that
// predates it answers: the gateway reads the set with an active_tasks op
// and every CompleteResponse equals the one from current nodes.
func TestCompleteFallsBackForOldNodes(t *testing.T) {
	want := completionRun(t, loopbackGateway(t, nil), 1)
	strip := &stripDisplay{}
	got := completionRun(t, loopbackGateway(t, strip), 2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("completions through nodes without the marker:\n%+v\nwith it:\n%+v", got, want)
	}
	if n := strip.stripped.Load(); n != int64(len(got)) {
		t.Fatalf("stripped %d markers, want one per completion (%d)", n, len(got))
	}
}
