package cluster

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// Node is the server half of the cluster RPC protocol: an http.Handler
// that applies batched op frames to the local shard.Engine. Mount it
// alongside the public API (hta-server -node does this under /cluster/).
//
// Routes:
//
//	POST /cluster/batch    apply a frame of ops; returns index-aligned results
//	GET  /cluster/health   liveness + load picture (the heartbeat target)
//	GET  /cluster/snapshot the node's quiesced engine snapshot (merge input)
type Node struct {
	Name    string
	eng     *shard.Engine
	mux     *http.ServeMux
	frames  *frameCache
	tracer  *trace.Recorder
	journal *ops.Journal

	dedupHits *obs.Counter
}

// NodeConfig parameterizes a Node.
type NodeConfig struct {
	// Name is this node's cluster member name (must match the gateway's
	// -peers entry).
	Name string
	// Engine is the local sharded streaming engine the ops apply to.
	Engine *shard.Engine
	// FrameCache bounds the replay-dedup cache: the last N frame
	// responses are kept so a retried frame replays instead of
	// re-applying. Default 1024.
	FrameCache int
	// Tracer records node-side apply spans for ops that carry a sampled
	// trace context (trace.Default() when nil). The gateway pulls this
	// ring's wire form when stitching cluster traces.
	Tracer *trace.Recorder
	// Registry receives the node's RPC instruments (obs.Default() when
	// nil).
	Registry *obs.Registry
	// Journal receives node-side operational events, e.g. snapshot cuts
	// (ops.Default() when nil).
	Journal *ops.Journal
}

// NewNode validates the configuration and builds the handler.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("cluster: node needs a name")
	}
	if cfg.Engine == nil {
		return nil, errors.New("cluster: node needs an engine")
	}
	if cfg.FrameCache == 0 {
		cfg.FrameCache = 1024
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Journal == nil {
		cfg.Journal = ops.Default()
	}
	n := &Node{
		Name: cfg.Name, eng: cfg.Engine, frames: newFrameCache(cfg.FrameCache),
		tracer: cfg.Tracer, journal: cfg.Journal,
		dedupHits: cfg.Registry.Counter("hta_cluster_replay_dedup_hits_total",
			"retried frames answered from the replay cache instead of re-applying"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/batch", n.handleBatch)
	mux.HandleFunc("GET /cluster/health", n.handleHealth)
	mux.HandleFunc("GET /cluster/snapshot", n.handleSnapshot)
	n.mux = mux
	return n, nil
}

// ServeHTTP implements http.Handler.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Health is the body of GET /cluster/health: enough of the node's load
// picture for the gateway to track membership and fold the node's
// internal drop count into the global accounting.
type Health struct {
	Node      string `json:"node"`
	Shards    int    `json:"shards"`
	Workers   int    `json:"workers"`
	Active    int    `json:"active"`
	Backlog   int    `json:"backlog"`
	Free      int    `json:"free"`
	Dropped   int64  `json:"dropped"`
	Completed int64  `json:"completed"`
}

func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Heartbeats propagate trace context in headers (there is no frame to
	// carry it); a sampled probe records its node-side handling.
	if sc, err := trace.ParseSpanContext(r.Header.Get("X-Trace-Id"), r.Header.Get("X-Span-Id")); err == nil && sc.Valid() {
		_, sp := n.tracer.StartRemote(r.Context(), sc, "node.health", trace.Str("node", n.Name))
		defer sp.End()
	}
	st := n.eng.Stats()
	h := Health{
		Node: n.Name, Shards: st.Shards, Workers: st.Workers,
		Active: st.Active, Backlog: st.Buffered,
		Free: n.eng.FreeCapacity(), Dropped: st.Dropped, Completed: st.Completed,
	}
	buf, err := encodeJSON(h)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer putBuf(buf)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	n.journal.Emit(ops.EventSnapshot, n.Name)
	w.Header().Set("Content-Type", "application/json")
	if err := n.eng.Snapshot(w); err != nil {
		// Headers are gone; the gateway detects the truncated document.
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
	}
}

// maxFrameBytes bounds a /cluster/batch body: the platform's default
// MaxBodyBytes. hta-server -node mounts the node outside the platform's
// body limit, so the node applies its own.
const maxFrameBytes = 8 << 20

func (n *Node) handleBatch(w http.ResponseWriter, r *http.Request) {
	frame, err := readFrame(w, r)
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")

	// Replay dedup: a frame ID seen before returns the cached response
	// bytes; an in-progress duplicate waits for the first application to
	// finish rather than racing it.
	if frame.ID != "" {
		if cached, inflight := n.frames.begin(frame.ID); cached != nil {
			n.dedupHits.Inc()
			_, _ = w.Write(cached)
			return
		} else if inflight != nil {
			<-inflight
			if cached, _ := n.frames.begin(frame.ID); cached != nil {
				n.dedupHits.Inc()
				_, _ = w.Write(cached)
				return
			}
			// The first application failed to record (encode error);
			// fall through and apply — ops are then at-least-once.
		}
	}

	res := FrameResult{Results: make([]OpResult, len(frame.Ops))}
	for i := range frame.Ops {
		res.Results[i] = n.apply(r.Context(), &frame.Ops[i])
	}
	buf, err := encodeJSON(&res)
	if err != nil {
		n.frames.abort(frame.ID)
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	defer putBuf(buf)
	if frame.ID != "" {
		n.frames.commit(frame.ID, buf.Bytes())
	}
	_, _ = w.Write(buf.Bytes())
}

// readFrame reads a request body of at most maxFrameBytes through a
// pooled buffer and decodes its first JSON value: through the frame codec,
// or, when it declines, through json.Decoder.Decode, which ignores what
// follows the value.
func readFrame(w http.ResponseWriter, r *http.Request) (Frame, error) {
	var frame Frame
	b := getBuf()
	defer putBuf(b)
	if _, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, maxFrameBytes)); err != nil {
		return frame, err
	}
	if decodeFrame(b.Bytes(), &frame) {
		return frame, nil
	}
	err := json.NewDecoder(bytes.NewReader(b.Bytes())).Decode(&frame)
	return frame, err
}

// apply runs one op against the engine. An op carrying a sampled trace
// context (propagated from the gateway's RPC span) joins that trace: a
// "node.apply" span wraps decode + engine work, and ctx-aware engine
// paths nest their own spans beneath it, so the stitched cluster trace
// shows gateway coalescing, wire time, and shard apply in one tree.
func (n *Node) apply(ctx context.Context, op *Op) OpResult {
	if op.Span != nil {
		if sc, err := trace.ParseSpanContext(op.Span.TraceID, op.Span.SpanID); err == nil && sc.Valid() {
			var sp *trace.Span
			ctx, sp = n.tracer.StartRemote(ctx, sc, "node.apply",
				trace.Str("node", n.Name), trace.Str("op", op.Op))
			defer sp.End()
		}
	}
	return n.applyOp(ctx, op)
}

func (n *Node) applyOp(ctx context.Context, op *Op) OpResult {
	fail := func(err error) OpResult {
		r := OpResult{Err: err.Error()}
		switch {
		case errors.Is(err, stream.ErrBufferFull):
			r.Code = codeFull
		case errors.Is(err, shard.ErrClosed):
			r.Code = codeClosed
		}
		return r
	}
	switch op.Op {
	case opScore:
		if op.Task == nil {
			return fail(errors.New("cluster: score without task"))
		}
		t, err := wireToTask(*op.Task)
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("task", t.ID))
		gain, rel, free := n.eng.BestGain(t)
		trace.Event(ctx, "node.score", trace.Float("gain", gain), trace.Bool("free", free))
		return OpResult{OK: true, Gain: gain, Rel: rel, Free: free, Backlog: n.eng.BufferLen()}
	case opCommit:
		if op.Task == nil {
			return fail(errors.New("cluster: commit without task"))
		}
		t, err := wireToTask(*op.Task)
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("task", t.ID))
		wid, ok := n.eng.TryAssign(t)
		trace.Event(ctx, "node.commit", trace.Str("worker", wid), trace.Bool("ok", ok))
		return OpResult{OK: ok, WorkerID: wid}
	case opBuffer:
		if op.Task == nil {
			return fail(errors.New("cluster: buffer without task"))
		}
		t, err := wireToTask(*op.Task)
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("task", t.ID))
		if err := n.eng.BufferAny(t); err != nil {
			return fail(err)
		}
		return OpResult{OK: true}
	case opComplete:
		next, err := n.eng.CompleteCtx(ctx, op.WorkerID, op.TaskID)
		if err != nil {
			return fail(err)
		}
		r := OpResult{OK: true}
		if next != nil {
			tw := taskToWire(next)
			r.Next = &tw
		}
		return r
	case opAddWorker:
		if op.Worker == nil {
			return fail(errors.New("cluster: add_worker without worker"))
		}
		wk, err := wireToWorker(*op.Worker)
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("worker", wk.ID))
		drained, err := n.eng.AddWorkerCtx(ctx, wk)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Tasks: tasksToWire(drained)}
	case opRemoveWorker:
		dropped, err := n.eng.RemoveWorkerCtx(ctx, op.WorkerID)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Tasks: tasksToWire(dropped)}
	case opActiveTasks:
		tasks, err := n.eng.ActiveTasks(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Tasks: tasksToWire(tasks)}
	case opWorker:
		wk, err := n.eng.Worker(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		ww := workerToWire(wk)
		return OpResult{OK: true, Worker: &ww}
	case opCompleted:
		c, err := n.eng.Completed(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Count: c}
	case opSetTrust:
		if op.Trust == nil {
			return fail(errors.New("cluster: set_trust without value"))
		}
		drained, err := n.eng.SetTrust(op.WorkerID, *op.Trust)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Tasks: tasksToWire(drained)}
	case opTrust:
		v, err := n.eng.Trust(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Value: v}
	case opSetWindow:
		if op.Window == nil {
			return fail(errors.New("cluster: set_window without value"))
		}
		if err := n.eng.SetWindow(op.WorkerID, *op.Window); err != nil {
			return fail(err)
		}
		return OpResult{OK: true}
	case opWindow:
		until, err := n.eng.Window(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		return OpResult{OK: true, Until: until}
	case opWorkers:
		return OpResult{OK: true, IDs: n.eng.WorkerIDs()}
	case opStats:
		st := n.eng.Stats()
		return OpResult{OK: true, Stats: &st}
	case opObjective:
		return OpResult{OK: true, Value: n.eng.Objective()}
	default:
		return fail(fmt.Errorf("cluster: unknown op %q", op.Op))
	}
}

func tasksToWire(ts []*core.Task) []taskWire {
	if len(ts) == 0 {
		return nil
	}
	out := make([]taskWire, 0, len(ts))
	for _, t := range ts {
		out = append(out, taskToWire(t))
	}
	return out
}

// frameCache is the bounded replay-dedup store: frame ID → encoded
// response, FIFO-evicted. begin returns either the cached bytes, or a
// channel to wait on when the same frame is being applied right now, or
// (nil, nil) when the caller should apply the frame itself.
type frameCache struct {
	mu    sync.Mutex
	cap   int
	done  map[string][]byte
	infly map[string]chan struct{}
	order *list.List // frame IDs in completion order
}

func newFrameCache(capacity int) *frameCache {
	return &frameCache{
		cap:   capacity,
		done:  make(map[string][]byte, capacity),
		infly: make(map[string]chan struct{}),
		order: list.New(),
	}
}

func (c *frameCache) begin(id string) (cached []byte, inflight <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.done[id]; ok {
		return b, nil
	}
	if ch, ok := c.infly[id]; ok {
		return nil, ch
	}
	c.infly[id] = make(chan struct{})
	return nil, nil
}

func (c *frameCache) commit(id string, response []byte) {
	cp := append([]byte(nil), response...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.infly[id]; ok {
		close(ch)
		delete(c.infly, id)
	}
	if _, ok := c.done[id]; !ok {
		c.done[id] = cp
		c.order.PushBack(id)
		for c.order.Len() > c.cap {
			old := c.order.Remove(c.order.Front()).(string)
			delete(c.done, old)
		}
	}
}

func (c *frameCache) abort(id string) {
	if id == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ch, ok := c.infly[id]; ok {
		close(ch)
		delete(c.infly, id)
	}
}
