package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/replay"
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
//	GET  /cluster/snapshot the node's engine snapshot, a consistent cut (a gateway part's Cut)
type Node struct {
	Name    string
	eng     *shard.Engine
	mux     *http.ServeMux
	frames  *replay.Store[[]byte]
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
		Name: cfg.Name, eng: cfg.Engine, frames: replay.New[[]byte](cfg.FrameCache),
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

// handleSnapshot cuts the engine into memory before it answers, so a
// failed cut is an error status (503 once the engine is closed), never a
// document.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	buf := getBuf()
	defer putBuf(buf)
	if err := n.eng.Snapshot(buf); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, shard.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), status)
		return
	}
	n.journal.Emit(ops.EventSnapshot, n.Name)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
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

	// Replay dedup: a frame ID seen before returns the recorded response
	// bytes; an in-progress duplicate waits for the first application to
	// finish rather than racing it, and applies only if that one aborted.
	if frame.ID != "" {
		if cached, ok := n.frames.Claim(frame.ID); ok {
			n.dedupHits.Inc()
			_, _ = w.Write(cached)
			return
		}
	}

	res := FrameResult{Results: make([]OpResult, len(frame.Ops))}
	for i := range frame.Ops {
		res.Results[i] = n.apply(r.Context(), &frame.Ops[i])
	}
	buf, err := encodeJSON(&res)
	if err != nil {
		n.frames.Abort(frame.ID)
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	defer putBuf(buf)
	if frame.ID != "" {
		n.frames.Commit(frame.ID, bytes.Clone(buf.Bytes()))
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
	return applyOp(ctx, n.eng, op)
}

// applyOp decodes one op into its call on part, the peer's encoding of
// the call read backwards.
func applyOp(ctx context.Context, part shard.Part, op *Op) OpResult {
	var t *core.Task
	switch op.Op {
	case opScore, opCommit, opBuffer:
		if op.Task == nil {
			return fail(fmt.Errorf("cluster: %s without task", op.Op))
		}
		var err error
		if t, err = op.Task.Task(); err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("task", t.ID))
	}
	switch op.Op {
	case opScore:
		s, err := part.Score(ctx, t)
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.score", trace.Float("gain", s.Gain), trace.Bool("free", s.Free))
		return OpResult{OK: true, Gain: s.Gain, Rel: s.Rel, Free: s.Free, Backlog: s.Backlog}
	case opCommit:
		wid, ok := part.Commit(ctx, t)
		trace.Event(ctx, "node.commit", trace.Str("worker", wid), trace.Bool("ok", ok))
		return OpResult{OK: ok, WorkerID: wid}
	case opBuffer:
		return result(OpResult{}, part.Buffer(ctx, t))
	case opComplete:
		c, err := part.Finish(ctx, op.WorkerID, op.TaskID, true)
		if err != nil {
			return fail(err)
		}
		// The display set rides back in the same result, so a completion
		// costs the gateway one frame.
		r := OpResult{OK: true, Tasks: core.RecordsOf(c.Active), Display: true}
		if c.Next != nil {
			next := core.RecordOf(c.Next)
			r.Next = &next
		}
		return r
	case opAddWorker:
		if op.Worker == nil {
			return fail(errors.New("cluster: add_worker without worker"))
		}
		wk, err := op.Worker.Worker()
		if err != nil {
			return fail(err)
		}
		trace.Event(ctx, "node.decode", trace.Str("worker", wk.ID))
		return tasksResult(part.AddWorkerCtx(ctx, wk))
	case opRemoveWorker:
		return tasksResult(part.RemoveWorkerCtx(ctx, op.WorkerID))
	case opActiveTasks:
		return tasksResult(part.ActiveTasks(op.WorkerID))
	case opWorker:
		wk, err := part.Worker(op.WorkerID)
		if err != nil {
			return fail(err)
		}
		rec := core.WorkerRecordOf(wk)
		return OpResult{OK: true, Worker: &rec}
	case opCompleted:
		c, err := part.Completed(op.WorkerID)
		return result(OpResult{Count: c}, err)
	case opSetTrust:
		if op.Trust == nil {
			return fail(errors.New("cluster: set_trust without value"))
		}
		return tasksResult(part.SetTrust(op.WorkerID, *op.Trust))
	case opTrust:
		v, err := part.Trust(op.WorkerID)
		return result(OpResult{Value: v}, err)
	case opSetWindow:
		if op.Window == nil {
			return fail(errors.New("cluster: set_window without value"))
		}
		return result(OpResult{}, part.SetWindow(op.WorkerID, *op.Window))
	case opWindow:
		until, err := part.Window(op.WorkerID)
		return result(OpResult{Until: until}, err)
	case opWorkers:
		return OpResult{OK: true, IDs: part.WorkerIDs()}
	case opStats:
		st := part.Stats()
		return OpResult{OK: true, Stats: &st}
	case opObjective:
		return OpResult{OK: true, Value: part.Objective()}
	default:
		return fail(fmt.Errorf("cluster: unknown op %q", op.Op))
	}
}

// fail is the result of an op that failed with err, its sentinel
// carried as a code (resultErr reads it back).
func fail(err error) OpResult {
	r := OpResult{Err: err.Error()}
	switch {
	case errors.Is(err, stream.ErrBufferFull):
		r.Code = codeFull
	case errors.Is(err, shard.ErrClosed):
		r.Code = codeClosed
	}
	return r
}

// result is r answered OK, or the failure of err.
func result(r OpResult, err error) OpResult {
	if err != nil {
		return fail(err)
	}
	r.OK = true
	return r
}

func tasksResult(ts []*core.Task, err error) OpResult {
	return result(OpResult{Tasks: core.RecordsOf(ts)}, err)
}
