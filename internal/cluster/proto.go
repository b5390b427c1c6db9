package cluster

import (
	"bytes"
	"encoding/json"
	"sync"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/shard"
)

// Wire format of the batched RPC protocol. A Frame is one POST
// /cluster/batch request: an ordered list of operations coalesced from
// concurrent gateway calls; the FrameResult aligns results by index.
// Frames carry IDs so a retried frame (response lost in flight) is
// deduplicated node-side and the cached response replayed instead of the
// ops double-applying.

// Op kinds: one per shard.Part method but Cut, which is GET
// /cluster/snapshot (the peer sends them, applyOp applies them).
const (
	opScore        = "score"         // Score: the scatter half of an offer
	opCommit       = "commit"        // Commit: commit the offer to this node
	opBuffer       = "buffer"        // Buffer: park on the least backlogged shard
	opComplete     = "complete"      // Finish(worker, task); returns the pulled task and the display set
	opAddWorker    = "add_worker"    // AddWorker; returns drained tasks
	opRemoveWorker = "remove_worker" // RemoveWorker; returns dropped tasks
	opActiveTasks  = "active_tasks"  // ActiveTasks(worker)
	opWorker       = "worker"        // Worker(worker)
	opCompleted    = "completed"     // Completed(worker)
	opWorkers      = "workers"       // WorkerIDs()
	opStats        = "stats"         // Stats()
	opObjective    = "objective"     // Objective()
	opSetTrust     = "set_trust"     // SetTrust(worker, value); returns drained tasks
	opTrust        = "trust"         // Trust(worker)
	opSetWindow    = "set_window"    // SetWindow(worker, until): availability-window end
	opWindow       = "window"        // Window(worker)
)

// Error codes carried in OpResult.Code so the gateway can map node-side
// failures back onto the sentinel errors the platform layer knows.
const (
	codeFull   = "buffer_full" // stream.ErrBufferFull
	codeClosed = "closed"      // shard.ErrClosed
)

// SpanRef is the trace context one op carries across the wire: the
// originating request's trace ID and the RPC span opened for this op,
// both in 16-hex-digit form. Trace context rides per op, not per frame,
// because a frame coalesces ops from unrelated requests. Absence is the
// negative head-sampling decision — an unsampled request serializes
// nothing and the node records nothing.
type SpanRef struct {
	TraceID string `json:"t"`
	SpanID  string `json:"s"`
}

// Op is one operation inside a frame.
type Op struct {
	Op       string             `json:"op"`
	Task     *core.TaskRecord   `json:"task,omitempty"`
	TaskID   string             `json:"task_id,omitempty"`
	Worker   *core.WorkerRecord `json:"worker,omitempty"`
	WorkerID string             `json:"worker_id,omitempty"`
	// Trust carries the value of a set_trust op (pointer so 0 — quarantine
	// — survives omitempty semantics).
	Trust *float64 `json:"trust,omitempty"`
	// Window carries the availability-window end of a set_window op
	// (pointer so 0 — clear — survives omitempty semantics).
	Window *int64 `json:"window,omitempty"`
	// Span propagates the sampled trace context (nil when unsampled).
	Span *SpanRef `json:"span,omitempty"`
}

// OpResult is the outcome of one op, index-aligned with its frame.
type OpResult struct {
	OK   bool   `json:"ok"`
	Err  string `json:"err,omitempty"`
	Code string `json:"code,omitempty"`

	// score
	Gain    float64 `json:"gain,omitempty"`
	Rel     float64 `json:"rel,omitempty"`
	Free    bool    `json:"free,omitempty"`
	Backlog int     `json:"backlog,omitempty"`

	// commit / complete / worker reads
	WorkerID string             `json:"worker_id,omitempty"`
	Next     *core.TaskRecord   `json:"next,omitempty"`
	Tasks    []core.TaskRecord  `json:"tasks,omitempty"`
	Worker   *core.WorkerRecord `json:"worker,omitempty"`
	Count    int                `json:"count,omitempty"`
	IDs      []string           `json:"ids,omitempty"`
	Stats    *shard.Stats       `json:"stats,omitempty"`
	Value    float64            `json:"value,omitempty"`
	// Until answers a window read. Its own int64 field, not Value: a
	// UnixNano does not fit float64 exactly.
	Until int64 `json:"until,omitempty"`
	// Display marks Tasks as the worker's display set after a complete;
	// Tasks alone cannot say it, since an empty set and no set both omit
	// it. A node without this field answers complete with neither, and
	// the gateway then reads the set with an active_tasks op.
	Display bool `json:"display,omitempty"`
}

// Frame is the body of POST /cluster/batch.
type Frame struct {
	ID  string `json:"id"`
	Ops []Op   `json:"ops"`
}

// FrameResult is the response: Results[i] answers Ops[i].
type FrameResult struct {
	Results []OpResult `json:"results"`
}

// bufPool recycles the encode buffers on the RPC hot path — frames are
// encoded into a pooled bytes.Buffer (and node responses likewise), so
// steady-state traffic allocates no fresh buffers per frame.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	// Oversized one-off frames (e.g. a giant stats gather) should not pin
	// their backing arrays in the pool forever.
	if b.Cap() > 1<<20 {
		return
	}
	bufPool.Put(b)
}

// encodeJSON marshals v into a pooled buffer, with json.Encoder's
// trailing newline: frames and results through the frame codec, anything
// it declines through encoding/json. The caller must putBuf it.
func encodeJSON(v any) (*bytes.Buffer, error) {
	b := getBuf()
	if out, ok := appendFrame(b.AvailableBuffer(), v); ok {
		b.Write(append(out, '\n'))
		return b, nil
	}
	if err := json.NewEncoder(b).Encode(v); err != nil {
		putBuf(b)
		return nil, err
	}
	return b, nil
}
