package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/trace"
)

// ErrPeerDown is returned for operations addressed to a node the gateway
// has marked unhealthy (or that failed every frame retry).
var ErrPeerDown = errors.New("cluster: peer down")

// call is one op's journey through a peer: enqueued, coalesced into a
// frame, resolved when the frame's response lands. Calls are pooled —
// the done channel is used strictly once per trip (one send, one
// receive), so it returns to the pool empty.
type call struct {
	op   Op
	res  OpResult
	err  error
	span *trace.Span // RPC span, ended when the call resolves (nil unsampled)
	done chan struct{}
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall(op Op) *call {
	c := callPool.Get().(*call)
	c.op = op
	c.res = OpResult{}
	c.err = nil
	return c
}

func putCall(c *call) {
	c.op = Op{}
	c.res = OpResult{}
	c.span = nil
	callPool.Put(c)
}

// peer is the client half of the batched RPC protocol for one node:
// concurrent ops enqueue into a pending queue; up to window long-lived
// sender goroutines drain the queue into frames of up to maxBatch ops,
// one frame in flight each (pipelining). Each sender takes whatever has
// queued by the time it is free — under load, frames fill and per-op
// HTTP overhead amortizes away; when traffic is light a frame carries one
// op and latency matches unbatched RPC.
type peer struct {
	name string
	base string // e.g. http://127.0.0.1:9001
	hc   *http.Client

	maxBatch int
	window   int
	retries  int           // attempts per frame, first included
	backoff  time.Duration // base backoff between frame retries

	mu       sync.Mutex
	pending  []*call
	inflight int        // senders busy with a frame
	senders  int        // sender goroutines started and not yet ended
	idle     int        // senders waiting on wake and not yet signalled
	wake     *sync.Cond // on mu: pending work for an idle sender, or close
	ended    sync.WaitGroup
	closed   bool

	// telemetry: frames sent and ops carried, so benches can report the
	// realized coalescing factor.
	frames atomic.Int64
	ops    atomic.Int64

	// RPC-internal instruments (per peer, labeled peer="name"): realized
	// frame coalescing, pipelining-window occupancy, and retry pressure —
	// the previously invisible internals the federated /metrics surfaces.
	batchSize  *obs.Histogram
	windowOcc  *obs.Gauge
	retriesCtr *obs.Counter

	// health state, owned by the gateway's heartbeat loop, and the last
	// drop count the node reported (noteDropped).
	down        atomic.Bool
	fails       atomic.Int32
	lastDropped atomic.Int64

	// pins holds the records of the workers this gateway registered on
	// the node, or read from it: the pin decides a worker's routing, and
	// Worker answers from it. pinGen counts unpins, so a read that pins
	// after its RPC can tell whether the worker left meanwhile.
	pinMu  sync.RWMutex
	pins   map[string]*core.Worker
	pinGen uint64

	// frame ID source: a random 8-byte prefix per peer plus a counter —
	// unique across gateway restarts without per-frame crypto/rand reads.
	idPrefix [8]byte
	idSeq    atomic.Uint64
}

func newPeer(name, base string, hc *http.Client, reg *obs.Registry, maxBatch, window, retries int, backoff time.Duration) *peer {
	if reg == nil {
		reg = obs.Default()
	}
	p := &peer{
		name: name, base: base, hc: hc, pins: make(map[string]*core.Worker),
		maxBatch: maxBatch, window: window, retries: retries, backoff: backoff,
		batchSize: reg.Histogram("hta_cluster_frame_batch_size",
			"ops coalesced into each RPC frame", obs.SizeBuckets(), obs.L("peer", name)),
		windowOcc: reg.Gauge("hta_cluster_window_inflight",
			"frames currently in flight in the pipelining window", obs.L("peer", name)),
		retriesCtr: reg.Counter("hta_cluster_frame_retries_total",
			"frame retry attempts (same frame ID, replay-deduplicated node-side)", obs.L("peer", name)),
	}
	p.wake = sync.NewCond(&p.mu)
	binary.LittleEndian.PutUint64(p.idPrefix[:], rand.Uint64())
	return p
}

// frameID mints a unique frame identifier.
func (p *peer) frameID() string {
	var raw [16]byte
	copy(raw[:8], p.idPrefix[:])
	binary.LittleEndian.PutUint64(raw[8:], p.idSeq.Add(1))
	return hex.EncodeToString(raw[:])
}

// doCtx enqueues op and waits for its result, with trace propagation
// (see doAsyncCtx). Concurrent calls to the same peer coalesce into
// shared frames.
func (p *peer) doCtx(ctx context.Context, op Op) (OpResult, error) {
	c := p.doAsyncCtx(ctx, op)
	return p.wait(c)
}

// doAsyncCtx is doAsync plus cross-node trace propagation: when ctx
// carries a sampled span, a "cluster.rpc" child opens here — covering
// coalesce wait, wire time, and the node-side apply — and its identity
// rides inside the op so the node joins the same trace. Unsampled
// contexts take the plain path untouched.
func (p *peer) doAsyncCtx(ctx context.Context, op Op) *call {
	if sp := trace.FromContext(ctx); sp != nil {
		_, rpc := trace.Start(ctx, "cluster.rpc",
			trace.Str("peer", p.name), trace.Str("op", op.Op))
		op.Span = &SpanRef{TraceID: rpc.TraceID().String(), SpanID: rpc.SpanID().String()}
		c := p.doAsync(op)
		c.span = rpc
		return c
	}
	return p.doAsync(op)
}

// doAsync enqueues op and returns the pending call; the caller must
// resolve it with wait. Scatter paths enqueue on every peer first, then
// wait, so frames to different nodes travel concurrently.
func (p *peer) doAsync(op Op) *call {
	c := getCall(op)
	if p.down.Load() {
		c.err = fmt.Errorf("%w: %s", ErrPeerDown, p.name)
		c.done <- struct{}{}
		return c
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.err = fmt.Errorf("%w: %s (closed)", ErrPeerDown, p.name)
		c.done <- struct{}{}
		return c
	}
	p.pending = append(p.pending, c)
	p.maybeSendLocked()
	p.mu.Unlock()
	return c
}

// wait blocks until the call resolves, recycles it, and returns the
// outcome. The RPC span (if any) ends here — its duration is the full
// client-observed trip: queue wait, wire, node apply, decode.
func (p *peer) wait(c *call) (OpResult, error) {
	<-c.done
	res, err := c.res, c.err
	if c.span != nil {
		if err != nil {
			c.span.SetAttrs(trace.Str("error", err.Error()))
		}
		c.span.End()
	}
	putCall(c)
	return res, err
}

// maybeSendLocked hands pending work to a sender: it wakes an idle one,
// or starts one while fewer than window run. A sender that takes a batch
// and leaves work behind calls it again, so up to window frames fill at
// once. Caller holds p.mu.
func (p *peer) maybeSendLocked() {
	switch {
	case len(p.pending) == 0 || p.closed:
	case p.idle > 0:
		p.idle--
		p.wake.Signal()
	case p.senders < p.window:
		p.senders++
		p.ended.Add(1)
		go p.sender()
	}
}

// sender ships frames until the peer closes: it takes up to maxBatch
// pending calls, sends them as one frame, and waits on wake when the
// queue is empty. Long-lived senders keep their grown stacks and their
// batch and frame slices from frame to frame.
func (p *peer) sender() {
	defer p.ended.Done()
	var batch []*call
	var ops []Op
	p.mu.Lock()
	for {
		for len(p.pending) == 0 && !p.closed {
			p.idle++
			p.wake.Wait()
		}
		if p.closed {
			p.senders--
			p.mu.Unlock()
			return
		}
		n := min(len(p.pending), p.maxBatch)
		batch = append(batch[:0], p.pending[:n]...)
		rest := copy(p.pending, p.pending[n:])
		clear(p.pending[rest:])
		p.pending = p.pending[:rest]
		p.inflight++
		p.windowOcc.Set(float64(p.inflight))
		p.maybeSendLocked()
		p.mu.Unlock()

		ops = p.send(batch, ops)
		clear(batch)
		clear(ops)

		p.mu.Lock()
		p.inflight--
		p.windowOcc.Set(float64(p.inflight))
	}
}

// send ships one frame and resolves its calls; ops is scratch for the
// frame's op list, returned for reuse. Transient failures (transport
// errors, 5xx) retry the same frame ID with backoff — the node's replay
// cache makes the retry idempotent even if the previous attempt was
// applied and only the response was lost.
func (p *peer) send(batch []*call, ops []Op) []Op {
	p.batchSize.Observe(float64(len(batch)))
	ops = ops[:0]
	for _, c := range batch {
		ops = append(ops, c.op)
	}
	frame := Frame{ID: p.frameID(), Ops: ops}
	res, err := p.roundTrip(&frame)
	if err == nil && len(res.Results) != len(batch) {
		err = fmt.Errorf("cluster: node %s answered %d results for %d ops", p.name, len(res.Results), len(batch))
	}
	if err != nil {
		p.fails.Add(1)
		for _, c := range batch {
			c.err = fmt.Errorf("cluster: node %s: %w", p.name, err)
			c.done <- struct{}{}
		}
		return ops
	}
	p.fails.Store(0)
	p.frames.Add(1)
	p.ops.Add(int64(len(batch)))
	for i, c := range batch {
		c.res = res.Results[i]
		c.done <- struct{}{}
	}
	return ops
}

// roundTrip POSTs the frame, retrying transient failures with the same
// frame ID. The encoded request body lives in a pooled buffer reused
// across attempts.
func (p *peer) roundTrip(frame *Frame) (*FrameResult, error) {
	body, err := encodeJSON(frame)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	var lastErr error
	for attempt := 0; attempt < p.retries; attempt++ {
		if attempt > 0 {
			p.retriesCtr.Inc()
			d := p.backoff << (attempt - 1)
			if d <= 0 || d > time.Second {
				d = time.Second
			}
			time.Sleep(d)
			if p.down.Load() {
				return nil, ErrPeerDown
			}
			if p.isClosed() {
				return nil, fmt.Errorf("%w: %s (closed)", ErrPeerDown, p.name)
			}
		}
		req, err := http.NewRequest(http.MethodPost, p.base+"/cluster/batch", bytes.NewReader(body.Bytes()))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := p.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			drainClose(resp.Body)
			lastErr = fmt.Errorf("HTTP %d", resp.StatusCode)
			continue
		}
		if resp.StatusCode >= 400 {
			drainClose(resp.Body)
			return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		var out FrameResult
		err = decodeBody(resp.Body, &out)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		return &out, nil
	}
	return nil, lastErr
}

// decodeBody reads the full response through a pooled buffer before
// unmarshalling — the decode scratch is reused frame to frame. A
// FrameResult goes through the frame codec first; whatever it declines,
// json.Unmarshal decodes, so trailing data stays an error.
func decodeBody(r io.Reader, v any) error {
	b := getBuf()
	defer putBuf(b)
	if _, err := b.ReadFrom(r); err != nil {
		return err
	}
	if res, ok := v.(*FrameResult); ok && decodeFrameResult(b.Bytes(), res) {
		return nil
	}
	return json.Unmarshal(b.Bytes(), v)
}

// maxDrain caps how much of a response body drainClose reads after the
// caller is done with it; past the cap the body is closed, and the
// connection with it.
const maxDrain = 64 << 10

// drainClose reads a response body to EOF, up to maxDrain bytes, and
// closes it. net/http returns a keep-alive connection to its idle pool
// only once the body has reached EOF; a body closed unread closes the
// connection, and the peer's next request dials a new one.
func drainClose(body io.ReadCloser) {
	// A failed read only costs the connection, which Close then drops.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	body.Close()
}

// markDown flips the peer unhealthy: queued and future ops fail fast with
// ErrPeerDown so the gateway can requeue instead of stalling.
func (p *peer) markDown() {
	if p.down.Swap(true) {
		return
	}
	p.mu.Lock()
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	for _, c := range pending {
		c.err = fmt.Errorf("%w: %s", ErrPeerDown, p.name)
		c.done <- struct{}{}
	}
}

// close fails all pending ops, stops accepting new ones, and ends the
// senders: idle ones at once, busy ones once their frame resolves (a
// frame stops retrying when the peer closes).
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	pending := p.pending
	p.pending = nil
	p.idle = 0
	p.wake.Broadcast()
	p.mu.Unlock()
	for _, c := range pending {
		c.err = fmt.Errorf("%w: %s (closed)", ErrPeerDown, p.name)
		c.done <- struct{}{}
	}
	p.ended.Wait()
}

// isClosed reports whether close has run.
func (p *peer) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// health probes GET /cluster/health once.
func (p *peer) health(ctx context.Context) (*Health, error) {
	return fetch(ctx, p, "/cluster/health", func(r io.Reader) (*Health, error) {
		var h Health
		return &h, decodeBody(r, &h)
	})
}
