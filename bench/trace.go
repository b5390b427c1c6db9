package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/platform"
)

// layer is the boundary a span was recorded at. Spans are recorded only
// by this package, around the calls it makes into each layer.
type layer uint8

const (
	layerClient   layer = iota // around each platform.Client call
	layerPlatform              // http.Handler around platform.Server
	layerBackend               // StreamBackend around the engine or gateway
	layerRPC                   // http.RoundTripper of the gateway's RPC client
	layerNode                  // http.Handler around cluster.Node
	layerSolve                 // around solver.HTAAPP / solver.HTAGRE
	layerInstance              // around core.NewInstance
)

var layerNames = []string{"client", "platform", "backend", "rpc", "node", "solve", "instance"}

// span is one timed call. start and end are nanoseconds since the
// recorder's epoch; parent is 0 for a root.
type span struct {
	id, parent uint64
	layer      layer
	op         string
	start, end int64
	lane       int32 // client index, filled down the tree on export
	bytes      int64 // response bytes (platform, rpc)
	status     int32 // HTTP status (platform, rpc); 0 = transport error
}

func (s span) dur() int64 { return s.end - s.start }

// Headers carrying span identity across a loopback hop.
const (
	hdrSpan  = "X-Bench-Span"  // client span → platform handler
	hdrFrame = "X-Bench-Frame" // rpc frame span → node handler
)

// maxSpans caps the spans one traced pass keeps in memory.
const maxSpans = 2_000_000

// recorder keeps spans in memory until the run ends. Recording is on only
// during a traced pass's timed phase.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	seq   atomic.Uint64

	mu    sync.Mutex
	spans []span // at most maxSpans; later spans are not kept

	// inflight maps a worker ID to the platform span serving a request on
	// it: Worker and ActiveTasks carry no context, so a backend span finds
	// its parent by worker. Each worker has at most one request in flight.
	inflightMu sync.Mutex
	inflight   map[string]uint64

	reqBytes atomic.Int64 // RPC request bytes
	rpcErrs  atomic.Int64 // RPC transport errors and non-2xx frames
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), inflight: make(map[string]uint64)}
}

func (r *recorder) newID() uint64 { return r.seq.Add(1) }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) now() int64 { return r.at(time.Now()) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

type spanKey struct{}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// stampTransport is a client's RoundTripper: it carries the current client
// span's ID to the platform handler.
type stampTransport struct {
	base  http.RoundTripper
	stamp *atomic.Uint64
}

func (s *stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := s.stamp.Load()
	if id == 0 {
		return s.base.RoundTrip(req)
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	return s.base.RoundTrip(r2)
}

// platformSpans wraps the platform handler: one span per request, its ID
// passed to the backend through the request context.
type platformSpans struct {
	r    *recorder
	next http.Handler
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (p *platformSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if !p.r.on.Load() {
		p.next.ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
	id := p.r.newID()
	worker := workerOf(req.URL.Path)
	if worker != "" {
		p.r.inflightMu.Lock()
		p.r.inflight[worker] = id
		p.r.inflightMu.Unlock()
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := p.r.now()
	p.next.ServeHTTP(cw, req.WithContext(context.WithValue(req.Context(), spanKey{}, id)))
	end := p.r.now()
	if worker != "" {
		p.r.inflightMu.Lock()
		delete(p.r.inflight, worker)
		p.r.inflightMu.Unlock()
	}
	p.r.add(span{id: id, parent: parent, layer: layerPlatform, op: routeOp(req), start: start, end: end,
		bytes: cw.n, status: int32(cw.status)})
}

// workerOf extracts {id} from /api/workers/{id}[/…].
func workerOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/api/workers/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// routeOp names a platform request by the call the client made.
func routeOp(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/complete"):
		return opComplete.String()
	case req.Method == http.MethodPost && p == "/api/tasks":
		return opOffer.String()
	case req.Method == http.MethodGet && strings.HasSuffix(p, "/tasks"):
		return opRead.String()
	case req.Method == http.MethodPost && p == "/api/workers":
		return opRegister.String()
	case req.Method == http.MethodDelete:
		return opLeave.String()
	}
	return req.Method + " " + p
}

// backendSpans wraps the StreamBackend the platform drives and times the
// calls its handlers make on the hot path. Other methods pass through.
type backendSpans struct {
	platform.StreamBackend
	r *recorder
}

func (b *backendSpans) record(parent uint64, op string, start int64) {
	b.r.add(span{id: b.r.newID(), parent: parent, layer: layerBackend, op: op, start: start, end: b.r.now()})
}

func (b *backendSpans) byWorker(id string) uint64 {
	b.r.inflightMu.Lock()
	defer b.r.inflightMu.Unlock()
	return b.r.inflight[id]
}

func (b *backendSpans) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.OfferTaskCtx(ctx, t)
	}
	start := b.r.now()
	wid, err := b.StreamBackend.OfferTaskCtx(ctx, t)
	b.record(spanFrom(ctx), "offer", start)
	return wid, err
}

func (b *backendSpans) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.AddWorkerCtx(ctx, w)
	}
	start := b.r.now()
	ts, err := b.StreamBackend.AddWorkerCtx(ctx, w)
	b.record(spanFrom(ctx), "register", start)
	return ts, err
}

func (b *backendSpans) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.RemoveWorkerCtx(ctx, id)
	}
	start := b.r.now()
	ts, err := b.StreamBackend.RemoveWorkerCtx(ctx, id)
	b.record(spanFrom(ctx), "leave", start)
	return ts, err
}

func (b *backendSpans) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.CompleteCtx(ctx, workerID, taskID)
	}
	start := b.r.now()
	t, err := b.StreamBackend.CompleteCtx(ctx, workerID, taskID)
	b.record(spanFrom(ctx), "complete", start)
	return t, err
}

func (b *backendSpans) ActiveTasks(workerID string) ([]*core.Task, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.ActiveTasks(workerID)
	}
	start := b.r.now()
	ts, err := b.StreamBackend.ActiveTasks(workerID)
	b.record(b.byWorker(workerID), "read", start)
	return ts, err
}

func (b *backendSpans) Worker(workerID string) (*core.Worker, error) {
	if !b.r.on.Load() {
		return b.StreamBackend.Worker(workerID)
	}
	start := b.r.now()
	w, err := b.StreamBackend.Worker(workerID)
	b.record(b.byWorker(workerID), "worker", start)
	return w, err
}

// rpcSpans is the gateway's RPC RoundTripper: one span per frame, from
// sending the request to closing the fully read response body, with the
// frame's span ID stamped for the node.
type rpcSpans struct {
	r    *recorder
	base http.RoundTripper
}

func (p *rpcSpans) RoundTrip(req *http.Request) (*http.Response, error) {
	if !p.r.on.Load() {
		return p.base.RoundTrip(req)
	}
	id := p.r.newID()
	r2 := req.Clone(req.Context())
	r2.Header.Set(hdrFrame, strconv.FormatUint(id, 10))
	p.r.reqBytes.Add(req.ContentLength)
	start := p.r.now()
	resp, err := p.base.RoundTrip(r2)
	if err != nil {
		p.r.rpcErrs.Add(1)
		p.r.add(span{id: id, layer: layerRPC, op: "frame", start: start, end: p.r.now()})
		return nil, err
	}
	if resp.StatusCode >= 300 {
		p.r.rpcErrs.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		p.r.add(span{id: id, layer: layerRPC, op: "frame", start: start, end: p.r.now(), bytes: n, status: int32(resp.StatusCode)})
	}}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// nodeSpans wraps a cluster node's handler: one span per frame, child of
// the gateway's frame span.
type nodeSpans struct {
	r    *recorder
	next http.Handler
}

func (n *nodeSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	parent, err := strconv.ParseUint(req.Header.Get(hdrFrame), 10, 64)
	if err != nil || !n.r.on.Load() {
		n.next.ServeHTTP(w, req)
		return
	}
	start := n.r.now()
	n.next.ServeHTTP(w, req)
	n.r.add(span{id: n.r.newID(), parent: parent, layer: layerNode, op: "frame", start: start, end: n.r.now()})
}

// selfTime is a span's duration minus the part of its interval its
// children cover. Children may overlap each other and may stick out of
// the parent; only their union inside the parent counts.
func selfTime(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return p.dur() - covered
}

// children indexes spans by parent ID.
func children(spans []span) map[uint64][]span {
	out := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			out[s.parent] = append(out[s.parent], s)
		}
	}
	return out
}

// spanSums are totals over a traced pass: the client-observed time of
// every call, and the part of it spent outside the backend (transport
// plus handler self time).
type spanSums struct {
	clientNs, platformNs float64
}

// spanMetrics derives the per-layer metrics of a traced pass from its
// spans.
func spanMetrics(sh *Shape, rec *recorder, res *Result) spanSums {
	kids := children(rec.spans)
	var sums spanSums
	var self, transport, rtt, node, wait []int64
	backend := make(map[string][]int64)
	var nPlat, nBackend, respBytes, errs, frameBytes int64
	for _, s := range rec.spans {
		switch s.layer {
		case layerClient:
			sums.clientNs += float64(s.dur())
			for _, k := range kids[s.id] {
				if k.layer == layerPlatform {
					transport = append(transport, s.dur()-k.dur())
					sums.platformNs += float64(s.dur() - k.dur())
				}
			}
		case layerPlatform:
			nPlat++
			respBytes += s.bytes
			if s.status >= 400 {
				errs++
			}
			var bk []span
			for _, k := range kids[s.id] {
				if k.layer == layerBackend {
					bk = append(bk, k)
				}
			}
			nBackend += int64(len(bk))
			st := selfTime(s, bk)
			self = append(self, st)
			sums.platformNs += float64(st)
		case layerBackend:
			o := s.op
			if o == "worker" {
				o = opRead.String()
			}
			backend[o] = append(backend[o], s.dur())
		case layerRPC:
			rtt = append(rtt, s.dur())
			frameBytes += s.bytes
			for _, k := range kids[s.id] {
				if k.layer == layerNode {
					wait = append(wait, s.dur()-k.dur())
				}
			}
		case layerNode:
			node = append(node, s.dur())
		}
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	res.set("platform.handler_self_us_p50", us(pct(self, 0.5)))
	res.set("platform.handler_self_us_p99", us(pct(self, 0.99)))
	res.set("platform.transport_us_p50", us(pct(transport, 0.5)))
	if nPlat > 0 {
		res.set("platform.backend_calls_per_request", float64(nBackend)/float64(nPlat))
		res.set("platform.resp_bytes_per_request", float64(respBytes)/float64(nPlat))
	}
	res.set("platform.errors_total", float64(errs))
	if sh.Kind == Stream {
		res.set("shard.complete_us_p50", us(pct(backend["complete"], 0.5)))
		res.set("shard.complete_us_p99", us(pct(backend["complete"], 0.99)))
		res.set("shard.offer_us_p50", us(pct(backend["offer"], 0.5)))
		res.set("shard.read_us_p50", us(pct(backend["read"], 0.5)))
		return sums
	}
	res.set("cluster.gateway_complete_us_p50", us(pct(backend["complete"], 0.5)))
	res.set("cluster.gateway_offer_us_p50", us(pct(backend["offer"], 0.5)))
	res.set("cluster.gateway_read_us_p50", us(pct(backend["read"], 0.5)))
	res.set("cluster.rpc_rtt_us_p50", us(pct(rtt, 0.5)))
	res.set("cluster.rpc_rtt_us_p99", us(pct(rtt, 0.99)))
	res.set("cluster.node_handle_us_p50", us(pct(node, 0.5)))
	res.set("cluster.rpc_wait_us_p50", us(pct(wait, 0.5)))
	if n := int64(len(rtt)); n > 0 {
		res.set("cluster.req_bytes_per_frame", float64(rec.reqBytes.Load())/float64(n))
		res.set("cluster.resp_bytes_per_frame", float64(frameBytes)/float64(n))
	}
	res.set("cluster.rpc_errors_total", float64(rec.rpcErrs.Load()))
	return sums
}

// traceEvent is one Chrome trace-event record, the JSON format Perfetto
// loads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace writes the spans as a Perfetto-loadable JSON trace: request
// spans nest on one track per client, solver spans on track 0, and RPC
// frames with their node handling as async slices keyed by frame.
func writeTrace(path, workload string, spans []span) error {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.id] = i
	}
	laneOf := func(s span) int32 {
		for s.layer != layerClient && s.parent != 0 {
			i, ok := byID[s.parent]
			if !ok {
				break
			}
			s = spans[i]
		}
		return s.lane
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		f.Close()
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	err = emit(traceEvent{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "hta-layers " + workload}})
	for _, s := range spans {
		if err != nil {
			break
		}
		args := map[string]any{"layer": layerNames[s.layer]}
		if s.bytes > 0 {
			args["bytes"] = s.bytes
		}
		if s.status != 0 {
			args["status"] = s.status
		}
		switch s.layer {
		case layerRPC, layerNode:
			frame := s.id
			if s.layer == layerNode {
				frame = s.parent
			}
			fid := strconv.FormatUint(frame, 16)
			name := layerNames[s.layer] + " " + s.op
			err = emit(traceEvent{Name: name, Cat: "rpc", Ph: "b", Ts: us(s.start), Pid: 1, Tid: 100, ID: fid, Args: args})
			if err == nil {
				err = emit(traceEvent{Name: name, Cat: "rpc", Ph: "e", Ts: us(s.end), Pid: 1, Tid: 100, ID: fid})
			}
		default:
			tid := 0
			if s.layer <= layerBackend {
				tid = int(laneOf(s)) + 1
			}
			err = emit(traceEvent{Name: layerNames[s.layer] + " " + s.op, Cat: layerNames[s.layer], Ph: "X",
				Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: tid, Args: args})
		}
	}
	if err == nil {
		_, err = bw.WriteString("]}\n")
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("bench: writing trace %s: %w", path, err)
	}
	return nil
}
