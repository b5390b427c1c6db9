// Package trace is the repository's request-scoped tracing subsystem:
// context-propagated trace/span IDs, hierarchical spans with typed
// attributes, a lock-free fixed-capacity ring-buffer recorder with
// head-sampling, and export as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) or a compact text tree.
//
// Where package obs answers "how fast is the solver on average?", trace
// answers "why was *this* assignment iteration slow?": one request is
// followed end to end — platform endpoint → adaptive iteration → solver
// phases — and every span carries the attributes needed to attribute a
// p99 spike to a specific instance shape (|T|, |W|, Xmax, objective,
// solver variant).
//
// Design constraints, in order:
//
//  1. Stdlib only, like obs.
//  2. The untraced path is near-free. A disabled recorder reduces
//     Start to a context lookup plus one atomic load — no allocation, no
//     time.Now. Head-sampling decides at the root: an unsampled request
//     allocates one context value (a shared sentinel) and nothing else,
//     and every descendant Start is an early return.
//  3. The recorder is a lock-free ring of completed traces: push is one
//     atomic add plus one atomic pointer store, so a burst of finishing
//     requests never contends. Within one sampled trace, span start/end
//     take a per-trace mutex — uncontended in the request-per-goroutine
//     pattern the platform serves.
//  4. Reads (Snapshot, export) may allocate; they are debug-endpoint
//     rare.
package trace

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// timeNow is swapped by tests for deterministic golden exports.
var timeNow = time.Now

// TraceID identifies one end-to-end trace; SpanID one span within it.
// Both are non-zero for recorded spans.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits (the form logged and
// returned in X-Trace-Id).
func (id TraceID) String() string { return hex16(uint64(id)) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex16(uint64(id)) }

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// idState seeds the ID sequence; nextID runs it through the splitmix64
// finalizer so concurrent traces get well-spread 64-bit IDs from one
// atomic add.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// attrKind tags the value stored in an Attr.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one typed key/value attribute on a span. Construct with Str,
// Int, Float or Bool; the union representation keeps attribute slices
// free of per-value boxing allocations.
type Attr struct {
	Key  string
	kind attrKind
	num  uint64
	str  string
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, kind: kindString, str: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, kind: kindInt, num: uint64(int64(v))} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, kind: kindFloat, num: math.Float64bits(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	a := Attr{Key: k, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Value returns the attribute's value as the Go type it was built from.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return int64(a.num)
	case kindFloat:
		return math.Float64frombits(a.num)
	case kindBool:
		return a.num != 0
	default:
		return a.str
	}
}

// SpanData is the recorded form of one span, exposed by Trace.Spans for
// export and tests. Spans appear in start order; index 0 is the root.
type SpanData struct {
	ID     SpanID
	Parent SpanID // 0 for the root span
	Name   string
	Start  time.Time
	// Dur is zero until the span ends; a span still open when the trace
	// is exported shows Dur 0.
	Dur   time.Duration
	Attrs []Attr

	ended bool
}

// Trace collects every span of one sampled request. It is pushed into the
// recorder's ring when its root span ends; children that end later still
// update it (Snapshot copies under the same lock).
type Trace struct {
	ID  TraceID
	rec *Recorder // destination ring, set on the root

	mu    sync.Mutex
	spans []SpanData
}

// Spans returns a copy of the recorded spans, in start order (root
// first; every span's parent precedes it).
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData(nil), t.spans...)
}

// startChild appends a new span record. The start timestamp is taken
// under the trace lock, so the span slice is monotone in Start even under
// concurrent starts. The record keeps a copy of attrs, so a caller's
// attribute list never leaves its stack, and an unsampled call, which
// never gets here, builds nothing on the heap.
func (t *Trace) startChild(parent SpanID, name string, attrs []Attr) *Span {
	id := SpanID(nextID())
	kept := append([]Attr(nil), attrs...)
	t.mu.Lock()
	now := timeNow()
	idx := len(t.spans)
	t.spans = append(t.spans, SpanData{ID: id, Parent: parent, Name: name, Start: now, Attrs: kept})
	t.mu.Unlock()
	return &Span{tr: t, id: id, idx: idx, start: now}
}

// Span is a handle on one live span. The nil *Span is inert: every method
// is a no-op returning zero values, so call sites never branch on whether
// the request was sampled.
type Span struct {
	tr    *Trace
	id    SpanID
	idx   int
	start time.Time
}

// suppressed marks a context whose root was seen by the sampler but not
// chosen: descendants must not start fresh roots of their own (that would
// distort 1/N head-sampling into per-layer sampling).
var suppressed = &Span{}

// Recorded reports whether the span is live (sampled and recording).
func (s *Span) Recorded() bool { return s != nil && s.tr != nil }

// TraceID returns the owning trace's ID, 0 for inert spans.
func (s *Span) TraceID() TraceID {
	if !s.Recorded() {
		return 0
	}
	return s.tr.ID
}

// SpanID returns the span's ID, 0 for inert spans.
func (s *Span) SpanID() SpanID {
	if !s.Recorded() {
		return 0
	}
	return s.id
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if !s.Recorded() || len(attrs) == 0 {
		return
	}
	s.tr.mu.Lock()
	sd := &s.tr.spans[s.idx]
	sd.Attrs = append(sd.Attrs, attrs...)
	s.tr.mu.Unlock()
}

// End closes the span and returns its duration. Ending a root span
// publishes the whole trace into the recorder's ring. End is idempotent:
// later calls return the first duration without re-publishing.
func (s *Span) End() time.Duration {
	if !s.Recorded() {
		return 0
	}
	d := timeNow().Sub(s.start)
	s.tr.mu.Lock()
	sd := &s.tr.spans[s.idx]
	if sd.ended {
		d = sd.Dur
		s.tr.mu.Unlock()
		return d
	}
	sd.ended = true
	sd.Dur = d
	s.tr.mu.Unlock()
	if s.idx == 0 && s.tr.rec != nil {
		s.tr.rec.push(s.tr)
	}
	return d
}

// spanKey carries the current span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp; Start uses it to build
// the span hierarchy.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// fromContext returns the raw span in ctx, including the suppressed
// sentinel; nil when the context is untraced.
func fromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// FromContext returns the live span carried by ctx, or nil — unsampled
// and untraced contexts both read as nil. The slog handler uses it to
// stamp trace_id/span_id onto log records.
func FromContext(ctx context.Context) *Span {
	if sp := fromContext(ctx); sp.Recorded() {
		return sp
	}
	return nil
}

// Event records an instantaneous child span (started and ended in place)
// when ctx carries a sampled span, and does nothing otherwise — the
// cheap annotation hook the streaming assigner uses for enqueue/dequeue
// decisions. Unlike Start it never opens a new root.
func Event(ctx context.Context, name string, attrs ...Attr) {
	parent := fromContext(ctx)
	if !parent.Recorded() {
		return
	}
	parent.tr.startChild(parent.id, name, attrs).End()
}

// Start opens a span on the default recorder: a child of the span in ctx
// when there is one, a new sampled root otherwise. See Recorder.Start.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	return std.Start(ctx, name, attrs...)
}
