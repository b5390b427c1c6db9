package trace

import (
	"context"
	"sync/atomic"
)

// Recorder retains the last-N completed traces in a lock-free ring and
// decides, per root span, whether a request is traced at all
// (head-sampling: every Nth root is kept, the rest are suppressed for
// their whole lifetime).
//
// push is one atomic add (slot claim) plus one atomic pointer store;
// concurrent pushes never block each other, and a push racing a Snapshot
// is safe — the reader loads either the old or the new trace pointer,
// both of which are complete traces. At capacity the ring overwrites
// oldest-first; every slot always holds a distinct trace, so a Snapshot
// taken after k ≤ capacity pushes returns exactly k traces.
type Recorder struct {
	every   atomic.Uint64 // sample 1 root in every; 0 = disabled
	ctr     atomic.Uint64 // roots seen, for the sampling decision
	head    atomic.Uint64 // next ring slot (monotone; slot = head & mask)
	sampled atomic.Uint64 // roots sampled (recorded traces, incl. overwritten)
	ring    []atomic.Pointer[Trace]
	mask    uint64
}

// NewRecorder builds a recorder retaining up to capacity traces (rounded
// up to a power of two, minimum 1) with 1/every head-sampling (0
// disables, 1 records every root).
func NewRecorder(capacity, every int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	r := &Recorder{ring: make([]atomic.Pointer[Trace], c), mask: uint64(c - 1)}
	r.SetSampling(every)
	return r
}

// std is the process-wide recorder, disabled by default — tracing is
// opt-in per binary (hta-server enables it behind -trace-sample).
var std = NewRecorder(256, 0)

// Default returns the process-wide recorder.
func Default() *Recorder { return std }

// SetSampling sets head-sampling to 1 root in every; 0 disables tracing
// entirely (Start on an untraced context reduces to one atomic load).
func (r *Recorder) SetSampling(every int) {
	if every < 0 {
		every = 0
	}
	r.every.Store(uint64(every))
}

// Enabled reports whether any root can currently be sampled.
func (r *Recorder) Enabled() bool { return r.every.Load() != 0 }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return len(r.ring) }

// Sampled returns how many roots were sampled since creation, including
// traces since overwritten by the ring.
func (r *Recorder) Sampled() uint64 { return r.sampled.Load() }

// Start opens a span. If ctx already carries a span, the new span joins
// that trace as a child regardless of which recorder it came from. On an
// untraced context, Start consults the sampler: the first root and every
// every-th after it begin a new trace rooted here; unsampled roots mark
// the context so the entire request stays untraced.
//
// The returned context carries the new span for further nesting; the
// returned *Span is nil when the request is not sampled (all Span methods
// are nil-safe).
func (r *Recorder) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := fromContext(ctx); parent != nil {
		if parent.tr == nil {
			return ctx, nil // suppressed trace: stay suppressed
		}
		sp := parent.tr.startChild(parent.id, name, attrs)
		return ContextWithSpan(ctx, sp), sp
	}
	every := r.every.Load()
	if every == 0 {
		return ctx, nil
	}
	if every > 1 && (r.ctr.Add(1)-1)%every != 0 {
		return ContextWithSpan(ctx, suppressed), nil
	}
	r.sampled.Add(1)
	tr := &Trace{ID: TraceID(nextID()), rec: r}
	sp := tr.startChild(0, name, attrs)
	return ContextWithSpan(ctx, sp), sp
}

// push publishes a completed trace into the ring.
func (r *Recorder) push(t *Trace) {
	r.ring[(r.head.Add(1)-1)&r.mask].Store(t)
}

// Snapshot returns up to n of the most recently completed traces, oldest
// first (n <= 0 or n > capacity returns everything retained). The traces
// are live — a span still open keeps updating them — but Spans() copies
// under the trace lock, so readers always see consistent records.
func (r *Recorder) Snapshot(n int) []*Trace {
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	h := r.head.Load()
	out := make([]*Trace, 0, n)
	for i := 0; i < len(r.ring) && len(out) < n; i++ {
		if uint64(i) >= h {
			break // ring never filled this far back
		}
		if t := r.ring[(h-1-uint64(i))&r.mask].Load(); t != nil {
			out = append(out, t)
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
