package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a streaming histogram over fixed bucket boundaries.
// Observe is lock-free: a binary search over the (immutable) bounds plus
// four atomic updates (bucket count, total count, sum, min/max). Quantiles
// are estimated from a Snapshot by linear interpolation inside the bucket
// holding the target rank, clamped to the observed [Min, Max].
//
// Concurrent Observe calls are safe. Snapshot taken concurrently with
// writes is not a single atomic cut — per-field counts may disagree by the
// handful of observations in flight — which is the standard trade for a
// lock-free write path; scrape-time consistency at that granularity is
// irrelevant for operational telemetry.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; bucket i counts v <= bounds[i]
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // float64 bits, initialized to +Inf
	maxBits atomic.Uint64 // float64 bits, initialized to -Inf
}

// newHistogram builds a histogram over the given bucket upper bounds.
// Bounds must be sorted strictly increasing and non-empty; an implicit
// +Inf bucket is appended.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v → bucket index
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds (exclusive of the implicit +Inf).
	Bounds []float64
	// Counts[i] is the number of observations v with v <= Bounds[i]
	// (and > Bounds[i-1]); Counts[len(Bounds)] is the +Inf overflow.
	Counts []uint64
	Count  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Snapshot copies the histogram state for rendering and quantile queries.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Min:    math.Float64frombits(h.minBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns Sum/Count, or NaN when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket containing the target rank, clamped to [Min, Max] so
// estimates never leave the observed range. Returns NaN when the histogram
// is empty or q is outside [0, 1]. Quantile is monotone in q.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	target := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			frac := (target - cum) / float64(c)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			var v float64
			switch {
			case math.IsInf(lo, 0) && math.IsInf(hi, 0):
				v = lo
			case math.IsInf(lo, 0):
				// ±Inf edges (infinite observations, or Min/Max still at
				// their sentinels on a torn concurrent snapshot) cannot be
				// interpolated — collapse to the finite edge; the final
				// clamp keeps the result inside [Min, Max].
				v = hi
			case math.IsInf(hi, 0):
				v = lo
			default:
				if lo > hi {
					lo = hi
				}
				v = lo + frac*(hi-lo)
			}
			return clamp(v, s.Min, s.Max)
		}
		cum = next
	}
	return s.Max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// DurationBuckets are the default bounds (in seconds) for latency
// histograms: log-spaced from 1µs to ~100s, four buckets per decade.
// Resolution is ~1.78× per bucket — tight enough that an interpolated p99
// is within a factor of two of truth at any scale the pipeline hits.
func DurationBuckets() []float64 { return logBuckets(1e-6, 100, 4) }

// SizeBuckets are default bounds for count-valued histograms (batch sizes,
// queue drains): log-spaced from 1 to 1e6, three buckets per decade.
func SizeBuckets() []float64 { return logBuckets(1, 1e6, 3) }

// logBuckets generates log-spaced bounds from lo to hi inclusive with
// perDecade buckets per factor of ten.
func logBuckets(lo, hi float64, perDecade int) []float64 {
	var out []float64
	ratio := math.Pow(10, 1/float64(perDecade))
	for v := lo; v < hi*(1+1e-9); v *= ratio {
		out = append(out, v)
	}
	return out
}

// ObserveDuration records a duration measured with time.Now and
// time.Since into h, in seconds; a nil h records nothing.
func ObserveDuration(h *Histogram, d time.Duration) {
	if h != nil {
		h.Observe(d.Seconds())
	}
}
