package bench

import (
	"math"
	"runtime"
	"sort"
)

// Value is one metric's measurement.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line a run prints: the machine-readable result that
// tools comparing runs read. Metrics holds every end-to-end metric
// (untraced run) or every per-layer metric (traced run).
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Check is one correctness check of a run.
type Check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// OpStat summarizes one kind of call in the timed phase.
type OpStat struct {
	N     int     `json:"n"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// Detail is the rest of a run's outcome, printed on the line before the
// result: what was checked, what the calls cost, and run metadata.
type Detail struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// CalibMs is the run's median probe time (see speed.go): it tracks
	// machine speed, so drift between runs is told apart from regressions.
	// refProbeNs is the baseline machine's uncontended value.
	CalibMs float64 `json:"calib_ms"`
	// StolenPct is the share of timed windows (serving) or solves (batch)
	// during which the machine reported steal time.
	StolenPct          float64           `json:"stolen_pct"`
	Events             int64             `json:"events"`
	WallS              float64           `json:"wall_s"`
	Ops                map[string]OpStat `json:"ops,omitempty"`
	Checks             []Check           `json:"checks"`
	Digest             string            `json:"digest,omitempty"`
	DecisionsIdentical *bool             `json:"decisions_identical,omitempty"`
	FirstError         string            `json:"first_error,omitempty"`
}

// Result is one run's outcome.
type Result struct {
	Line   Line
	Detail Detail
}

func (r *Result) set(name string, v float64) {
	unit := ""
	for _, ms := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				unit = m.Unit
			}
		}
	}
	if r.Line.Metrics == nil {
		r.Line.Metrics = make(map[string]Value)
	}
	r.Line.Metrics[name] = Value{Value: v, Unit: unit}
}

func (r *Result) check(name string, ok bool, note string) {
	r.Detail.Checks = append(r.Detail.Checks, Check{Name: name, OK: ok, Note: note})
}

// correct reports whether every check passed.
func (d *Detail) correct() bool {
	for _, c := range d.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// pct is the nearest-rank p-quantile of samples (nanoseconds), in ns; 0
// when there are none. It sorts samples in place.
func pct(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(samples, func(i, j int) bool { return samples[i] < samples[j] }) {
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	}
	k := int(math.Ceil(p*float64(len(samples)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(samples[k])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (the "exclusive" method), so spreads read the same as the
// benchmark's acceptance check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// memStats is the process's allocator and GC counters at one instant.
type memStats struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcs: m.NumGC, pauseNs: m.PauseTotalNs}
}

func (m memStats) add(o memStats) memStats {
	return memStats{mallocs: m.mallocs + o.mallocs, bytes: m.bytes + o.bytes, gcs: m.gcs + o.gcs, pauseNs: m.pauseNs + o.pauseNs}
}

func (m memStats) sub(o memStats) memStats {
	return memStats{mallocs: m.mallocs - o.mallocs, bytes: m.bytes - o.bytes, gcs: m.gcs - o.gcs, pauseNs: m.pauseNs - o.pauseNs}
}

// liveHeapMB runs two full GCs and returns the heap they leave: the
// memory the process holds for its state, independent of when the
// collector last ran. The second GC empties what the first moved into the
// sync.Pool victim caches; with one, two runs of the same seed sampled
// heaps up to 10% apart.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(ns float64) float64 { return ns / 1e6 }
