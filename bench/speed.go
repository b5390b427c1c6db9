package bench

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The machines this benchmark runs on are shared: another tenant
// contending for the same physical cores slows every instruction by up to
// 2×, in bursts from milliseconds to minutes long, and the guest sees no
// steal time for that. No percentile and no feasible run length averages that
// away: runs of the same code differed by 10–30%. So every end-to-end
// timing is scaled to a reference speed. Before each window of work (16
// steps of every serving client, one solve, one setup) the benchmark times
// a probe, a fixed loop owned by this package so that no product change
// can move it, and multiplies the window's times by the probe's reference
// time over its measured time. A probe runs only while no product call is
// in flight, so a change that makes the product busier cannot slow the
// probe and hide itself. The raw, unscaled call times stay in each run's
// detail line.
//
// Contention slows kinds of code unequally, so each timing is scaled by
// the probe that slows like it: the serving paths and set-ups like probe's
// popcount loop, the solvers' matching and assignment like sortProbe. Each
// pairing was chosen by measuring the seed-to-seed spread of the scaled
// metrics under both probes.
//
// The host also deschedules the guest's vCPUs outright, for milliseconds
// at a time, and that the guest does see, as steal time. A probe taken
// between stalls cannot scale them away, and in phases of heavy steal they
// dominated every tail and throughput. So the steal counter is read
// around each window of work, too: a serving window during which the
// machine reported steal is left out (see cleanWindows), and a solve or a
// set-up has the reported steal taken off its time (see unstolen).

// refProbeNs and refSortNs are probe's and sortProbe's times on an
// uncontended core of the baseline machine (the fastest one percent of
// 20,000 tries).
const (
	refProbeNs = 45_000
	refSortNs  = 66_000
)

// windowSteps is the steps of a serving client per probed window. Churn
// cycles are whole multiples of it.
const windowSteps = 16

var probeData = func() []uint64 {
	r := rand.New(rand.NewSource(42))
	d := make([]uint64, 4096)
	for i := range d {
		d[i] = r.Uint64() & r.Uint64()
	}
	return d
}()

var sortData = func() []int {
	r := rand.New(rand.NewSource(42))
	d := make([]int, 2048)
	for i := range d {
		d[i] = r.Int()
	}
	return d
}()

// probeSink keeps the compiler from discarding the probes' work.
var probeSink atomic.Uint64

// Each probe runs its loop twice and times the second pass: the first
// brings its data back into the caches, so what the product's last call
// left there does not change the probe's time.

// probe times a fixed Jaccard-style popcount loop — the kind of work the
// engine does — of about refProbeNs on an uncontended core.
func probe() int64 {
	var d int64
	var acc float64
	for range 2 {
		t0 := time.Now()
		for r := 0; r < 6; r++ {
			for i := 0; i+1 < len(probeData); i += 2 {
				a, b := probeData[i], probeData[(i*7+r)%len(probeData)]
				if un := bits.OnesCount64(a | b); un > 0 {
					acc += 1 - float64(bits.OnesCount64(a&b))/float64(un)
				}
			}
		}
		d = int64(time.Since(t0))
	}
	probeSink.Store(math.Float64bits(acc))
	return d
}

// sortProbe times sorting a fixed array — branchy, data-dependent work
// like the solvers' — of about refSortNs on an uncontended core.
func sortProbe() int64 {
	buf := make([]int, len(sortData))
	var d int64
	for range 2 {
		t0 := time.Now()
		copy(buf, sortData)
		slices.Sort(buf)
		d = int64(time.Since(t0))
	}
	probeSink.Store(uint64(buf[0]))
	return d
}

// atRef scales d, measured while probe took p, to reference speed.
func atRef(d, p int64) int64 { return int64(float64(d) * refProbeNs / float64(p)) }

// sortAtRef scales d, measured while sortProbe took p, to reference speed.
func sortAtRef(d, p int64) int64 { return int64(float64(d) * refSortNs / float64(p)) }

// stealTick is the unit of the steal counter in /proc/stat (USER_HZ = 100).
const stealTick = int64(10 * time.Millisecond)

// stealTicks returns the machine's steal time so far, summed over its
// CPUs, in stealTicks: the eighth value of /proc/stat's first line. It is 0
// where there is no such file. It reads into a buffer on the stack, so the
// timed phase's allocation counts stay the product's.
func stealTicks() int64 {
	fd, err := syscall.Open("/proc/stat", syscall.O_RDONLY, 0)
	if err != nil {
		return 0
	}
	var buf [256]byte
	n, _ := syscall.Read(fd, buf[:])
	syscall.Close(fd)
	return stealField(buf[:max(n, 0)])
}

// stealField parses the steal value out of /proc/stat's first line.
func stealField(b []byte) int64 {
	values, v, inNum := 0, int64(0), false
	for _, c := range b {
		if c >= '0' && c <= '9' {
			v, inNum = 10*v+int64(c-'0'), true
			continue
		}
		if inNum {
			if values++; values == 8 {
				return v
			}
			v, inNum = 0, false
		}
		if c == '\n' {
			return 0
		}
	}
	return 0
}

// unstolen takes the steal reported during a span of d off it. The
// counter is summed over the CPUs, and a span runs on one at a time, so
// only one CPU's share of the ticks is taken; taking all of them made the
// most-stolen solves and set-ups come out faster than unstolen ones. The
// counter is coarse, so at most half of d is taken.
func unstolen(d, ticks int64) int64 {
	return max(d-ticks*stealTick/int64(runtime.NumCPU()), d/2)
}

// cleanWindows picks the serving windows the timings come from: those
// during which no steal was reported, but at least a quarter of all
// windows, the ones with the least steal first.
func cleanWindows(clients []*client) map[*window]bool {
	var all []*window
	for _, c := range clients {
		for i := range c.windows {
			all = append(all, &c.windows[i])
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].stolen < all[j].stolen })
	keep := make(map[*window]bool, len(all))
	for i, w := range all {
		if w.stolen > 0 && i >= (len(all)+3)/4 {
			break
		}
		keep[w] = true
	}
	return keep
}

// The live heap is sampled at every heapCycles-th churn-cycle boundary of
// the timed phase, heapSamples times: at fixed step counts, so that the
// samples do not depend on how fast the machine ran; at cycle boundaries,
// where the pending tasks are the same every time; and over a few
// thousand steps, because the engines' slice capacities, and with them
// the heap, jump between a few sizes as the buffers move. Every client
// runs at least heapSteps timed steps, so that a slow run takes every
// sample too; when it took fewer, the heap it reported shrank with its
// speed.
const (
	heapCycles  = 2
	heapSamples = 8
)

func heapSteps(sh *Shape) int { return heapCycles * heapSamples * sh.Cycle }

// barrier is where the clients of one pass meet between windows. Each
// client calls pause at a window boundary; the last to arrive runs probe,
// and every client opens its next window with that probe's time. Nothing
// the product does for a client is in flight then, so that is also where
// the live heap is sampled. A client that has finished calls leave.
type barrier struct {
	mu        sync.Mutex
	cond      sync.Cond
	parties   int // clients still running
	waiting   int
	gen       uint64
	last      int64
	heapEvery uint64    // meetings between heap samples; 0 = none
	heap      []float64 // live heap samples, MB
}

func newBarrier(parties, heapEvery int) *barrier {
	b := &barrier{parties: parties, heapEvery: uint64(heapEvery)}
	b.cond.L = &b.mu
	return b
}

// pause waits until every running client has paused, and returns the
// probe time taken while they were.
func (b *barrier) pause() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.parties {
		b.release()
		return b.last
	}
	for gen := b.gen; gen == b.gen; {
		b.cond.Wait()
	}
	return b.last
}

// leave removes a finished client, releasing the others if they were
// waiting only for it.
func (b *barrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parties--
	if b.waiting > 0 && b.waiting == b.parties {
		b.release()
	}
}

func (b *barrier) release() {
	if b.heapEvery > 0 && b.gen%b.heapEvery == 0 && len(b.heap) < heapSamples {
		b.heap = append(b.heap, liveHeapMB())
	}
	b.last = probe()
	b.waiting = 0
	b.gen++
	b.cond.Broadcast()
}
