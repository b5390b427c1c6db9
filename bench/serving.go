package bench

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/platform"
)

// fillBatch is the tasks per POST /api/tasks while filling at setup.
const fillBatch = 1024

// setupReps is how many times an untraced run sets its stack or instances
// up; setup_s is the median.
const setupReps = 7

// populate registers the steady workers, fills their slots and the
// buffers, and reads back every display set, all through t. It returns
// each client's workers: client i owns workers i, i+Clients, ….
func populate(sh *Shape, seed int64, t target) ([][]*member, error) {
	in, err := newInputs(seed, "s")
	if err != nil {
		return nil, err
	}
	workers := in.workers(sh.Workers, "w")
	for _, w := range workers {
		if _, err := t.register(w); err != nil {
			return nil, fmt.Errorf("bench: setup register: %w", err)
		}
	}
	for left := sh.Fill + sh.Hold; left > 0; left -= fillBatch {
		if err := t.offer(in.tasks(min(left, fillBatch))); err != nil {
			return nil, fmt.Errorf("bench: setup fill: %w", err)
		}
	}
	out := make([][]*member, sh.Clients)
	for i, w := range workers {
		set, err := t.read(w.ID)
		if err != nil {
			return nil, fmt.Errorf("bench: setup read: %w", err)
		}
		m := &member{w: w, set: append([]*core.Task(nil), set...)}
		out[i%sh.Clients] = append(out[i%sh.Clients], m)
	}
	return out, nil
}

// churnersOf splits each cycle's churners over the clients.
func churnersOf(sh *Shape, c int) int {
	n := sh.Churners / sh.Clients
	if c < sh.Churners%sh.Clients {
		n++
	}
	return n
}

// pass is one serving pass over a fresh stack: setup, warm-up, the timed
// phase and the checks that follow it.
type pass struct {
	setupS  []float64
	wall    time.Duration
	clients []*client

	start, end  platform.ShardStatsView
	mem         memStats
	frames, ops int64
	steals      atomic.Int64
	stealRounds atomic.Int64
	backlogSum  atomic.Int64
	backlogN    atomic.Int64
	hookTimed   atomic.Bool
	bar         *barrier // where the clients meet in the timed phase
	checks      []Check
}

func (p *pass) events() (n int64) {
	for _, c := range p.clients {
		n += c.events
	}
	return n
}

func (p *pass) lat(o op) []int64 {
	var all []int64
	for _, c := range p.clients {
		all = append(all, c.lat[o]...)
	}
	return all
}

// nsPerEvent is the time per event of the timed phase at reference
// speed, so passes run at different moments compare.
func (p *pass) nsPerEvent() float64 {
	_, events, dur := atRefSpeed(p.clients)
	return float64(dur) / float64(max(events, 1))
}

// probeNs is the pass's median probe time (see speed.go).
func (p *pass) probeNs() float64 { return medianProbe(p.clients) }

// warmupCycles is the churn cycles each client runs untimed before the
// timed phase: a fixed count, so that the state the timed phase starts
// from, and the live heap measured there, does not depend on how fast
// the machine ran.
const warmupCycles = 4

// runPass sets the stack up setups times (keeping the last), warms it up
// for warmupCycles, then measures whole churn cycles for budget.
func runPass(sh *Shape, seed int64, budget time.Duration, setups int, rec *recorder, wrap func(platform.StreamBackend) platform.StreamBackend) (*pass, error) {
	p := &pass{}
	var st *stack
	var members [][]*member
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			runtime.GC()
		}
		p0, s0 := probe(), stealTicks()
		t0 := time.Now()
		var err error
		if st, err = startStack(sh, rec, wrap); err != nil {
			return nil, err
		}
		if members, err = populate(sh, seed, st.targets[0]); err != nil {
			st.close()
			return nil, err
		}
		d := unstolen(int64(time.Since(t0)), stealTicks()-s0)
		p.setupS = append(p.setupS, float64(atRef(d, (p0+probe())/2))/1e9)
	}
	defer st.close()

	var stealMu sync.Mutex // clients share the hook
	hook := func() {
		stealMu.Lock()
		defer stealMu.Unlock()
		moved := 0
		if st.eng != nil {
			moved = st.eng.StealOnce()
		}
		if p.hookTimed.Load() {
			p.steals.Add(int64(moved))
			p.stealRounds.Add(1)
			p.backlogSum.Add(int64(st.backlog()))
			p.backlogN.Add(1)
		}
	}
	for i := 0; i < sh.Clients; i++ {
		c, err := newClient(i, sh, st.targets[i], seed, members[i], churnersOf(sh, i))
		if err != nil {
			return nil, err
		}
		c.every100 = hook
		c.motivation = true
		if rec != nil {
			c.rec, c.stamp = rec, st.stamps[i]
		}
		p.clients = append(p.clients, c)
	}
	runAll := func(deadline time.Time, minSteps int) error {
		errs := make([]error, len(p.clients))
		var wg sync.WaitGroup
		for i, c := range p.clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				errs[i] = c.runUntil(deadline, minSteps)
				if c.bar != nil {
					c.bar.leave()
				}
			}(i, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := runAll(time.Now(), warmupCycles*sh.Cycle); err != nil {
		return nil, err
	}
	stats := st.targets[0].c.ShardStats
	s0, err := stats()
	if err != nil {
		return nil, fmt.Errorf("bench: stats: %w", err)
	}
	p.start = *s0
	p.bar = newBarrier(len(p.clients), heapCycles*sh.Cycle/windowSteps)
	for _, c := range p.clients {
		c.timed, c.bar = true, p.bar
	}
	p.hookTimed.Store(true)
	var frames0, ops0 int64
	if st.gw != nil {
		frames0, ops0 = st.gw.FramesSent(), st.gw.OpsSent()
	}
	m0 := readMem()
	if rec != nil {
		rec.on.Store(true)
	}
	t0 := time.Now()
	err = runAll(t0.Add(budget), max(sh.DigestSteps, heapSteps(sh)))
	p.wall = time.Since(t0)
	if rec != nil {
		rec.on.Store(false)
	}
	p.mem = readMem().sub(m0)
	p.hookTimed.Store(false)
	if st.gw != nil {
		p.frames, p.ops = st.gw.FramesSent()-frames0, st.gw.OpsSent()-ops0
	}
	if err != nil {
		return nil, err
	}
	s1, err := stats()
	if err != nil {
		return nil, fmt.Errorf("bench: stats: %w", err)
	}
	p.end = *s1
	p.check(sh)
	return p, nil
}

// lost is the tasks dropped or expired during the timed phase.
func (p *pass) lost() int64 {
	return p.end.Dropped - p.start.Dropped + p.end.Expired - p.start.Expired
}

// check runs the correctness gate on the quiescent stack.
func (p *pass) check(sh *Shape) {
	e := p.end
	sum := int64(e.Active) + e.Completed + int64(e.Buffered) + e.Dropped + e.Expired
	p.checks = append(p.checks, Check{Name: "conserved", OK: e.Conserved && e.Submitted == sum,
		Note: fmt.Sprintf("submitted %d, active+completed+buffered+dropped+expired %d, flag %v", e.Submitted, sum, e.Conserved)})
	before := p.start.Active + p.start.Buffered
	after := e.Active + e.Buffered
	p.checks = append(p.checks, Check{Name: "stationary", OK: math.Abs(float64(after-before)) <= 0.05*float64(before),
		Note: fmt.Sprintf("pending tasks %d at the start of the timed phase, %d at its end", before, after)})
	var failed int64
	var first error
	for _, c := range p.clients {
		failed += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	note := fmt.Sprintf("%d failed calls, %d tasks dropped or expired", failed, p.lost())
	if first != nil {
		note += "; first: " + first.Error()
	}
	p.checks = append(p.checks, Check{Name: "no_failures", OK: failed == 0 && first == nil && p.lost() == 0, Note: note})
}

// rowNsPerElem times metric.Row of a worker against a pack as deep as the
// workload's held buffer, drawn from the same task stream.
func rowNsPerElem(sh *Shape, seed int64) float64 {
	in, err := newInputs(seed, "r")
	if err != nil {
		return 0
	}
	tasks := in.tasks(sh.Hold)
	var pk packed
	for _, t := range tasks {
		pk.add(t)
	}
	from := in.workers(1, "r")[0].Keywords
	out := make([]float64, len(tasks))
	reps := max(1, 10_000_000/len(tasks))
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		metric.Row(metric.Jaccard{}, from, &pk.pack, pk.at, out)
	}
	return float64(time.Since(t0)) / float64(reps*len(tasks))
}

// runServing runs a Stream or Cluster workload. An untraced run reports
// the end-to-end metrics; a traced run splits the same budget over an
// untraced pass, a pass with the product's obs and ops instruments off, a
// traced pass and, for Stream workloads, the in-process ladder, and
// reports the per-layer metrics.
func runServing(sh *Shape, opt Options, res *Result) error {
	budget := time.Duration(opt.Seconds * float64(time.Second))
	if !opt.Trace {
		p, err := runPass(sh, opt.Seed, budget, setupReps, nil, opt.wrap)
		if err != nil {
			return err
		}
		p.report(sh, res)
		// Clients run concurrently, so the events of each client's windows
		// over their time scale to the whole crowd by the client count.
		lat, events, dur := atRefSpeed(p.clients)
		res.set("setup_s", median(p.setupS))
		res.set("events_per_s", float64(sh.Clients)*float64(events)/(float64(dur)/1e9))
		res.set("wait_p50_ms", ms(pct(lat[opComplete], 0.5)))
		res.set("wait_p95_ms", ms(pct(lat[opComplete], 0.95)))
		res.set("side_p50_ms", ms(pct(lat[sh.Side], 0.5)))
		res.set("side_p95_ms", ms(pct(lat[sh.Side], 0.95)))
		var sum float64
		var n int64
		for _, c := range p.clients {
			sum, n = sum+c.motivSum, n+c.motivN
		}
		res.set("motivation_mean", sum/float64(max(n, 1)))
		res.set("heap_mb", median(p.bar.heap))
		return nil
	}

	parts := 3
	if sh.Kind == Stream {
		parts++
	}
	part := budget / time.Duration(parts)
	base, err := runPass(sh, opt.Seed, part, 1, nil, opt.wrap)
	if err != nil {
		return err
	}
	base.report(sh, res)
	obs.SetEnabled(false)
	ops.SetEnabled(false)
	off, err := runPass(sh, opt.Seed, part, 1, nil, opt.wrap)
	obs.SetEnabled(true)
	ops.SetEnabled(true)
	if err != nil {
		return err
	}
	res.Detail.Checks = append(res.Detail.Checks, prefixed("obs_off.", off.checks)...)
	rec := newRecorder()
	traced, err := runPass(sh, opt.Seed, part, 1, rec, opt.wrap)
	if err != nil {
		return err
	}
	res.Detail.Checks = append(res.Detail.Checks, prefixed("traced.", traced.checks)...)

	ev := float64(max(base.events(), 1))
	res.set("runtime.allocs_per_event", float64(base.mem.mallocs)/ev)
	res.set("runtime.bytes_per_event", float64(base.mem.bytes)/ev)
	res.set("runtime.gc_cycles_per_1k_events", 1000*float64(base.mem.gcs)/ev)
	res.set("runtime.gc_pause_ms_total", float64(base.mem.pauseNs)/1e6)
	res.set("shard.steal_moved_per_round", float64(base.steals.Load())/float64(max(base.stealRounds.Load(), 1)))
	res.set("shard.backlog_mean", float64(base.backlogSum.Load())/float64(max(base.backlogN.Load(), 1)))
	if sh.Hold > 0 {
		res.set("metric.row_ns_per_elem", rowNsPerElem(sh, opt.Seed))
	}
	if base.frames > 0 {
		res.set("cluster.frames_per_event", float64(base.frames)/ev)
		res.set("cluster.ops_per_frame", float64(base.ops)/float64(base.frames))
	}
	res.set("obs.overhead_pct", 100*(base.nsPerEvent()/off.nsPerEvent()-1))
	res.set("bench.trace_overhead_pct", 100*(traced.nsPerEvent()/base.nsPerEvent()-1))
	sp := spanMetrics(sh, rec, res)

	if sh.Kind == Stream {
		rungs, err := ladder(sh, opt.Seed, part)
		if err != nil {
			return err
		}
		a, e1, e2 := rungs[0], rungs[1], rungs[2]
		res.set("stream.complete_ns", a.completeP50)
		res.set("stream.offer_ns", a.offerPerTask)
		res.set("stream.allocs_per_event", a.allocsPerEvent)
		res.set("ladder.assigner.ns_per_event", a.nsPerEvent)
		res.set("ladder.assigner.complete_ns_p99", a.completeP99)
		res.set("shard.actor_overhead_ns_per_event", e1.nsPerEvent-a.nsPerEvent)
		for _, r := range []rung{e1, e2} {
			res.set("ladder."+r.name+".ns_per_event", r.nsPerEvent)
			res.set("ladder."+r.name+".allocs_per_event", r.allocsPerEvent)
			res.set("ladder."+r.name+".complete_ns_p50", r.completeP50)
			res.set("ladder."+r.name+".complete_ns_p99", r.completeP99)
		}
		// The HTTP time per event should be the engine's (the top rung,
		// rescaled to the traced pass's machine speed) plus what the
		// platform adds around it.
		tev := float64(max(traced.events(), 1))
		e2ns := e2.nsPerEvent * traced.probeNs() / e2.probeNs
		res.set("ladder.accounted_pct", 100*(e2ns+sp.platformNs/tev)/(sp.clientNs/tev))
		res.check("ladder.engine1_matches_assigner", e1.digest == a.digest,
			fmt.Sprintf("decision digests %016x (Engine{Shards:1}) and %016x (Assigner)", e1.digest, a.digest))
	}
	return writeTrace(opt.TracePath, sh.Name, rec.spans)
}

// report copies a pass's checks, call statistics and digest into res.
func (p *pass) report(sh *Shape, res *Result) {
	res.Detail.Checks = append(res.Detail.Checks, p.checks...)
	res.Detail.Events = p.events()
	res.Detail.WallS = p.wall.Seconds()
	res.Detail.Ops = make(map[string]OpStat)
	for o := op(0); o < numOps; o++ {
		if l := p.lat(o); len(l) > 0 {
			res.Detail.Ops[o.String()] = OpStat{N: len(l), P50ms: ms(pct(l, 0.5)), P99ms: ms(pct(l, 0.99))}
		}
	}
	for _, c := range p.clients {
		res.Line.Attempted += c.attempted
		res.Line.Failed += c.failed
		if c.firstErr != nil && res.Detail.FirstError == "" {
			res.Detail.FirstError = c.firstErr.Error()
		}
	}
	res.Line.Failed += p.lost()
	res.Detail.CalibMs = ms(p.probeNs())
	var stolen, windows int
	for _, c := range p.clients {
		for _, w := range c.windows {
			if w.stolen > 0 {
				stolen++
			}
		}
		windows += len(c.windows)
	}
	res.Detail.StolenPct = 100 * float64(stolen) / float64(max(windows, 1))
	if sh.Clients == 1 && sh.DigestSteps > 0 {
		res.Detail.Digest = fmt.Sprintf("%016x", p.clients[0].digest)
	}
}

func prefixed(prefix string, cs []Check) []Check {
	out := make([]Check, len(cs))
	for i, c := range cs {
		c.Name = prefix + c.Name
		out[i] = c
	}
	return out
}
