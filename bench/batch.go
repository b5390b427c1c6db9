package bench

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

// batchPass is one batch-solve pass: build the instances, solve each with
// HTA-APP and HTA-GRE once to warm up and fix the reference results, then
// solve the first Shape.Timed of them round after round.
type batchPass struct {
	setupS   []float64
	buildMs  []float64
	solves   [][2][]solveStat // timed solves by instance and algorithm (0 = APP, 1 = GRE)
	motivSum float64          // of round one's sets
	sets     int64
	digest   uint64
	mem      memStats
	heap     []float64 // live heap after each instance's timed solves, MB
	checks   []Check

	// Solves checked, those failing each check, and the first failure.
	checked, invalid, drifted, mismatched int64
	firstBad                              string
}

// solveStat is one timed solve: its wall time, the mean of the sortProbe
// times just before and after it, the steal ticks reported during it, and
// the phase timings solver.Result reports.
type solveStat struct {
	d, probe, stolen     int64
	matching, lsap, rest int64
	assigned             int64
}

// atRefSpeed returns, per algorithm, each instance's solve time at
// reference speed — the median over its repeats of the solve time less
// its steal (see unstolen), scaled by its probes (see sortAtRef) — and the
// tasks one round of solves assigns.
func (p *batchPass) atRefSpeed() (times [2][]int64, assigned int64) {
	for _, byAlg := range p.solves {
		for a, ss := range byAlg {
			var ts []float64
			for _, x := range ss {
				ts = append(ts, float64(sortAtRef(unstolen(x.d, x.stolen), x.probe)))
			}
			times[a] = append(times[a], int64(median(ts)))
			assigned += ss[0].assigned
		}
	}
	return times, assigned
}

var batchAlgs = [2]struct {
	o     op
	solve func(*core.Instance, ...solver.Option) (*solver.Result, error)
}{{opSolveAPP, solver.HTAAPP}, {opSolveGRE, solver.HTAGRE}}

// buildInstances generates the seeded instances: |Tasks| tasks in Groups
// groups and Workers workers each (the generator's default five keywords
// per synthetic worker, as in the paper's Section V-B), with motivation
// weights from spreadWeights.
func buildInstances(sh *Shape, seed int64, rec *recorder) ([]*core.Instance, []float64, error) {
	var out []*core.Instance
	var build []float64
	for i := 0; i < sh.Instances; i++ {
		s := seed*1_000_003 + int64(i)
		gen, err := workload.NewGenerator(workload.Config{Universe: universe, Seed: s})
		if err != nil {
			return nil, nil, err
		}
		tasks := gen.Tasks(sh.Groups, sh.Tasks/sh.Groups)
		workers := gen.Workers(sh.Workers)
		spreadWeights(workers, rand.New(rand.NewSource(s)))
		t0 := time.Now()
		inst, err := core.NewInstance(tasks, workers, sh.Xmax, metric.Jaccard{})
		d := time.Since(t0)
		if err != nil {
			return nil, nil, err
		}
		if rec != nil {
			start := rec.at(t0)
			rec.add(span{id: rec.newID(), layer: layerInstance, op: "core.NewInstance", start: start, end: start + int64(d)})
		}
		build = append(build, float64(d)/1e6)
		out = append(out, inst)
	}
	return out, build, nil
}

// spreadWeights gives the workers α at evenly spaced quantiles of the
// generator's own distribution (α = U/(U+V) for independent uniforms U, V,
// then β = 1 − α), in a seeded order. The objective is dominated by α, and
// twenty independent draws per instance moved the mean motivation by
// several percent from seed to seed; spread evenly, every seed's crowd
// has the same mix of weights and differs only in keywords and order.
func spreadWeights(ws []*core.Worker, rng *rand.Rand) {
	for i, k := range rng.Perm(len(ws)) {
		p := (float64(k) + 0.5) / float64(len(ws))
		a := 1 / (3 - 2*p) // the quantile function of U/(U+V) above its median
		if p < 0.5 {
			a = 2 * p / (1 + 2*p)
		}
		ws[i].Alpha, ws[i].Beta = a, 1-a
	}
}

func runBatchPass(sh *Shape, seed int64, budget time.Duration, setups int, rec *recorder) (*batchPass, error) {
	p := &batchPass{digest: fnvOffset}
	var insts []*core.Instance
	for i := 0; i < setups; i++ {
		p0, s0 := probe(), stealTicks()
		t0 := time.Now()
		var build []float64
		var err error
		if insts, build, err = buildInstances(sh, seed, rec); err != nil {
			return nil, err
		}
		d := unstolen(int64(time.Since(t0)), stealTicks()-s0)
		p.setupS = append(p.setupS, float64(atRef(d, (p0+probe())/2))/1e9)
		p.buildMs = append(p.buildMs, build...)
	}
	ref := make([][2]float64, len(insts))
	p.solves = make([][2][]solveStat, min(sh.Timed, len(insts)))
	// solve runs both algorithms on instance i and checks the results.
	// Round one fixes the reference objectives, the digest and
	// motivation_mean; every later round must reproduce its objectives.
	solve := func(i int, first, timed bool) error {
		in := insts[i]
		for a, alg := range batchAlgs {
			var p0, s0 int64
			if timed {
				p0, s0 = sortProbe(), stealTicks()
			}
			t0 := time.Now()
			res, err := alg.solve(in)
			d := time.Since(t0)
			var stolen int64
			if timed {
				stolen = stealTicks() - s0
			}
			if err != nil {
				return fmt.Errorf("bench: %s on instance %d: %w", alg.o, i, err)
			}
			if first {
				ref[i][a] = res.Objective
				p.digest = fnvString(p.digest, fmt.Sprint(res.Assignment.Sets))
			}
			motiv := p.check(in, res, ref[i][a], alg.o, i)
			if first {
				p.motivSum += motiv
				p.sets += int64(len(res.Assignment.Sets))
			}
			if !timed {
				continue
			}
			if rec != nil {
				start := rec.at(t0)
				rec.add(span{id: rec.newID(), layer: layerSolve, op: alg.o.String(), start: start, end: start + int64(d)})
			}
			p.solves[i][a] = append(p.solves[i][a], solveStat{
				d: int64(d), probe: (p0 + sortProbe()) / 2, stolen: stolen,
				matching: int64(res.MatchingTime), lsap: int64(res.LSAPTime),
				rest:     int64(res.TotalTime - res.MatchingTime - res.LSAPTime),
				assigned: int64(res.Assignment.AssignedCount()),
			})
		}
		if timed {
			p.heap = append(p.heap, liveHeapMB())
		}
		return nil
	}
	// Round one is the warm-up; it is repeated only if it was shorter
	// than a twentieth of budget.
	for first, warm := true, time.Now().Add(budget/20); first || time.Now().Before(warm); first = false {
		for i := range insts {
			if err := solve(i, first, false); err != nil {
				return nil, err
			}
		}
	}
	// The timed phase solves the first Timed instances round after round:
	// at least one whole round, then up to the first instance after budget
	// has passed.
	m0 := readMem()
	end := time.Now().Add(budget)
timed:
	for whole := false; ; whole = true {
		for i := range p.solves {
			if whole && !time.Now().Before(end) {
				break timed
			}
			if err := solve(i, false, true); err != nil {
				return nil, err
			}
		}
	}
	p.mem = readMem().sub(m0)
	note := func(n int64) string {
		s := fmt.Sprintf("%d of %d solves", n, p.checked)
		if n > 0 {
			s += "; first: " + p.firstBad
		}
		return s
	}
	p.checks = append(p.checks,
		Check{Name: "assignments_valid", OK: p.invalid == 0, Note: note(p.invalid)},
		Check{Name: "objective_identical_across_rounds", OK: p.drifted == 0, Note: note(p.drifted)},
		Check{Name: "objective_recomputed", OK: p.mismatched == 0, Note: note(p.mismatched)})
	return p, nil
}

// check validates one solve: the assignment is feasible (C1, C2), and its
// objective matches round one's and a client-side recomputation of
// Equation 3, which it returns.
func (p *batchPass) check(in *core.Instance, res *solver.Result, ref float64, o op, inst int) float64 {
	recomputed := 0.0
	set := make([]*core.Task, 0, in.Xmax)
	for q, idx := range res.Assignment.Sets {
		set = set[:0]
		for _, k := range idx {
			if k >= 0 && k < in.NumTasks() {
				set = append(set, in.Tasks[k])
			}
		}
		w := in.Workers[q]
		recomputed += motivation(set, w.Alpha, w.Beta, w.Keywords)
	}
	bad := func(n *int64, format string, args ...any) {
		*n++
		if p.firstBad == "" {
			p.firstBad = fmt.Sprintf("%s on instance %d: ", o, inst) + fmt.Sprintf(format, args...)
		}
	}
	p.checked++
	if err := res.Assignment.Validate(in); err != nil {
		bad(&p.invalid, "%v", err)
	}
	if res.Objective != ref {
		bad(&p.drifted, "objective %v, round one %v", res.Objective, ref)
	}
	if !closeTo(recomputed, res.Objective) {
		bad(&p.mismatched, "objective %v, recomputed %v", res.Objective, recomputed)
	}
	return recomputed
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*max(1, b, -b)
}

// runBatch runs batch-solve. A traced run splits the budget over an
// untraced and a traced pass.
func runBatch(sh *Shape, opt Options, res *Result) error {
	budget := time.Duration(opt.Seconds * float64(time.Second))
	if !opt.Trace {
		p, err := runBatchPass(sh, opt.Seed, budget, setupReps, nil)
		if err != nil {
			return err
		}
		p.report(res)
		times, assigned := p.atRefSpeed()
		var total int64
		for _, ts := range times {
			for _, t := range ts {
				total += t
			}
		}
		res.set("setup_s", median(p.setupS))
		res.set("events_per_s", float64(assigned)/(float64(total)/1e9))
		res.set("wait_p50_ms", ms(pct(times[0], 0.5)))
		res.set("wait_p95_ms", ms(pct(times[0], 0.95)))
		res.set("side_p50_ms", ms(pct(times[1], 0.5)))
		res.set("side_p95_ms", ms(pct(times[1], 0.95)))
		res.set("motivation_mean", p.motivSum/float64(max(p.sets, 1)))
		res.set("heap_mb", median(p.heap))
		return nil
	}
	base, err := runBatchPass(sh, opt.Seed, budget/2, 1, nil)
	if err != nil {
		return err
	}
	base.report(res)
	rec := newRecorder()
	traced, err := runBatchPass(sh, opt.Seed, budget/2, 1, rec)
	if err != nil {
		return err
	}
	res.Detail.Checks = append(res.Detail.Checks, prefixed("traced.", traced.checks)...)
	var phase [3][2][]int64 // matching, LSAP and the rest, by algorithm
	for a := range batchAlgs {
		for _, s := range base.pooled(a) {
			phase[0][a] = append(phase[0][a], s.matching)
			phase[1][a] = append(phase[1][a], s.lsap)
			phase[2][0] = append(phase[2][0], s.rest)
		}
	}
	ev := float64(max(res.Detail.Events, 1))
	res.set("runtime.allocs_per_event", float64(base.mem.mallocs)/ev)
	res.set("runtime.bytes_per_event", float64(base.mem.bytes)/ev)
	res.set("runtime.gc_cycles_per_1k_events", 1000*float64(base.mem.gcs)/ev)
	res.set("runtime.gc_pause_ms_total", float64(base.mem.pauseNs)/1e6)
	res.set("solver.app_matching_ms_p50", ms(pct(phase[0][0], 0.5)))
	res.set("solver.gre_matching_ms_p50", ms(pct(phase[0][1], 0.5)))
	res.set("solver.app_lsap_ms_p50", ms(pct(phase[1][0], 0.5)))
	res.set("solver.gre_lsap_ms_p50", ms(pct(phase[1][1], 0.5)))
	res.set("solver.rest_ms_p50", ms(pct(phase[2][0], 0.5)))
	res.set("core.instance_build_ms", median(base.buildMs))
	res.set("bench.trace_overhead_pct", 100*(traced.nsPerTask()/base.nsPerTask()-1))
	return writeTrace(opt.TracePath, sh.Name, rec.spans)
}

// pooled returns every timed solve of algorithm a, as measured.
func (p *batchPass) pooled(a int) []solveStat {
	var out []solveStat
	for _, byAlg := range p.solves {
		out = append(out, byAlg[a]...)
	}
	return out
}

// nsPerTask is the measured solver time per assigned task.
func (p *batchPass) nsPerTask() float64 {
	var d, n int64
	for a := range batchAlgs {
		for _, s := range p.pooled(a) {
			d, n = d+s.d, n+s.assigned
		}
	}
	return float64(d) / float64(max(n, 1))
}

func (p *batchPass) report(res *Result) {
	res.Detail.Checks = append(res.Detail.Checks, p.checks...)
	res.Detail.Ops = make(map[string]OpStat)
	var probes []float64
	stolen := 0
	for a, alg := range batchAlgs {
		var l []int64
		for _, s := range p.pooled(a) {
			res.Detail.Events += s.assigned
			res.Detail.WallS += float64(s.d) / 1e9
			l = append(l, s.d)
			probes = append(probes, float64(s.probe))
			if s.stolen > 0 {
				stolen++
			}
		}
		res.Detail.Ops[alg.o.String()] = OpStat{N: len(l), P50ms: ms(pct(l, 0.5)), P99ms: ms(pct(l, 0.99))}
	}
	res.Detail.CalibMs = ms(median(probes))
	res.Detail.StolenPct = 100 * float64(stolen) / float64(max(len(probes), 1))
	res.Line.Attempted += p.checked
	res.Line.Failed += p.invalid + p.drifted + p.mismatched
	res.Detail.Digest = fmt.Sprintf("%016x", p.digest)
}
