// Package solver implements the paper's task assignment algorithms:
//
//   - HTAAPP — Algorithm 1, a ¼-approximation adapted from Arkin et al.'s
//     MAXQAP algorithm: a matching M_B on the diversity graph, an exact
//     Hungarian solution of an auxiliary LSAP, and a random flip of matched
//     pairs.
//   - HTAGRE — Algorithm 2, a ⅛-approximation that replaces the Hungarian
//     step with the ½-approximate greedy bipartite matching, lowering the
//     time complexity from O(|T|³) to O(|T|²).
//   - Variants HTA-GRE-DIV and HTA-GRE-REL (Section V-C), the Random
//     baseline, and an exact brute-force solver for small instances.
//
// All solvers return a Result carrying the assignment, its objective value
// and the phase timings the paper reports in Figure 2a (matching vs LSAP).
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/matching"
	"github.com/htacs/ata/internal/par"
	"github.com/htacs/ata/internal/qap"
	"github.com/htacs/ata/internal/trace"
)

// Result is the outcome of one solver run.
type Result struct {
	Assignment *core.Assignment
	// Objective is Σ_w motiv(T_w, w) for Assignment.
	Objective float64
	// Algorithm identifies the solver ("hta-app", "hta-gre", …).
	Algorithm string
	// MatchingTime is the time spent computing M_B (Line 2); LSAPTime the
	// time in the auxiliary assignment step (Line 11); TotalTime the whole
	// run. Figure 2a plots exactly this split.
	MatchingTime time.Duration
	LSAPTime     time.Duration
	TotalTime    time.Duration
	// PrecomputeTime is the time spent materializing the pairwise distance
	// matrix when WithParallelism enabled the diversity kernel. Zero when
	// the kernel is off, when the instance already carried a cache (e.g.
	// the adaptive engine precomputed it across iterations), or when the
	// precomputeMinTasks gate decided the fill would not amortize (small
	// instances and GRE-family solvers; see WithEagerPrecompute).
	PrecomputeTime time.Duration
}

type config struct {
	ctx             context.Context
	rng             *rand.Rand
	skipFlip        bool
	skipShuffle     bool
	allowNonMetric  bool
	matcher         func(n int, w matching.WeightFunc) matching.Matching
	parallel        int // 0 = serial legacy path; >= 1 = diversity kernel with that many goroutines
	denseLSAP       bool
	eagerPrecompute bool
	ws              *lsap.Workspace
}

// Option customizes a solver run.
type Option func(*config)

// WithContext propagates ctx into the run so the pipeline's phase spans
// join the caller's trace (see internal/trace). A context without a
// sampled span — or no WithContext at all — costs one nil check per
// phase; the solver never starts a fresh trace root on its own.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// WithRand supplies the random source for the pairwise flip step (Lines
// 12–14 of Algorithm 1). Runs are deterministic for a fixed seed. The
// default uses a fixed seed of 1.
func WithRand(r *rand.Rand) Option { return func(c *config) { c.rng = r } }

// WithoutFlip disables the random flip of matched endpoints. The flip is
// what makes the ¼ (resp. ⅛) bound hold in expectation; disabling it is
// used by the ablation benches.
func WithoutFlip() Option { return func(c *config) { c.skipFlip = true } }

// WithoutTaskShuffle disables the random task reindexing applied before
// solving. The shuffle is an implementation choice beyond the paper's
// pseudocode: AMT-style corpora contain runs of identical tasks (task
// groups), and with deterministic indexing the auxiliary LSAP's tied
// profits assign whole runs to one worker, collapsing that worker's
// diversity — to the point where random assignment can beat the
// approximation algorithms. Randomizing the tie-break restores the
// expected diversity at no cost to the guarantee. Disable only for
// ablation or to replay the paper's literal pseudocode.
func WithoutTaskShuffle() Option { return func(c *config) { c.skipShuffle = true } }

// AllowNonMetric lets the solver run on instances whose distance is not a
// metric. The output remains feasible but the approximation factors of
// Theorems 3 and 4 no longer hold (the paper notes MAXQAP is largely
// inapproximable without the metric assumption).
func AllowNonMetric() Option { return func(c *config) { c.allowNonMetric = true } }

// WithMatcher overrides the algorithm used for the diversity matching M_B.
// The default is matching.AutoP (sort-greedy below the edge-list memory
// threshold, suitor above; both are the same ½-approximate greedy) at the
// run's parallelism level. An explicit matcher wins over WithParallelism for
// the matching phase.
func WithMatcher(m func(n int, w matching.WeightFunc) matching.Matching) Option {
	return func(c *config) { c.matcher = m }
}

// WithParallelism enables the cached diversity kernel: before solving, the
// instance's full pairwise distance matrix is materialized with p goroutines
// (p >= 1 literal, p <= 0 → runtime.NumCPU()), and the matching, profit and
// LSAP construction phases shard their loops across the same p. Results are
// bit-identical to the serial path for every p — parallelism only changes
// when distances are computed, never what the solver sees — so this is a
// pure time/memory trade: the cache costs O(|T|²/2) float64s (~400 MB at
// the paper's 10k-task scale). The precompute cost is reported in
// Result.PrecomputeTime; instances that already carry a cache (e.g. from
// adaptive's cross-iteration kernel) skip it, and run skips the eager fill
// when it would not amortize (see precomputeMinTasks / WithEagerPrecompute)
// while still sharding the remaining phases across p.
func WithParallelism(p int) Option {
	return func(c *config) { c.parallel = par.N(p) }
}

// WithDenseLSAP forces HTAAPP's auxiliary LSAP through the dense O(|T|³)
// Hungarian instead of the class-collapsed O(|T|²·|W|) solver the lsap.Auto
// dispatcher picks by default. Both are exact — this is the escape hatch
// for parity testing and before/after benchmarking, not a quality knob.
func WithDenseLSAP() Option { return func(c *config) { c.denseLSAP = true } }

// WithWorkspace supplies a reusable lsap.Workspace for the auxiliary LSAP
// step, so repeated solves (e.g. the adaptive loop, one per iteration)
// reuse scratch buffers instead of re-allocating O(|T|) slices every run.
// The workspace is not safe for concurrent use: callers running solvers
// concurrently need one workspace per goroutine (or none — a nil workspace
// allocates privately, which is the default).
func WithWorkspace(ws *lsap.Workspace) Option { return func(c *config) { c.ws = ws } }

// WithEagerPrecompute forces the diversity-kernel precompute (full pairwise
// distance materialization) whenever WithParallelism is active, regardless
// of the instance-size/solver-family gate that run applies by default. See
// the precomputeMinTasks commentary; DESIGN.md documents the threshold.
func WithEagerPrecompute() Option { return func(c *config) { c.eagerPrecompute = true } }

func newConfig(opts []Option) *config {
	c := &config{
		ctx: context.Background(),
		rng: rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// HTAAPP runs Algorithm 1 (HTA-APP), the ¼-approximation that solves the
// auxiliary LSAP exactly. The LSAP goes through lsap.Auto: the auxiliary
// matrix exposes |W|+1 column classes, so the class-collapsed Hungarian
// solves it in O(|T|²·|W|) instead of the dense O(|T|³) — same optimum,
// same guarantee. WithDenseLSAP forces the dense path.
func HTAAPP(in *core.Instance, opts ...Option) (*Result, error) {
	return run(in, "hta-app", false, func(c lsap.Costs, p int, cfg *config) lsap.Solution {
		if cfg.denseLSAP {
			return lsap.HungarianWS(c, cfg.ws)
		}
		return lsap.AutoWS(c, p, cfg.ws)
	}, opts)
}

// HTAGRE runs Algorithm 2 (HTA-GRE), the ⅛-approximation that solves the
// auxiliary LSAP with the ½-approximate greedy matching. O(|T|²): M_B is
// a radix-sorted greedy over the |T|² edges, and the greedy LSAP sorts the
// O(|T|·|W|) class-collapsed candidates the same way.
func HTAGRE(in *core.Instance, opts ...Option) (*Result, error) {
	return run(in, "hta-gre", true, greedyAssign, opts)
}

// greedyAssign is the Line-11 step of every GRE-family solver.
func greedyAssign(c lsap.Costs, p int, cfg *config) lsap.Solution {
	return lsap.GreedyWS(c, p, cfg.ws)
}

// HTAWith runs the shared Algorithm 1/2 pipeline with a caller-supplied
// LSAP solver for Line 11 — e.g. lsap.Auction to measure the
// cost-scaling-family alternative the paper's Section IV-C discusses. The
// approximation analysis only covers exact (¼) and ½-approximate greedy
// (⅛) assignment steps; other solvers inherit whatever guarantee their
// LSAP quality implies.
func HTAWith(in *core.Instance, name string, assign func(lsap.Costs) lsap.Solution, opts ...Option) (*Result, error) {
	if assign == nil {
		return nil, errors.New("solver: nil LSAP solver")
	}
	if name == "" {
		name = "hta-custom"
	}
	return run(in, name, false, func(c lsap.Costs, _ int, _ *config) lsap.Solution { return assign(c) }, opts)
}

// HTAGREDiv runs HTA-GRE with every worker's weights forced to α=1, β=0 —
// the diversity-only, non-adaptive strategy of Section V-C.
func HTAGREDiv(in *core.Instance, opts ...Option) (*Result, error) {
	div, err := in.WithUniformWeights(1, 0)
	if err != nil {
		return nil, err
	}
	res, err := run(div, "hta-gre-div", true, greedyAssign, opts)
	if err != nil {
		return nil, err
	}
	// Report the objective under the original weights.
	res.Objective = in.Objective(res.Assignment)
	return res, nil
}

// HTAGRERel runs HTA-GRE with every worker's weights forced to α=0, β=1 —
// the relevance-only, non-adaptive strategy of Section V-C.
func HTAGRERel(in *core.Instance, opts ...Option) (*Result, error) {
	rel, err := in.WithUniformWeights(0, 1)
	if err != nil {
		return nil, err
	}
	res, err := run(rel, "hta-gre-rel", true, greedyAssign, opts)
	if err != nil {
		return nil, err
	}
	res.Objective = in.Objective(res.Assignment)
	return res, nil
}

// precomputeMinTasks gates the eager diversity precompute inside run: with
// WithParallelism on, the full O(|T|²) distance materialization only pays
// for itself when the downstream solver re-reads enough pairs. GRE-family
// solvers read each pair at most a handful of times and small instances
// finish before the cache fill amortizes — BENCH_PR1.json recorded exactly
// that serial regression (GRE slower WITH the kernel at every size). So run
// precomputes eagerly only for non-greedy solvers on instances of at least
// this many tasks; everything else computes distances on demand (the lazy
// path is pure and thread-safe, so parallel phases stay correct without the
// cache). WithEagerPrecompute restores the old unconditional behavior, and
// instances already carrying a cache (adaptive's cross-iteration kernel)
// are unaffected. The threshold is documented in DESIGN.md.
const precomputeMinTasks = 512

// run is the shared pipeline of Algorithms 1 and 2; assign solves the
// auxiliary LSAP (Line 11), the only step in which they differ, with the
// run's parallelism level (1 when the kernel is off) and the run config.
// greFamily marks the greedy solvers for the precompute gate above.
func run(in *core.Instance, name string, greFamily bool, assign func(lsap.Costs, int, *config) lsap.Solution, opts []Option) (*Result, error) {
	cfg := newConfig(opts)
	if !in.Dist.Metric() && !cfg.allowNonMetric {
		return nil, fmt.Errorf("solver: %s on %q distance: %w", name, in.Dist.Name(), core.ErrNonMetric)
	}
	start := time.Now()
	ctx, runSpan := trace.Start(cfg.ctx, "solver.run",
		trace.Str("algorithm", name),
		trace.Int("tasks", in.NumTasks()),
		trace.Int("workers", in.NumWorkers()),
		trace.Int("xmax", in.Xmax))
	defer runSpan.End()

	// Kernel phase: materialize the pairwise distance matrix once, before
	// the permuted view is taken so the view reads through the base cache.
	// Every later Diversity read — matching weights, bM profits, the flip's
	// objective — becomes an O(1) lookup of the exact float64 the serial
	// path would have computed. The span is emitted even when the
	// precomputeMinTasks gate skips the fill, so every trace shows all four
	// pipeline phases.
	p := cfg.parallel
	doPrecompute := p > 0 && !in.HasDiversityCache() &&
		(cfg.eagerPrecompute || (!greFamily && in.NumTasks() >= precomputeMinTasks))
	var precomputeTime time.Duration
	endPrecompute := startPhase(ctx, "solver.precompute", phasePrecompute,
		trace.Bool("skipped", !doPrecompute))
	if doPrecompute {
		in.Precompute(p)
		precomputeTime = endPrecompute()
	} else {
		endPrecompute()
	}
	if p < 1 {
		p = 1
	}

	// Randomize task indexing so that ties in the auxiliary LSAP (identical
	// tasks from the same group have identical profits) break uniformly
	// instead of packing runs of clones into one worker's set. See
	// WithoutTaskShuffle.
	solveIn := in
	var taskPerm []int
	if !cfg.skipShuffle && in.NumTasks() > 1 {
		taskPerm = cfg.rng.Perm(in.NumTasks())
		var err error
		solveIn, err = in.Permuted(taskPerm)
		if err != nil {
			return nil, fmt.Errorf("solver: %s: %w", name, err)
		}
	}
	m := qap.NewMapping(solveIn)

	// Line 2: matching M_B on the diversity graph over the real tasks.
	// Virtual padding tasks have zero diversity to everything, so excluding
	// them from the matching changes no weight.
	matcher := cfg.matcher
	if matcher == nil {
		matcher = func(n int, w matching.WeightFunc) matching.Matching {
			return matching.AutoP(n, w, p)
		}
	}
	endMatching := startPhase(ctx, "solver.matching", phaseMatching)
	mb := matcher(m.NumReal(), solveIn.Diversity)
	matchingTime := endMatching(trace.Int("edges", mb.Size()))

	// Lines 3–10: auxiliary LSAP profits
	// f[k][l] = bM(t_k)·degA(l) + c[k][l].
	costs := newAuxCosts(m, mb, p)

	// Line 11: solve the LSAP (class-collapsed Hungarian for APP, greedy
	// for GRE).
	endLSAP := startPhase(ctx, "solver.lsap", phaseLSAP)
	sol := assign(costs, p, cfg)
	lsapTime := endLSAP()
	perm := sol.RowToCol

	// Lines 12–16: for each matched pair, flip the two assigned vertices
	// with probability ½. The flip is the randomized rounding that yields
	// the expected approximation factor.
	endFlip := startPhase(ctx, "solver.flip", phaseFlip,
		trace.Bool("skipped", cfg.skipFlip))
	if !cfg.skipFlip {
		for _, e := range mb.Edges() {
			if cfg.rng.Intn(2) == 0 {
				perm[e[0]], perm[e[1]] = perm[e[1]], perm[e[0]]
			}
		}
	}
	endFlip()

	// Lines 17–18: translate the permutation into per-worker task sets,
	// mapping shuffled task indices back to the caller's.
	a := m.AssignmentFromPerm(perm)
	if taskPerm != nil {
		for q, set := range a.Sets {
			for i, k := range set {
				a.Sets[q][i] = taskPerm[k]
			}
		}
	}
	res := &Result{
		Assignment:     a,
		Objective:      in.Objective(a),
		Algorithm:      name,
		MatchingTime:   matchingTime,
		LSAPTime:       lsapTime,
		TotalTime:      time.Since(start),
		PrecomputeTime: precomputeTime,
	}
	runSpan.SetAttrs(trace.Float("objective", res.Objective))
	recordRunMetrics(in, res)
	return res, nil
}

// auxCosts is the auxiliary LSAP profit matrix of Algorithm 1, Lines 3–10:
// f[k][l] = bM(t_k)·degA(l) + c[k][l]. Columns of the same worker clique
// have identical profiles and columns beyond the cliques are all zero, so
// the matrix is exposed to the LSAP solvers as |W|+1 column classes.
type auxCosts struct {
	m          *qap.Mapping
	bM         []float64 // weight of the M_B edge incident to each task, 0 if unmatched/virtual
	n          int
	numWorkers int
	xmax       int
}

func newAuxCosts(m *qap.Mapping, mb matching.Matching, p int) *auxCosts {
	in := m.Instance()
	bM := m.MatchedEdgeWeights(mb.Mate, p)
	return &auxCosts{m: m, bM: bM, n: m.N(), numWorkers: in.NumWorkers(), xmax: in.Xmax}
}

func (a *auxCosts) N() int { return a.n }

func (a *auxCosts) At(k, l int) float64 { return a.AtClass(k, a.Class(l)) }

// NumClasses returns |W|+1: one class per worker clique plus the isolated
// (zero-profit) class. Delegates to the mapping's class metadata.
func (a *auxCosts) NumClasses() int { return a.m.NumClasses() }

func (a *auxCosts) Class(l int) int { return a.m.ClassOf(l) }

func (a *auxCosts) AtClass(k, class int) float64 {
	if class == a.numWorkers {
		return 0
	}
	in := a.m.Instance()
	w := in.Workers[class]
	degA := float64(a.xmax-1) * w.Alpha
	profit := a.bM[k] * degA
	if k < a.m.NumReal() {
		profit += w.Beta * in.Relevance(class, k) * float64(a.xmax-1)
	}
	return profit
}

var _ lsap.ColumnClassed = (*auxCosts)(nil)

// Random assigns Xmax uniformly random tasks to each worker (the cold-start
// strategy of Section V-C and a baseline for the objective value). It never
// fails: with fewer tasks than slots, later workers receive fewer tasks.
func Random(in *core.Instance, r *rand.Rand) *Result {
	start := time.Now()
	perm := r.Perm(in.NumTasks())
	a := core.NewAssignment(in.NumWorkers())
	idx := 0
	for q := 0; q < in.NumWorkers() && idx < len(perm); q++ {
		take := in.Xmax
		if rest := len(perm) - idx; take > rest {
			take = rest
		}
		a.Sets[q] = append(a.Sets[q], perm[idx:idx+take]...)
		idx += take
	}
	return &Result{
		Assignment: a,
		Objective:  in.Objective(a),
		Algorithm:  "random",
		TotalTime:  time.Since(start),
	}
}

// ErrTooLarge is returned by Exact when the search space exceeds its
// enumeration budget.
var ErrTooLarge = errors.New("solver: instance too large for exact enumeration")

// Exact computes an optimal HTA assignment by exhaustive enumeration over
// all ways to assign each task to a worker or leave it unassigned,
// respecting C1. Intended for approximation-factor tests; returns
// ErrTooLarge when (|W|+1)^|T| exceeds ~10⁷ states.
func Exact(in *core.Instance) (*Result, error) {
	start := time.Now()
	numTasks, numWorkers := in.NumTasks(), in.NumWorkers()
	if math.Pow(float64(numWorkers+1), float64(numTasks)) > 1e7 {
		return nil, fmt.Errorf("%w: (%d+1)^%d states", ErrTooLarge, numWorkers, numTasks)
	}
	choice := make([]int, numTasks) // worker index, or numWorkers for unassigned
	load := make([]int, numWorkers)
	best := core.NewAssignment(numWorkers)
	bestVal := math.Inf(-1)
	var recurse func(k int)
	recurse = func(k int) {
		if k == numTasks {
			a := core.NewAssignment(numWorkers)
			for t, q := range choice {
				if q < numWorkers {
					a.Sets[q] = append(a.Sets[q], t)
				}
			}
			if v := in.Objective(a); v > bestVal {
				bestVal = v
				best = a
			}
			return
		}
		for q := 0; q <= numWorkers; q++ {
			if q < numWorkers {
				if load[q] == in.Xmax {
					continue
				}
				load[q]++
			}
			choice[k] = q
			recurse(k + 1)
			if q < numWorkers {
				load[q]--
			}
		}
	}
	recurse(0)
	return &Result{
		Assignment: best,
		Objective:  bestVal,
		Algorithm:  "exact",
		TotalTime:  time.Since(start),
	}, nil
}
