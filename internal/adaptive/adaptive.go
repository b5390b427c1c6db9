// Package adaptive implements the paper's adaptive task assignment loop
// (Section III): task assignment is a series of iterations; between
// iterations the engine observes which tasks each worker completed, turns
// those observations into normalized marginal gains in diversity and
// relevance, re-estimates the worker's motivation weights (α, β), and
// solves a fresh HTA instance over the remaining task pool. Once assigned,
// a task is dropped from subsequent iterations.
//
// The engine is deliberately agnostic about what triggers an iteration —
// the paper notes this is orthogonal to the problem. Callers (the platform
// service, the crowd simulator, the examples) decide when to call
// NextIteration.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/trace"
)

// SolveFunc solves one HTA instance. solver.HTAGRE is the default, matching
// the paper's deployment choice (Section V-C: "we hence choose not to
// deploy HTA-APP").
type SolveFunc func(in *core.Instance, opts ...solver.Option) (*solver.Result, error)

// Config parameterizes an Engine.
type Config struct {
	// Xmax is the per-worker capacity (constraint C1).
	Xmax int
	// Dist is the diversity metric; defaults to Jaccard.
	Dist metric.Distance
	// Solve is the assignment algorithm; defaults to solver.HTAGRE.
	Solve SolveFunc
	// ExtraRandomTasks are appended to each worker's solver assignment at
	// every iteration — the paper displays Xmax=15 optimized plus 5 random
	// tasks "to avoid falling into a silo" (Section V-C).
	ExtraRandomTasks int
	// InitialAlpha is the α prior used before any observation; β is its
	// complement. Defaults to 0.5.
	InitialAlpha float64
	// Rand drives cold-start and extra-task sampling and the solver's flip
	// step. Defaults to a fixed seed of 1.
	Rand *rand.Rand
	// DisableRandomColdStart makes even a worker's first assignment go
	// through the solver. The paper's random cold start exists because
	// HTA-GRE has no (α, β) estimates yet; the non-adaptive strategies
	// (DIV, REL) ignore the estimates and need no cold start.
	DisableRandomColdStart bool
	// Metrics receives the engine's telemetry (iteration latency, pool
	// size, α/β drift). Nil uses the process-wide instruments on
	// obs.Default(); pass NewMetrics over a private registry for
	// isolation.
	Metrics *Metrics
	// Logger receives structured debug logs (iteration summaries, weight
	// re-estimations), trace-correlated when the caller passes a traced
	// context to the Ctx entry points. Nil disables logging.
	Logger *slog.Logger
}

// WorkerState tracks one worker across iterations.
type WorkerState struct {
	// Worker carries the current (α, β) estimates; Keywords are the
	// worker's expressed interests.
	Worker *core.Worker
	// Assigned is the task set displayed in the current iteration.
	Assigned []*core.Task
	// Completed lists the tasks of Assigned finished so far, in order.
	Completed []*core.Task
	// TotalCompleted counts completions across all iterations.
	TotalCompleted int
	// Available marks the worker as present (assignable) this iteration.
	Available bool

	divGains []float64 // normalized marginal diversity gains, one per usable observation
	relGains []float64 // normalized relevance gains
	started  bool      // has received at least one assignment
}

// Alpha returns the current diversity-preference estimate.
func (ws *WorkerState) Alpha() float64 { return ws.Worker.Alpha }

// Beta returns the current relevance-preference estimate.
func (ws *WorkerState) Beta() float64 { return ws.Worker.Beta }

// Observations returns how many usable gain observations have been
// collected for this worker.
func (ws *WorkerState) Observations() int { return len(ws.divGains) }

// Engine runs the adaptive assignment loop over a task pool.
type Engine struct {
	cfg       Config
	pool      []*core.Task // available (never-assigned) tasks, insertion order
	inPool    map[string]int
	workers   map[string]*WorkerState
	order     []string // worker registration order, for deterministic instances
	iteration int
	lsapWS    *lsap.Workspace // scratch reused by every iteration's LSAP solve
	metrics   *Metrics
}

// NewEngine validates the configuration and returns an empty engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Xmax < 1 {
		return nil, fmt.Errorf("adaptive: Xmax = %d, must be >= 1", cfg.Xmax)
	}
	if cfg.ExtraRandomTasks < 0 {
		return nil, fmt.Errorf("adaptive: ExtraRandomTasks = %d", cfg.ExtraRandomTasks)
	}
	if cfg.Dist == nil {
		cfg.Dist = metric.Jaccard{}
	}
	if cfg.Solve == nil {
		cfg.Solve = solver.HTAGRE
	}
	if cfg.InitialAlpha < 0 || cfg.InitialAlpha > 1 {
		return nil, fmt.Errorf("adaptive: InitialAlpha = %g outside [0,1]", cfg.InitialAlpha)
	}
	if cfg.InitialAlpha == 0 {
		cfg.InitialAlpha = 0.5
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	e := &Engine{
		cfg:     cfg,
		inPool:  make(map[string]int),
		workers: make(map[string]*WorkerState),
		// One workspace for the engine's lifetime: iterations solve
		// same-shaped LSAPs back to back, so the scratch (and result)
		// buffers reach steady state after the first and every later
		// solve allocates nothing. NextIteration runs are sequential,
		// matching the workspace's single-goroutine contract.
		lsapWS: lsap.NewWorkspace(),
	}
	e.metrics = cfg.Metrics
	if e.metrics == nil {
		e.metrics = sharedMetrics()
	}
	return e, nil
}

// Iteration returns the number of completed NextIteration calls.
func (e *Engine) Iteration() int { return e.iteration }

// PoolSize returns the number of tasks still available for assignment.
func (e *Engine) PoolSize() int { return len(e.pool) }

// AddTasks adds tasks to the pool. Task IDs must be unique and non-empty.
func (e *Engine) AddTasks(tasks ...*core.Task) error {
	for _, t := range tasks {
		if t == nil || t.Keywords == nil {
			return errors.New("adaptive: nil task or keywords")
		}
		if t.ID == "" {
			return errors.New("adaptive: task with empty ID")
		}
		if _, dup := e.inPool[t.ID]; dup {
			return fmt.Errorf("adaptive: duplicate task id %q", t.ID)
		}
		e.inPool[t.ID] = len(e.pool)
		e.pool = append(e.pool, t)
	}
	return nil
}

// AddWorker registers a worker. The worker's α/β are initialized to the
// engine prior; its keyword vector must be set. New workers are available.
func (e *Engine) AddWorker(w *core.Worker) (*WorkerState, error) {
	if w == nil || w.Keywords == nil {
		return nil, errors.New("adaptive: nil worker or keywords")
	}
	if w.ID == "" {
		return nil, errors.New("adaptive: worker with empty ID")
	}
	if _, dup := e.workers[w.ID]; dup {
		return nil, fmt.Errorf("adaptive: duplicate worker id %q", w.ID)
	}
	w.Alpha = e.cfg.InitialAlpha
	w.Beta = 1 - e.cfg.InitialAlpha
	ws := &WorkerState{Worker: w, Available: true}
	e.workers[w.ID] = ws
	e.order = append(e.order, w.ID)
	return ws, nil
}

// Worker returns the state of a registered worker.
func (e *Engine) Worker(id string) (*WorkerState, error) {
	ws, ok := e.workers[id]
	if !ok {
		return nil, fmt.Errorf("adaptive: unknown worker %q", id)
	}
	return ws, nil
}

// Workers returns all registered worker states in registration order.
func (e *Engine) Workers() []*WorkerState {
	out := make([]*WorkerState, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.workers[id])
	}
	return out
}

// SetAvailable marks a worker present or absent for upcoming iterations
// (the paper's W^i is the set of workers available at iteration i).
func (e *Engine) SetAvailable(id string, available bool) error {
	ws, err := e.Worker(id)
	if err != nil {
		return err
	}
	ws.Available = available
	return nil
}

// Complete records that the worker finished the given task from its current
// assignment and collects the marginal-gain observation of Section III:
//
//	gain_div(t_j) = Σ_{k<j} d(t_j, t_k), normalized by the maximum such
//	gain achievable with any not-yet-completed assigned task;
//	gain_rel(t_j) = rel(t_j, w), normalized likewise.
//
// Observations with a zero normalizer (e.g. the first completed task of an
// assignment, whose marginal diversity is always 0) are skipped — there is
// no signal in them.
func (e *Engine) Complete(workerID, taskID string) error {
	return e.CompleteCtx(context.Background(), workerID, taskID)
}

// CompleteCtx is Complete with trace propagation: the marginal-gain
// computation and (α, β) re-estimation run under an "adaptive.reestimate"
// span joined to ctx's trace, and the engine's Logger (if any) emits a
// trace-correlated debug line with the refreshed weights.
func (e *Engine) CompleteCtx(ctx context.Context, workerID, taskID string) error {
	ws, err := e.Worker(workerID)
	if err != nil {
		return err
	}
	var task *core.Task
	for _, t := range ws.Assigned {
		if t.ID == taskID {
			task = t
			break
		}
	}
	if task == nil {
		return fmt.Errorf("adaptive: task %q is not assigned to worker %q", taskID, workerID)
	}
	for _, t := range ws.Completed {
		if t.ID == taskID {
			return fmt.Errorf("adaptive: task %q already completed by worker %q", taskID, workerID)
		}
	}

	// Marginal gains of the chosen task against the completed prefix.
	_, reSpan := trace.Start(ctx, "adaptive.reestimate",
		trace.Str("worker", workerID), trace.Str("task", taskID))
	gainDiv := e.marginalDiversity(task, ws.Completed)
	gainRel := metric.Relevance(e.cfg.Dist, task.Keywords, ws.Worker.Keywords)

	// Normalizers: the best gains any remaining assigned task could have
	// brought (the paper's T^{i−1}_w \ {t_1,…,t_{j−1}}).
	var maxDiv, maxRel float64
	for _, u := range ws.Assigned {
		if containsTask(ws.Completed, u.ID) {
			continue
		}
		if g := e.marginalDiversity(u, ws.Completed); g > maxDiv {
			maxDiv = g
		}
		if r := metric.Relevance(e.cfg.Dist, u.Keywords, ws.Worker.Keywords); r > maxRel {
			maxRel = r
		}
	}
	if maxDiv > 0 {
		ws.divGains = append(ws.divGains, gainDiv/maxDiv)
	}
	if maxRel > 0 {
		ws.relGains = append(ws.relGains, gainRel/maxRel)
	}

	ws.Completed = append(ws.Completed, task)
	ws.TotalCompleted++
	e.refreshWeights(ws)
	reSpan.SetAttrs(
		trace.Float("alpha", ws.Worker.Alpha),
		trace.Float("beta", ws.Worker.Beta),
		trace.Int("observations", ws.Observations()))
	reSpan.End()
	if e.cfg.Logger != nil {
		e.cfg.Logger.LogAttrs(ctx, slog.LevelDebug, "adaptive: reestimated weights",
			slog.String("worker", workerID), slog.String("task", taskID),
			slog.Float64("alpha", ws.Worker.Alpha), slog.Float64("beta", ws.Worker.Beta),
			slog.Int("observations", ws.Observations()))
	}
	e.metrics.Completions.Inc()
	return nil
}

func (e *Engine) marginalDiversity(t *core.Task, completed []*core.Task) float64 {
	var g float64
	for _, c := range completed {
		g += e.cfg.Dist.Distance(t.Keywords, c.Keywords)
	}
	return g
}

func containsTask(list []*core.Task, id string) bool {
	for _, t := range list {
		if t.ID == id {
			return true
		}
	}
	return false
}

// refreshWeights recomputes (α, β) as the averages of the collected
// normalized gains, rescaled to sum to 1. With no usable observations the
// prior is kept.
func (e *Engine) refreshWeights(ws *WorkerState) {
	if len(ws.divGains) == 0 && len(ws.relGains) == 0 {
		return
	}
	oldAlpha := ws.Worker.Alpha
	ws.Worker.Alpha = mean(ws.divGains)
	ws.Worker.Beta = mean(ws.relGains)
	ws.Worker.NormalizeWeights()
	e.recordDrift(oldAlpha, ws.Worker.Alpha)
	e.publishWeightGauges()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// NextIteration runs one assignment round: cold-start workers (first
// assignment) receive Xmax random tasks; the rest are served by the
// configured HTA solver over the remaining pool. Every worker additionally
// receives ExtraRandomTasks random tasks. Assigned tasks leave the pool
// permanently. It returns the per-worker display sets.
func (e *Engine) NextIteration() (map[string][]*core.Task, error) {
	return e.NextIterationCtx(context.Background())
}

// NextIterationCtx is NextIteration with trace propagation: the round
// runs under an "adaptive.iteration" span joined to ctx's trace, and the
// context flows into the solver (solver.WithContext) so the trace shows
// the full endpoint → iteration → solver-phase hierarchy.
func (e *Engine) NextIterationCtx(ctx context.Context) (map[string][]*core.Task, error) {
	ctx, iterSpan := trace.Start(ctx, "adaptive.iteration",
		trace.Int("iteration", e.iteration), trace.Int("pool", len(e.pool)))
	defer iterSpan.End()
	start := time.Now()
	var cold, warm []*WorkerState
	for _, id := range e.order {
		ws := e.workers[id]
		if !ws.Available {
			continue
		}
		if ws.started || e.cfg.DisableRandomColdStart {
			warm = append(warm, ws)
			ws.started = true
		} else {
			cold = append(cold, ws)
		}
	}
	out := make(map[string][]*core.Task)

	// Cold start: random Xmax tasks (Section V-C).
	for _, ws := range cold {
		set := e.popRandom(e.cfg.Xmax)
		ws.Assigned = set
		ws.Completed = nil
		ws.started = true
		out[ws.Worker.ID] = set
	}

	// Warm workers: solve HTA over the current pool.
	if len(warm) > 0 && len(e.pool) > 0 {
		workers := make([]*core.Worker, len(warm))
		for i, ws := range warm {
			workers[i] = ws.Worker
		}
		tasks := append([]*core.Task(nil), e.pool...)
		in, err := core.NewInstance(tasks, workers, e.cfg.Xmax, e.cfg.Dist)
		if err != nil {
			return nil, fmt.Errorf("adaptive: building instance: %w", err)
		}
		res, err := e.cfg.Solve(in, solver.WithContext(ctx), solver.WithRand(e.cfg.Rand), solver.WithWorkspace(e.lsapWS))
		if err != nil {
			return nil, fmt.Errorf("adaptive: solving iteration %d: %w", e.iteration, err)
		}
		for i, ws := range warm {
			set := make([]*core.Task, 0, len(res.Assignment.Sets[i]))
			for _, k := range res.Assignment.Sets[i] {
				set = append(set, tasks[k])
			}
			for _, t := range set {
				e.removeFromPool(t.ID)
			}
			ws.Assigned = set
			ws.Completed = nil
			out[ws.Worker.ID] = set
		}
	} else {
		for _, ws := range warm {
			ws.Assigned = nil
			ws.Completed = nil
			out[ws.Worker.ID] = nil
		}
	}

	// Anti-silo extras for everyone assigned this round.
	if e.cfg.ExtraRandomTasks > 0 {
		for _, ws := range append(cold, warm...) {
			extra := e.popRandom(e.cfg.ExtraRandomTasks)
			ws.Assigned = append(ws.Assigned, extra...)
			out[ws.Worker.ID] = ws.Assigned
		}
	}

	e.iteration++
	obs.ObserveDuration(e.metrics.IterationSeconds, time.Since(start))
	iterSpan.SetAttrs(
		trace.Int("cold", len(cold)), trace.Int("warm", len(warm)),
		trace.Int("pool_after", len(e.pool)))
	e.metrics.Iterations.Inc()
	e.metrics.PoolSize.Set(float64(len(e.pool)))
	e.publishWeightGauges()
	if e.cfg.Logger != nil {
		e.cfg.Logger.LogAttrs(ctx, slog.LevelDebug, "adaptive: iteration complete",
			slog.Int("iteration", e.iteration), slog.Int("cold", len(cold)),
			slog.Int("warm", len(warm)), slog.Int("pool", len(e.pool)))
	}
	return out, nil
}

// popRandom removes and returns up to n random tasks from the pool.
func (e *Engine) popRandom(n int) []*core.Task {
	if n > len(e.pool) {
		n = len(e.pool)
	}
	out := make([]*core.Task, 0, n)
	for i := 0; i < n; i++ {
		idx := e.cfg.Rand.Intn(len(e.pool))
		t := e.pool[idx]
		out = append(out, t)
		e.removeByIndex(idx)
	}
	return out
}

func (e *Engine) removeFromPool(id string) {
	idx, ok := e.inPool[id]
	if !ok {
		return
	}
	e.removeByIndex(idx)
}

func (e *Engine) removeByIndex(idx int) {
	t := e.pool[idx]
	last := len(e.pool) - 1
	e.pool[idx] = e.pool[last]
	e.inPool[e.pool[idx].ID] = idx
	e.pool = e.pool[:last]
	delete(e.inPool, t.ID)
}
