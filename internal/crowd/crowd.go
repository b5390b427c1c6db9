// Package crowd simulates the paper's online deployment (Section V-C): 30
// minute work sessions in which a crowd worker completes micro-tasks
// assigned by one of the strategies HTA-GRE (adaptive), HTA-GRE-DIV
// (diversity only), HTA-GRE-REL (relevance only) or Random, while the
// platform measures crowdwork quality, task throughput and worker
// retention (Figures 5a–5c).
//
// The paper's experiment used 58 live AMT workers; we cannot hire humans,
// so SimWorker is a behavioural model whose three response channels are the
// very mechanisms the paper reports or conjectures:
//
//   - Engagement and boredom. Monotonous stretches (low diversity against
//     the recent-work window) build boredom; answer accuracy decays with
//     it. This is the paper's explanation for HTA-GRE-REL's poor and
//     decaying quality ("providing relevant tasks only may induce
//     boredom").
//   - Switch overhead. Time per task grows with the task's novelty against
//     recent work ("too much diversity results in overhead in choosing
//     tasks"), which is why the paper's diversity-only strategy loses on
//     throughput despite winning on quality.
//   - Dropout. The per-task hazard of abandoning the session grows with
//     boredom and with deviation from a comfortable novelty level in
//     either direction — motivation as *balance*, the paper's premise —
//     ramping up over the session; this yields Figure 5c's retention
//     ordering with the adaptive strategy on top.
//
// Each session runs a real adaptive.Engine with the real solvers — only the
// human is simulated.
package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/stats"
)

// Strategy identifies the assignment policy of a work session.
type Strategy string

// The strategies compared in Section V-C, plus the Random baseline.
const (
	StrategyGRE    Strategy = "hta-gre"
	StrategyDiv    Strategy = "hta-gre-div"
	StrategyRel    Strategy = "hta-gre-rel"
	StrategyRandom Strategy = "random"
)

// Strategies lists the three strategies of Figure 5 in paper order.
var Strategies = []Strategy{StrategyGRE, StrategyRel, StrategyDiv}

// solveFunc returns the adaptive-engine solver for a strategy. The live
// strategies replay the paper's deployed pipeline literally — including
// its deterministic LSAP tie behaviour (solver.WithoutTaskShuffle): the
// monotony that relevance-only workers experience in the paper partly
// stems from tied profits serving runs of same-group tasks, and the
// simulation reproduces that system as deployed. The shuffle improvement
// is evaluated separately (hta-bench -fig obj).
func (s Strategy) solveFunc() (adaptive.SolveFunc, error) {
	literal := func(solve adaptive.SolveFunc) adaptive.SolveFunc {
		return func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			return solve(in, append(opts, solver.WithoutTaskShuffle())...)
		}
	}
	switch s {
	case StrategyGRE:
		return literal(solver.HTAGRE), nil
	case StrategyDiv:
		return literal(solver.HTAGREDiv), nil
	case StrategyRel:
		return literal(solver.HTAGRERel), nil
	case StrategyRandom:
		return func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			cfg := rand.New(rand.NewSource(int64(in.NumTasks())*7919 + int64(in.NumWorkers())))
			return solver.Random(in, cfg), nil
		}, nil
	}
	return nil, fmt.Errorf("crowd: unknown strategy %q", s)
}

// Params are the behavioural and platform constants of the simulation.
// Defaults (DefaultParams) are calibrated so the aggregate curves match the
// shape of Figures 5a–5c.
type Params struct {
	// SessionMinutes is the HIT time limit (the paper required HITs to be
	// completed within 30 minutes).
	SessionMinutes float64
	// Xmax is the solver capacity per iteration (paper: 15).
	Xmax int
	// DisplayExtra is the number of additional random tasks shown
	// (paper: 5, "to avoid falling into a silo").
	DisplayExtra int
	// ReassignAfter triggers a new assignment iteration once the worker
	// has completed this many tasks of the current display set.
	ReassignAfter int

	// BaseTaskSeconds is the intrinsic time per micro-task; the effective
	// time adds DivOverheadSeconds scaled by the chosen task's novelty
	// against the recent-work window — switching topics costs re-reading
	// instructions and re-orienting (the paper's "overhead in choosing
	// tasks" under high diversity).
	BaseTaskSeconds    float64
	DivOverheadSeconds float64

	// NoveltyWindow is how many recent tasks define the monotony context.
	NoveltyWindow int

	// BaseAccuracy + EngagementGain·engagement + RelevanceGain·rel(t,w)
	// is the probability of answering a question correctly, where
	// engagement = 1/(1+boredom).
	BaseAccuracy   float64
	EngagementGain float64
	RelevanceGain  float64

	// Boredom rises by BoredomRate·(NoveltyThreshold − novelty) after each
	// task (novelty = mean diversity of the task to the NoveltyWindow most
	// recently completed ones) and is clamped to [0, BoredomCap].
	BoredomRate      float64
	NoveltyThreshold float64
	BoredomCap       float64

	// Per-task dropout hazard:
	// (HazardBase + HazardBoredom·boredom + HazardFlow·|novelty−ideal(w)|
	//  + HazardMismatch·(1−rel)) · (1 + HazardRamp·(elapsed/SessionMinutes)²),
	// where ideal(w) = 0.25 + 0.6·TrueAlpha is the worker's own preferred
	// novelty level. The flow term encodes the paper's hypothesis directly:
	// motivation is a per-worker *balance* of diversity and relevance, and
	// only an adaptive strategy can serve each worker's own balance —
	// one-size-fits-all diversity overshoots relevance-seekers, pure
	// relevance undershoots diversity-seekers. The boredom term adds the
	// attrition of sustained monotony and the mismatch term the attrition
	// of working far from one's competences.
	HazardBase     float64
	HazardBoredom  float64
	HazardFlow     float64
	HazardMismatch float64
	HazardRamp     float64
	// BoredomGrace is the boredom level below which boredom does not yet
	// drive dropout (mild tedium lowers accuracy before it makes workers
	// leave); the hazard's boredom term uses max(0, boredom−BoredomGrace).
	BoredomGrace float64

	// QuestionsPerTask is the mean number of graded questions per task
	// (the paper asked 4,473 questions over 2,715 tasks ≈ 1.65).
	QuestionsPerTask float64

	// PoolPerSession is how many tasks are drawn from the corpus for each
	// session's engine.
	PoolPerSession int

	// Seed drives all randomness.
	Seed int64
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		SessionMinutes:     30,
		Xmax:               15,
		DisplayExtra:       5,
		ReassignAfter:      10,
		BaseTaskSeconds:    24,
		DivOverheadSeconds: 22,
		NoveltyWindow:      4,
		BaseAccuracy:       0.44,
		EngagementGain:     0.36,
		RelevanceGain:      0.05,
		BoredomRate:        0.65,
		NoveltyThreshold:   0.60,
		BoredomCap:         3.5,
		HazardBase:         0.001,
		HazardBoredom:      0.006,
		HazardFlow:         0.024,
		HazardMismatch:     0.002,
		HazardRamp:         4,
		BoredomGrace:       0.5,
		QuestionsPerTask:   1.65,
		PoolPerSession:     600,
		Seed:               1,
	}
}

func (p Params) validate() error {
	switch {
	case p.SessionMinutes <= 0:
		return errors.New("crowd: SessionMinutes must be positive")
	case p.Xmax < 1:
		return errors.New("crowd: Xmax must be >= 1")
	case p.ReassignAfter < 1:
		return errors.New("crowd: ReassignAfter must be >= 1")
	case p.BaseTaskSeconds <= 0:
		return errors.New("crowd: BaseTaskSeconds must be positive")
	case p.NoveltyWindow < 1:
		return errors.New("crowd: NoveltyWindow must be >= 1")
	case p.PoolPerSession < p.Xmax+p.DisplayExtra:
		return errors.New("crowd: PoolPerSession smaller than one display set")
	case p.QuestionsPerTask <= 0:
		return errors.New("crowd: QuestionsPerTask must be positive")
	}
	return nil
}

// SimWorker is one simulated crowd worker.
type SimWorker struct {
	// Worker holds the expressed keyword interests shown to the platform.
	Worker *core.Worker
	// TrueAlpha is the latent diversity preference driving task choice;
	// the adaptive engine never sees it directly.
	TrueAlpha float64
	// Skill scales accuracy (multiplies the final probability).
	Skill float64
	// Speed scales time per task (1 = nominal).
	Speed float64
}

// TaskEvent records one completed task.
type TaskEvent struct {
	Minute    float64 // completion time from session start
	TaskID    string
	Questions int
	Correct   int
}

// SessionResult is one simulated work session.
type SessionResult struct {
	Strategy        Strategy
	WorkerID        string
	DurationMinutes float64
	DroppedOut      bool // true if the worker quit before the time limit
	Completed       int
	Questions       int
	Correct         int
	// Earnings is the sum of completed task rewards in dollars (the paper
	// paid per task, $0.01–$0.12, reporting a $0.064 average under GRE).
	Earnings float64
	Events   []TaskEvent
	// FinalAlpha is the engine's α estimate at session end (adaptive runs).
	FinalAlpha float64
	// Diagnostics averaged over completed tasks: novelty (diversity to the
	// previous task), the displayed set's mean pairwise diversity, the
	// task–worker relevance, and the boredom level at completion time.
	MeanNovelty   float64
	MeanOptionDiv float64
	MeanRelevance float64
	MeanBoredom   float64
}

// Simulator runs sessions against a task corpus.
type Simulator struct {
	params Params
	corpus []*core.Task
	dist   metric.Distance
	rng    *rand.Rand
}

// NewSimulator validates parameters and captures the task corpus, which
// must contain at least PoolPerSession tasks with keyword vectors.
func NewSimulator(params Params, corpus []*core.Task) (*Simulator, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	if len(corpus) < params.PoolPerSession {
		return nil, fmt.Errorf("crowd: corpus has %d tasks, need >= %d", len(corpus), params.PoolPerSession)
	}
	for i, t := range corpus {
		if t == nil || t.Keywords == nil {
			return nil, fmt.Errorf("crowd: corpus task %d lacks keywords", i)
		}
	}
	return &Simulator{
		params: params,
		corpus: corpus,
		dist:   metric.Jaccard{},
		rng:    rand.New(rand.NewSource(params.Seed)),
	}, nil
}

// NewWorker draws a simulated worker. The paper's platform asked workers to
// choose at least 6 keywords from the vocabulary describing its 22 kinds of
// tasks — so expressed interests are the keywords of a few task kinds, not
// arbitrary words. We mirror that: the worker's keyword vector is the union
// of the keywords of two task groups drawn from the corpus. Latent
// diversity preference, skill and speed vary across the population.
func (s *Simulator) NewWorker(id string) *SimWorker {
	universe := s.corpus[0].Keywords.Len()
	kw := bitset.New(universe)
	kw.UnionWith(s.corpus[s.rng.Intn(len(s.corpus))].Keywords)
	// Idiosyncratic interests beyond the home task kind, to reach the
	// platform's 6-keyword minimum.
	for kw.Count() < 6 {
		kw.Add(s.rng.Intn(universe))
	}
	kw.Add(s.rng.Intn(universe))
	w := &core.Worker{ID: id, Keywords: kw}
	return &SimWorker{
		Worker:    w,
		TrueAlpha: 0.25 + 0.5*s.rng.Float64(),
		Skill:     0.92 + 0.16*s.rng.Float64(),
		Speed:     0.85 + 0.3*s.rng.Float64(),
	}
}

// RunSession simulates one 30-minute work session under the strategy.
func (s *Simulator) RunSession(strategy Strategy, worker *SimWorker) (*SessionResult, error) {
	return s.runSessionSeeded(strategy, worker, s.rng.Int63())
}

// runSessionSeeded is the session body; it draws nothing from s.rng and
// mutates no simulator state, so seeded sessions may run concurrently.
func (s *Simulator) runSessionSeeded(strategy Strategy, worker *SimWorker, seed int64) (*SessionResult, error) {
	solve, err := strategy.solveFunc()
	if err != nil {
		return nil, err
	}
	p := s.params
	rng := rand.New(rand.NewSource(seed))

	engine, err := adaptive.NewEngine(adaptive.Config{
		Xmax:                   p.Xmax,
		Solve:                  solve,
		ExtraRandomTasks:       p.DisplayExtra,
		Rand:                   rng,
		DisableRandomColdStart: strategy != StrategyGRE,
	})
	if err != nil {
		return nil, err
	}
	pool := s.samplePool(rng)
	if err := engine.AddTasks(pool...); err != nil {
		return nil, err
	}
	ws, err := engine.AddWorker(worker.Worker)
	if err != nil {
		return nil, err
	}

	res := &SessionResult{Strategy: strategy, WorkerID: worker.Worker.ID}
	var elapsed float64 // minutes
	var boredom float64

	var sumNovelty, sumOptionDiv, sumRel, sumBoredom float64
	completedInIter := 0

	display, err := engine.NextIteration()
	if err != nil {
		return nil, err
	}
	current := display[worker.Worker.ID]

	for elapsed < p.SessionMinutes {
		remaining := notCompleted(current, ws.Completed)
		if len(remaining) == 0 {
			sets, err := engine.NextIteration()
			if err != nil {
				return nil, err
			}
			current = sets[worker.Worker.ID]
			completedInIter = 0
			remaining = current
			if len(remaining) == 0 {
				break // pool exhausted
			}
		}

		task := s.chooseTask(rng, worker, remaining, ws.Completed)

		// Novelty of this task against the recent-work window. The window
		// (rather than only the previous task) is what makes alternating
		// between two topics still feel monotonous.
		novelty := p.NoveltyThreshold // neutral before any history
		if n := len(ws.Completed); n > 0 {
			win := ws.Completed[max(0, n-p.NoveltyWindow):]
			var sum float64
			for _, c := range win {
				sum += s.dist.Distance(task.Keywords, c.Keywords)
			}
			novelty = sum / float64(len(win))
		}

		// Time to complete: intrinsic cost + topic-switch overhead.
		optionDiv := s.meanPairwiseDiversity(remaining)
		seconds := worker.Speed * (p.BaseTaskSeconds + p.DivOverheadSeconds*novelty)
		seconds *= 0.85 + 0.3*rng.Float64()
		elapsed += seconds / 60
		if elapsed > p.SessionMinutes {
			break // ran out of HIT time mid-task; task not submitted
		}

		// Boredom dynamics: monotony builds it, novelty relieves it.
		boredom += p.BoredomRate * (p.NoveltyThreshold - novelty)
		boredom = math.Max(0, math.Min(p.BoredomCap, boredom))
		engagement := 1 / (1 + boredom)

		// Grade the task's questions.
		rel := metric.Relevance(s.dist, task.Keywords, worker.Worker.Keywords)
		pCorrect := worker.Skill * (p.BaseAccuracy + p.EngagementGain*engagement + p.RelevanceGain*rel)
		pCorrect = math.Max(0.05, math.Min(0.98, pCorrect))
		questions := 1
		if rng.Float64() < p.QuestionsPerTask-1 {
			questions = 2
		}
		correct := 0
		for q := 0; q < questions; q++ {
			if rng.Float64() < pCorrect {
				correct++
			}
		}

		if err := engine.Complete(worker.Worker.ID, task.ID); err != nil {
			return nil, err
		}

		completedInIter++
		sumNovelty += novelty
		sumOptionDiv += optionDiv
		sumRel += rel
		sumBoredom += boredom
		res.Completed++
		res.Questions += questions
		res.Correct += correct
		res.Earnings += task.Reward
		res.Events = append(res.Events, TaskEvent{
			Minute: elapsed, TaskID: task.ID, Questions: questions, Correct: correct,
		})

		// Dropout hazard.
		ramp := 1 + p.HazardRamp*math.Pow(elapsed/p.SessionMinutes, 2)
		ideal := 0.25 + 0.6*worker.TrueAlpha
		hazard := (p.HazardBase + p.HazardBoredom*math.Max(0, boredom-p.BoredomGrace) +
			p.HazardFlow*math.Abs(novelty-ideal) + p.HazardMismatch*(1-rel)) * ramp
		if rng.Float64() < hazard {
			res.DroppedOut = true
			break
		}

		// Assignment service: re-assign after enough completions.
		if completedInIter >= p.ReassignAfter {
			sets, err := engine.NextIteration()
			if err != nil {
				return nil, err
			}
			current = sets[worker.Worker.ID]
			completedInIter = 0
		}
	}
	if elapsed > p.SessionMinutes {
		elapsed = p.SessionMinutes
	}
	res.DurationMinutes = elapsed
	res.FinalAlpha = ws.Alpha()
	if res.Completed > 0 {
		n := float64(res.Completed)
		res.MeanNovelty = sumNovelty / n
		res.MeanOptionDiv = sumOptionDiv / n
		res.MeanRelevance = sumRel / n
		res.MeanBoredom = sumBoredom / n
	}
	return res, nil
}

// samplePool draws PoolPerSession distinct tasks from the corpus.
func (s *Simulator) samplePool(rng *rand.Rand) []*core.Task {
	idx := rng.Perm(len(s.corpus))[:s.params.PoolPerSession]
	pool := make([]*core.Task, len(idx))
	for i, j := range idx {
		// Clone with a session-unique ID so engines never collide.
		t := *s.corpus[j]
		t.ID = fmt.Sprintf("%s#%d", t.ID, i)
		pool[i] = &t
	}
	return pool
}

// chooseTask models the worker's own selection among displayed tasks: a
// mix of marginal diversity and relevance weighted by the latent
// preference, plus noise. This is the signal the adaptive engine learns
// (α, β) from.
func (s *Simulator) chooseTask(rng *rand.Rand, worker *SimWorker, remaining []*core.Task, completed []*core.Task) *core.Task {
	var best *core.Task
	bestU := math.Inf(-1)
	// Normalize marginal diversity by the count of completed tasks.
	norm := float64(len(completed))
	for _, t := range remaining {
		var marg float64
		if norm > 0 {
			for _, c := range completed {
				marg += s.dist.Distance(t.Keywords, c.Keywords)
			}
			marg /= norm
		}
		rel := metric.Relevance(s.dist, t.Keywords, worker.Worker.Keywords)
		u := worker.TrueAlpha*marg + (1-worker.TrueAlpha)*rel + 0.15*rng.Float64()
		if u > bestU {
			bestU, best = u, t
		}
	}
	return best
}

func (s *Simulator) meanPairwiseDiversity(tasks []*core.Task) float64 {
	if len(tasks) < 2 {
		return 0
	}
	var sum float64
	var n int
	for i := 1; i < len(tasks); i++ {
		for j := 0; j < i; j++ {
			sum += s.dist.Distance(tasks[i].Keywords, tasks[j].Keywords)
			n++
		}
	}
	return sum / float64(n)
}

func notCompleted(display []*core.Task, completed []*core.Task) []*core.Task {
	done := make(map[string]bool, len(completed))
	for _, t := range completed {
		done[t.ID] = true
	}
	var out []*core.Task
	for _, t := range display {
		if !done[t.ID] {
			out = append(out, t)
		}
	}
	return out
}

// StudyResult aggregates sessions per strategy, mirroring the paper's
// 20-sessions-per-strategy comparison.
type StudyResult struct {
	Sessions map[Strategy][]*SessionResult
}

// RunStudy simulates sessionsPer sessions for each strategy, each with a
// fresh simulated worker. Workers and session seeds are drawn sequentially
// from the simulator's stream (so results are identical run to run), then
// the independent sessions execute in parallel across CPUs.
func (s *Simulator) RunStudy(strategies []Strategy, sessionsPer int) (*StudyResult, error) {
	if sessionsPer < 1 {
		return nil, errors.New("crowd: sessionsPer must be >= 1")
	}
	type job struct {
		strat  Strategy
		index  int
		worker *SimWorker
		seed   int64
	}
	jobs := make([]job, 0, len(strategies)*sessionsPer)
	for _, strat := range strategies {
		for i := 0; i < sessionsPer; i++ {
			w := s.NewWorker(fmt.Sprintf("%s-w%02d", strat, i))
			jobs = append(jobs, job{strat: strat, index: i, worker: w, seed: s.rng.Int63()})
		}
	}
	results := make([]*SessionResult, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(j int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[j], errs[j] = s.runSessionSeeded(jobs[j].strat, jobs[j].worker, jobs[j].seed)
		}(j)
	}
	wg.Wait()
	out := &StudyResult{Sessions: make(map[Strategy][]*SessionResult)}
	for j, res := range results {
		if errs[j] != nil {
			return nil, fmt.Errorf("crowd: session %d of %s: %w", jobs[j].index, jobs[j].strat, errs[j])
		}
		out.Sessions[jobs[j].strat] = append(out.Sessions[jobs[j].strat], res)
	}
	return out, nil
}

// QualityCurve returns the cumulative percentage of correctly answered
// questions by each minute of the grid (Figure 5a).
func (r *StudyResult) QualityCurve(strategy Strategy, grid []float64) []float64 {
	out := make([]float64, len(grid))
	for i, g := range grid {
		var correct, total int
		for _, sess := range r.Sessions[strategy] {
			for _, ev := range sess.Events {
				if ev.Minute <= g {
					correct += ev.Correct
					total += ev.Questions
				}
			}
		}
		if total > 0 {
			out[i] = 100 * float64(correct) / float64(total)
		}
	}
	return out
}

// ThroughputCurve returns the cumulative number of completed tasks across
// all sessions by each minute of the grid (Figure 5b).
func (r *StudyResult) ThroughputCurve(strategy Strategy, grid []float64) []int {
	out := make([]int, len(grid))
	for i, g := range grid {
		n := 0
		for _, sess := range r.Sessions[strategy] {
			for _, ev := range sess.Events {
				if ev.Minute <= g {
					n++
				}
			}
		}
		out[i] = n
	}
	return out
}

// RetentionCurve returns the fraction of sessions still running at each
// minute of the grid (Figure 5c).
func (r *StudyResult) RetentionCurve(strategy Strategy, grid []float64) []stats.SurvivalPoint {
	durations := r.Durations(strategy)
	return stats.SurvivalCurve(durations, grid)
}

// Durations returns the session lengths in minutes.
func (r *StudyResult) Durations(strategy Strategy) []float64 {
	sessions := r.Sessions[strategy]
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = s.DurationMinutes
	}
	return out
}

// CompletedCounts returns completed tasks per session.
func (r *StudyResult) CompletedCounts(strategy Strategy) []float64 {
	sessions := r.Sessions[strategy]
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.Completed)
	}
	return out
}

// Totals summarizes one strategy.
type Totals struct {
	Sessions       int
	Completed      int
	Questions      int
	Correct        int
	QualityPercent float64
	MeanDuration   float64
	MeanPerSession float64
	// MeanTaskReward is the average dollar reward of a completed task.
	MeanTaskReward float64
	// MeanEarnings is the average per-session worker earnings in dollars.
	MeanEarnings float64
}

// Total aggregates a strategy's sessions.
func (r *StudyResult) Total(strategy Strategy) Totals {
	t := Totals{}
	var dur, earnings float64
	for _, s := range r.Sessions[strategy] {
		t.Sessions++
		t.Completed += s.Completed
		t.Questions += s.Questions
		t.Correct += s.Correct
		dur += s.DurationMinutes
		earnings += s.Earnings
	}
	if t.Questions > 0 {
		t.QualityPercent = 100 * float64(t.Correct) / float64(t.Questions)
	}
	if t.Sessions > 0 {
		t.MeanDuration = dur / float64(t.Sessions)
		t.MeanPerSession = float64(t.Completed) / float64(t.Sessions)
		t.MeanEarnings = earnings / float64(t.Sessions)
	}
	if t.Completed > 0 {
		t.MeanTaskReward = earnings / float64(t.Completed)
	}
	return t
}

// CompareQuality runs the two-proportions Z-test on correct answers of a
// vs b, as in the paper's quality comparisons.
func (r *StudyResult) CompareQuality(a, b Strategy) (stats.ZTestResult, error) {
	ta, tb := r.Total(a), r.Total(b)
	return stats.TwoProportionZTest(ta.Correct, ta.Questions, tb.Correct, tb.Questions)
}

// CompareThroughput runs the Mann-Whitney U test on per-session completed
// task counts.
func (r *StudyResult) CompareThroughput(a, b Strategy) (stats.UTestResult, error) {
	return stats.MannWhitneyU(r.CompletedCounts(a), r.CompletedCounts(b))
}

// CompareRetention runs the Mann-Whitney U test on session durations.
func (r *StudyResult) CompareRetention(a, b Strategy) (stats.UTestResult, error) {
	return stats.MannWhitneyU(r.Durations(a), r.Durations(b))
}
