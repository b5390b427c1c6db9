package quality

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/htacs/ata/internal/ops"
)

// Method selects the consensus rule applied to resolved tasks.
type Method string

const (
	MethodMajority Method = "majority"
	MethodWeighted Method = "weighted"
	MethodEM       Method = "em"
)

// ParseMethod maps a flag string onto a Method.
func ParseMethod(s string) (Method, error) {
	switch Method(strings.ToLower(s)) {
	case MethodMajority:
		return MethodMajority, nil
	case MethodWeighted:
		return MethodWeighted, nil
	case MethodEM:
		return MethodEM, nil
	}
	return "", fmt.Errorf("quality: unknown aggregation method %q (majority|weighted|em)", s)
}

// Config parameterizes a Tracker.
type Config struct {
	// K is the redundancy: answers collected before a task resolves
	// (default 1 — no redundancy).
	K int
	// Options is the answer alphabet size L (default 4).
	Options int
	// Method is the consensus rule (default MethodWeighted).
	Method Method
	// GoldRate auto-marks this fraction of observed tasks as gold probes
	// with a synthesized deterministic answer (0 disables; explicit
	// AddGold still works). The marking is a pure hash of (GoldSalt,
	// task ID), so every replica, node and restart agrees on which tasks
	// are gold.
	GoldRate float64
	// GoldSalt seeds the auto-gold hash (default 1).
	GoldSalt uint64
	// QuarantineFloor quarantines a worker whose gold accuracy estimate
	// drops below it after MinGold graded answers (0 disables).
	QuarantineFloor float64
	// MinGold is the graded answers required before the floor can fire
	// (default 5).
	MinGold int
	// PriorCorrect/PriorTotal form the Laplace prior on the accuracy
	// estimate: acc = (correct + PriorCorrect) / (seen + PriorTotal).
	// Defaults 1 and 2, so an unseen worker starts at 0.5.
	PriorCorrect float64
	PriorTotal   float64
	// TrustDecay is the time constant of exponential reputation decay
	// over a worker's idle time: trust relaxes from the accuracy estimate
	// toward the prior as trust = prior + (acc − prior)·e^(−idle/τ), so a
	// long-absent worker's reputation — good or bad — carries less weight
	// when they return. 0 disables decay (the default: trust never goes
	// stale). Quarantine is unaffected: a quarantined worker stays at 0.
	TrustDecay time.Duration
	// Now is the clock idle time is measured against (default time.Now).
	// Injectable for tests; only read when TrustDecay > 0.
	Now func() time.Time
	// EM tunes the Dawid–Skene estimator when Method is MethodEM.
	EM EMConfig
	// Metrics receives the quality instruments; nil registers on
	// obs.Default().
	Metrics *Metrics
	// Journal receives quarantine transition events. Defaults to
	// ops.Default().
	Journal *ops.Journal
}

func (c *Config) defaults() error {
	if c.K == 0 {
		c.K = 1
	}
	if c.K < 1 {
		return fmt.Errorf("quality: K = %d, must be >= 1", c.K)
	}
	if c.Options == 0 {
		c.Options = 4
	}
	if c.Options < 2 {
		return fmt.Errorf("quality: Options = %d, must be >= 2", c.Options)
	}
	if c.Method == "" {
		c.Method = MethodWeighted
	}
	if _, err := ParseMethod(string(c.Method)); err != nil {
		return err
	}
	if c.GoldRate < 0 || c.GoldRate > 1 || math.IsNaN(c.GoldRate) {
		return fmt.Errorf("quality: GoldRate = %v, must be in [0, 1]", c.GoldRate)
	}
	if c.GoldSalt == 0 {
		c.GoldSalt = 1
	}
	if c.QuarantineFloor < 0 || c.QuarantineFloor > 1 || math.IsNaN(c.QuarantineFloor) {
		return fmt.Errorf("quality: QuarantineFloor = %v, must be in [0, 1]", c.QuarantineFloor)
	}
	if c.MinGold == 0 {
		c.MinGold = 5
	}
	if c.PriorCorrect == 0 {
		c.PriorCorrect = 1
	}
	if c.PriorTotal == 0 {
		c.PriorTotal = 2
	}
	if c.TrustDecay < 0 {
		return fmt.Errorf("quality: TrustDecay = %v, must be >= 0", c.TrustDecay)
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(nil)
	}
	if c.Journal == nil {
		c.Journal = ops.Default()
	}
	return nil
}

// Submission errors. The platform maps them onto HTTP statuses.
var (
	// ErrQuarantined rejects answers from a quarantined worker.
	ErrQuarantined = errors.New("quality: worker is quarantined")
	// ErrDuplicateVote rejects a second answer by the same worker to the
	// same logical task (retried requests must dedup upstream via the
	// idempotency key; this is the semantic backstop).
	ErrDuplicateVote = errors.New("quality: duplicate answer for this task")
	// ErrTaskResolved rejects answers to a task that already collected
	// its k votes.
	ErrTaskResolved = errors.New("quality: task already resolved")
)

// taskState is one logical task's collected answers.
type taskState struct {
	gold       bool
	goldAnswer int
	resolved   bool
	votes      []Vote
	voted      map[string]struct{} // workers who answered (gold or not)
}

// workerStats is one worker's online reputation state.
type workerStats struct {
	answers     int64 // accepted non-gold answers
	goldSeen    int64
	goldCorrect int64
	quarantined bool
	lastSeen    int64 // UnixNano of the last accepted answer; 0 = never
}

// Tracker is the online quality state machine: it collects redundant
// answers, grades gold probes, maintains per-worker reputation, and
// quarantines persistent spammers. All methods are safe for concurrent
// use.
type Tracker struct {
	mu  sync.Mutex
	cfg Config

	tasks   map[string]*taskState
	workers map[string]*workerStats

	answersSubmitted int64 // accepted non-gold answers
	tasksResolved    int64
	pendingPartial   int64 // votes held on unresolved non-gold tasks
	goldGraded       int64
	quarantinedNow   int64

	// pushMu orders SubmitPush per worker: a worker's answers hash to
	// one stripe, which also keeps the lock table fixed-size.
	pushMu [64]sync.Mutex
}

// New validates the configuration and builds an empty tracker.
func New(cfg Config) (*Tracker, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	return &Tracker{
		cfg:     cfg,
		tasks:   make(map[string]*taskState),
		workers: make(map[string]*workerStats),
	}, nil
}

// K returns the configured redundancy.
func (tr *Tracker) K() int { return tr.cfg.K }

// Options returns the configured answer alphabet size.
func (tr *Tracker) Options() int { return tr.cfg.Options }

// Method returns the configured consensus rule.
func (tr *Tracker) Method() Method { return tr.cfg.Method }

// LogicalID strips the replica suffix the platform appends when
// redundancy replicates an uploaded task into k assignment copies
// ("t42~r0" → "t42"). IDs without a suffix pass through unchanged.
func LogicalID(taskID string) string {
	if i := strings.IndexByte(taskID, '~'); i >= 0 {
		return taskID[:i]
	}
	return taskID
}

// ReplicaID names the j-th assignment copy of a logical task.
func ReplicaID(taskID string, j int) string {
	return fmt.Sprintf("%s~r%d", taskID, j)
}

// fnv1a64 is the same FNV-1a the shard ring uses, inlined so the package
// stays dependency-free.
func fnv1a64(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ seed*uint64(1099511628211)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	// fmix64 finalizer: short keys otherwise band (see the key hash of
	// shard.Ring).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ObserveTask notes an uploaded logical task and applies the auto-gold
// rule: a GoldRate fraction of task IDs (by deterministic hash) become
// gold probes with a synthesized answer. Idempotent; explicit AddGold
// marks survive.
func (tr *Tracker) ObserveTask(taskID string) {
	if tr.cfg.GoldRate <= 0 {
		return
	}
	id := LogicalID(taskID)
	h := fnv1a64(tr.cfg.GoldSalt, id)
	if float64(h>>11)/float64(1<<53) >= tr.cfg.GoldRate {
		return
	}
	ans := int(fnv1a64(tr.cfg.GoldSalt+0x9e3779b9, id) % uint64(tr.cfg.Options))
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.addGoldLocked(id, ans)
}

// AddGold marks a logical task as a gold probe with the known answer.
func (tr *Tracker) AddGold(taskID string, answer int) error {
	if answer < 0 || answer >= tr.cfg.Options {
		return fmt.Errorf("quality: gold answer %d outside [0, %d)", answer, tr.cfg.Options)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.addGoldLocked(LogicalID(taskID), answer)
	return nil
}

func (tr *Tracker) addGoldLocked(id string, answer int) {
	ts := tr.tasks[id]
	if ts == nil {
		ts = &taskState{voted: make(map[string]struct{})}
		tr.tasks[id] = ts
	}
	if !ts.gold {
		ts.gold = true
		ts.goldAnswer = answer
	}
}

// GoldAnswer returns the known answer of a gold task. ok is false for
// non-gold (or unknown) tasks.
func (tr *Tracker) GoldAnswer(taskID string) (answer int, ok bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ts := tr.tasks[LogicalID(taskID)]
	if ts == nil || !ts.gold {
		return 0, false
	}
	return ts.goldAnswer, true
}

// IsGold reports whether the task is a gold probe.
func (tr *Tracker) IsGold(taskID string) bool {
	_, ok := tr.GoldAnswer(taskID)
	return ok
}

// SubmitResult reports the fate of one answer.
type SubmitResult struct {
	// TaskID is the logical task the answer counted toward.
	TaskID string `json:"task_id"`
	// Gold is true when the task was a gold probe; Correct then reports
	// the grade. Gold answers never count toward consensus.
	Gold    bool `json:"gold"`
	Correct bool `json:"correct"`
	// Resolved is true when this answer was the task's k-th: consensus
	// is now available from Answers.
	Resolved bool `json:"resolved"`
	// Accuracy and Trust are the worker's post-update reputation;
	// TrustUpdated is true when they changed (gold grades only), i.e.
	// when the caller should push Trust into the assignment engine.
	Accuracy     float64 `json:"accuracy"`
	Trust        float64 `json:"trust"`
	TrustUpdated bool    `json:"trust_updated"`
	// Quarantined reports the worker's post-update quarantine state.
	Quarantined bool `json:"quarantined"`
}

// Submit records one answer. Gold tasks are graded against ground truth
// and update the worker's reputation (and possibly quarantine); regular
// tasks accumulate toward the k-vote consensus. Rejections: quarantined
// workers (ErrQuarantined), second answers to the same logical task
// (ErrDuplicateVote), answers to resolved tasks (ErrTaskResolved), and
// out-of-range options.
func (tr *Tracker) Submit(workerID, taskID string, option int) (SubmitResult, error) {
	if workerID == "" || taskID == "" {
		return SubmitResult{}, errors.New("quality: empty worker or task ID")
	}
	if option < 0 || option >= tr.cfg.Options {
		return SubmitResult{}, fmt.Errorf("quality: option %d outside [0, %d)", option, tr.cfg.Options)
	}
	id := LogicalID(taskID)
	tr.mu.Lock()
	defer tr.mu.Unlock()

	ws := tr.workers[workerID]
	if ws == nil {
		ws = &workerStats{}
		tr.workers[workerID] = ws
	}
	if ws.quarantined {
		return SubmitResult{TaskID: id, Quarantined: true}, ErrQuarantined
	}
	ts := tr.tasks[id]
	if ts == nil {
		ts = &taskState{voted: make(map[string]struct{})}
		tr.tasks[id] = ts
	}
	if _, dup := ts.voted[workerID]; dup {
		return SubmitResult{TaskID: id}, ErrDuplicateVote
	}
	if ts.resolved {
		return SubmitResult{TaskID: id}, ErrTaskResolved
	}

	res := SubmitResult{TaskID: id}
	ts.voted[workerID] = struct{}{}
	ts.votes = append(ts.votes, Vote{Worker: workerID, Option: option})
	if tr.cfg.TrustDecay > 0 {
		ws.lastSeen = tr.cfg.Now().UnixNano()
	}
	if ts.gold {
		ws.goldSeen++
		res.Gold = true
		res.Correct = option == ts.goldAnswer
		if res.Correct {
			ws.goldCorrect++
		}
		tr.goldGraded++
		tr.cfg.Metrics.Gold.Inc()
		res.TrustUpdated = true
		if !ws.quarantined && tr.cfg.QuarantineFloor > 0 &&
			ws.goldSeen >= int64(tr.cfg.MinGold) &&
			tr.accuracyLocked(ws) < tr.cfg.QuarantineFloor {
			ws.quarantined = true
			tr.quarantinedNow++
			tr.cfg.Metrics.Quarantines.Inc()
			tr.cfg.Metrics.Quarantined.Set(float64(tr.quarantinedNow))
			tr.cfg.Journal.Emit(ops.EventQuarantine, "",
				"worker", workerID,
				"accuracy", strconv.FormatFloat(tr.accuracyLocked(ws), 'g', 4, 64),
				"gold_seen", strconv.FormatInt(ws.goldSeen, 10))
		}
	} else {
		ws.answers++
		tr.answersSubmitted++
		tr.pendingPartial++
		tr.cfg.Metrics.Answers.Inc()
		if len(ts.votes) >= tr.cfg.K {
			ts.resolved = true
			tr.tasksResolved++
			tr.pendingPartial -= int64(len(ts.votes))
			tr.cfg.Metrics.Consensus.Inc()
			res.Resolved = true
		}
		tr.cfg.Metrics.Pending.Set(float64(tr.pendingPartial))
	}
	res.Accuracy = tr.accuracyLocked(ws)
	res.Quarantined = ws.quarantined
	res.Trust = tr.trustLocked(ws)
	return res, nil
}

// SubmitPush is Submit for a caller that mirrors trust into the
// assignment engine: when the answer moved the worker's trust, push
// receives the new value before SubmitPush returns. Grading and push run
// under a per-worker lock, so concurrent answers from one worker push in
// grading order and the engine ends on the tracker's value; with Submit
// and a push of its own, a caller can push an older value last. The lock
// is held across push, so push must not call SubmitPush.
func (tr *Tracker) SubmitPush(workerID, taskID string, option int, push func(trust float64)) (SubmitResult, error) {
	mu := &tr.pushMu[fnv1a64(0, workerID)%uint64(len(tr.pushMu))]
	mu.Lock()
	defer mu.Unlock()
	res, err := tr.Submit(workerID, taskID, option)
	if err == nil && res.TrustUpdated {
		push(res.Trust)
	}
	return res, err
}

// accuracyLocked is the Laplace-smoothed gold accuracy estimate.
func (tr *Tracker) accuracyLocked(ws *workerStats) float64 {
	return (float64(ws.goldCorrect) + tr.cfg.PriorCorrect) /
		(float64(ws.goldSeen) + tr.cfg.PriorTotal)
}

// trustLocked maps reputation onto the multiplier fed into the
// assignment objective: the accuracy estimate (0 for quarantined workers,
// which the streaming assigner treats as "assign nothing"), relaxed
// toward the prior by Config.TrustDecay over the worker's idle time.
func (tr *Tracker) trustLocked(ws *workerStats) float64 {
	if ws.quarantined {
		return 0
	}
	acc := tr.accuracyLocked(ws)
	if tr.cfg.TrustDecay <= 0 || ws.lastSeen == 0 {
		return acc
	}
	idle := tr.cfg.Now().UnixNano() - ws.lastSeen
	if idle <= 0 {
		return acc
	}
	prior := tr.cfg.PriorCorrect / tr.cfg.PriorTotal
	return prior + (acc-prior)*math.Exp(-float64(idle)/float64(tr.cfg.TrustDecay))
}

// Reputation is one worker's public trust state.
type Reputation struct {
	Worker      string  `json:"worker"`
	Answers     int64   `json:"answers"`
	GoldSeen    int64   `json:"gold_seen"`
	GoldCorrect int64   `json:"gold_correct"`
	Accuracy    float64 `json:"accuracy"`
	Trust       float64 `json:"trust"`
	Quarantined bool    `json:"quarantined"`
}

// Reputation returns the worker's trust state; ok is false when the
// worker has never submitted an answer.
func (tr *Tracker) Reputation(workerID string) (Reputation, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ws := tr.workers[workerID]
	if ws == nil {
		return Reputation{}, false
	}
	return tr.reputationLocked(workerID, ws), true
}

func (tr *Tracker) reputationLocked(id string, ws *workerStats) Reputation {
	acc := tr.accuracyLocked(ws)
	return Reputation{
		Worker: id, Answers: ws.answers,
		GoldSeen: ws.goldSeen, GoldCorrect: ws.goldCorrect,
		Accuracy: acc, Trust: tr.trustLocked(ws),
		Quarantined: ws.quarantined,
	}
}

// Reputations returns every known worker's trust state in worker-ID
// order — the restore path replays these into the assignment engine.
func (tr *Tracker) Reputations() []Reputation {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make([]string, 0, len(tr.workers))
	for id := range tr.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Reputation, len(ids))
	for i, id := range ids {
		out[i] = tr.reputationLocked(id, tr.workers[id])
	}
	return out
}

// ResolvedAnswer is one task's consensus under the configured method.
type ResolvedAnswer struct {
	TaskID string `json:"task_id"`
	Option int    `json:"option"`
	// Confidence is method-dependent: vote fraction (majority), weight
	// fraction (weighted), or posterior probability (em).
	Confidence float64 `json:"confidence"`
	Votes      int     `json:"votes"`
}

// Answers aggregates every resolved task under the configured method and
// returns the consensus list in task-ID order. Weighted and EM use the
// *current* accuracy estimates, so consensus sharpens as gold evidence
// accumulates — calling again after more gold may flip low-margin tasks.
func (tr *Tracker) Answers() []ResolvedAnswer {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	ids := make([]string, 0, len(tr.tasks))
	for id, ts := range tr.tasks {
		if ts.resolved && !ts.gold {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	out := make([]ResolvedAnswer, 0, len(ids))
	switch tr.cfg.Method {
	case MethodEM:
		batch := make([]TaskVotes, len(ids))
		for i, id := range ids {
			batch[i] = TaskVotes{TaskID: id, Votes: tr.tasks[id].votes}
		}
		res, err := Aggregate(batch, tr.cfg.Options, tr.cfg.EM)
		if err != nil {
			return nil
		}
		for _, id := range ids {
			p := res.Posteriors[id]
			l := ArgMax(p)
			out = append(out, ResolvedAnswer{
				TaskID: id, Option: l, Confidence: p[l],
				Votes: len(tr.tasks[id].votes),
			})
		}
	case MethodWeighted:
		acc := make(map[string]float64, len(tr.workers))
		for id, ws := range tr.workers {
			acc[id] = tr.accuracyLocked(ws)
		}
		defaultAcc := tr.cfg.PriorCorrect / tr.cfg.PriorTotal
		for _, id := range ids {
			votes := tr.tasks[id].votes
			l, w := Weighted(votes, tr.cfg.Options, acc, defaultAcc)
			conf := 0.0
			var total float64
			for _, v := range sortVotes(votes) {
				a, ok := acc[v.Worker]
				if !ok {
					a = defaultAcc
				}
				total += math.Abs(logOdds(a, tr.cfg.Options))
			}
			if total > 0 && w > 0 {
				conf = w / total
			}
			out = append(out, ResolvedAnswer{
				TaskID: id, Option: l, Confidence: conf, Votes: len(votes),
			})
		}
	default: // MethodMajority
		for _, id := range ids {
			votes := tr.tasks[id].votes
			l, n := Majority(votes, tr.cfg.Options)
			out = append(out, ResolvedAnswer{
				TaskID: id, Option: l,
				Confidence: float64(n) / float64(len(votes)),
				Votes:      len(votes),
			})
		}
	}
	return out
}

// Stats is the tracker's accounting snapshot.
type Stats struct {
	K                int   `json:"k"`
	AnswersSubmitted int64 `json:"answers_submitted"`
	TasksResolved    int64 `json:"tasks_resolved"`
	PendingPartial   int64 `json:"pending_partial"`
	GoldGraded       int64 `json:"gold_graded"`
	Quarantined      int64 `json:"quarantined"`
	Workers          int   `json:"workers"`
}

// Conserved reports the answer-flow conservation law: every accepted
// non-gold answer is either pending on a partial task or was consumed by
// a k-vote resolution.
func (s Stats) Conserved() bool {
	return s.AnswersSubmitted == int64(s.K)*s.TasksResolved+s.PendingPartial
}

// Stats returns the current accounting. Exact at any moment — the
// tracker mutates under one lock.
func (tr *Tracker) Stats() Stats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return Stats{
		K:                tr.cfg.K,
		AnswersSubmitted: tr.answersSubmitted,
		TasksResolved:    tr.tasksResolved,
		PendingPartial:   tr.pendingPartial,
		GoldGraded:       tr.goldGraded,
		Quarantined:      tr.quarantinedNow,
		Workers:          len(tr.workers),
	}
}
