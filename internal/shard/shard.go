// Package shard is the sharded streaming assignment engine: N independent
// stream.Assigner shards, each guarded by its own mutex, with workers
// partitioned across shards by a consistent-hash ring and tasks routed by
// scatter-gather marginal-gain scoring. Every shard call runs in the
// caller's goroutine under that shard's lock; a goroutine holds at most
// one shard lock at a time, so concurrency comes from concurrent requests
// on different shards and no lock order can cycle. Snapshot holds the
// engine's barrier for writing, which waits out every operation, and
// cuts the shards one at a time.
//
// The single-Assigner deployment serializes every event on one mutex — a
// hard ceiling once "heavy traffic from millions of users" is the target.
// Online assignment shards naturally across workers when each decision is
// a per-worker marginal-gain pick (Assadi et al., Online Task Assignment
// in Crowdsourcing Markets): the greedy choice argmax_q Δ(q, k) over all
// workers equals the max over per-shard maxima, so partitioning workers
// preserves the objective exactly — only the *interleaving* of concurrent
// events can differ from the serial order, never the per-event rule. With
// one shard the engine routes directly through the one Assigner, making
// it event-for-event identical to the bare stream.Assigner (tested).
//
// Protocol per arriving task (OfferTask):
//
//  1. scatter: every shard scores its best Δ(q, k) among workers with
//     free capacity (read-only, one shard lock at a time, in index
//     order), each score held at its shard's index;
//  2. commit: rank the shards that scored free by gain, relevance and
//     index, and try them in that order — under contention a shard may
//     fill between score and commit; a shard that scored full is never
//     asked;
//  3. buffer: if no shard committed, park the task in the least
//     backlogged shard's buffer; every buffer full → ErrBufferFull.
//
// The same rule partitions across nodes, so the package is written over
// parts. A Part (body.go) is a member of the decision plus the per-worker
// calls and set reads: a shard here, a node behind RPC in the cluster
// gateway, or a whole Engine, which is what a node applies its ops to.
// Route (route.go) is the decision over a Member set, and Body is
// everything around it, written once for both layers: the liveness
// barrier and ErrClosed, the Admission (duplicate filter and counters:
// an ID is refused while it is buffered or active), the per-worker calls
// on the owning part, Close, the merged Stats, Objective and WorkerIDs,
// and the snapshot document: one Cut merged from the parts' cuts, which
// Restore reads back at any shard count. The Engine is a Body over its
// shards plus what only it has: the ring, the one-shard fast path,
// stealing, the expiry sweep, forecasts, learned windows and Restore.
//
// Dynamic worker availability (arrivals/departures mid-stream, cf.
// DATA-WA) skews load between partitions, so a rebalancer steals bounded
// batches of *buffered* tasks from shards whose backlog exceeds a
// watermark into shards with free capacity. Only buffered tasks move —
// active assignments never migrate, so worker→shard routing stays pure
// ring lookup.
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/schedule"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("shard: engine closed")

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of partitions (>= 1). With 1 shard the engine
	// degenerates to a lock-wrapped stream.Assigner and work stealing is
	// disabled.
	Shards int
	// Stream is the per-shard assigner template. BufferLimit is per
	// shard, so total buffer capacity is Shards·BufferLimit; divide a
	// fixed global budget by Shards for capacity-fair comparisons. The
	// Metrics field is ignored — each shard gets its own shard="K"
	// labeled instrument set on Registry.
	Stream stream.Config
	// StealWatermark is the per-shard backlog above which the rebalancer
	// sheds buffered tasks. Default BufferLimit/4 (min 8).
	StealWatermark int
	// StealBatch bounds tasks moved per shard pair per rebalance round.
	// Default 32.
	StealBatch int
	// StealInterval is the rebalancer period. 0 defaults to 20ms;
	// negative disables stealing (it is always disabled with 1 shard).
	StealInterval time.Duration
	// Predictive turns the reactive watermark rebalancer into a
	// forecast-driven one: each shard carries a demand forecaster
	// (internal/schedule — EWMA arrival/completion rates with a
	// burstiness guard) ticked once per steal round, and donors are
	// chosen on the *projected* backlog ForecastHorizon rounds ahead, so
	// bursty shards shed work before the watermark actually breaches.
	// Off by default; the reactive trigger is then byte-for-byte the PR 5
	// behaviour.
	Predictive bool
	// Forecast tunes the per-shard forecasters (zero value = defaults).
	// Only read when Predictive is set.
	Forecast schedule.ForecastConfig
	// ForecastHorizon is how many steal rounds ahead the projection
	// looks. Default 3. Only read when Predictive is set.
	ForecastHorizon float64
	// ExpireInterval is the period of the deadline-expiry sweep that
	// removes buffered tasks past their deadline (journaled and counted,
	// never silent). 0 disables the loop — ExpireOnce remains available
	// for explicit/deterministic driving.
	ExpireInterval time.Duration
	// LearnWindows attaches a schedule.WindowTracker to the engine:
	// AddWorker/RemoveWorker feed it arrival/departure observations, and
	// each worker's estimated departure is pushed into its shard so
	// deadline-aware routing (Stream.DeadlineAware) can avoid pinning
	// imminent work to a worker about to leave. Declared windows
	// (SetWindow) always override the learned estimate.
	LearnWindows bool
	// Windows tunes the learned-window tracker (zero value = defaults).
	// Only read when LearnWindows is set.
	Windows schedule.WindowConfig
	// Registry receives the engine and per-shard instruments. Defaults
	// to obs.Default().
	Registry *obs.Registry
	// Tracer records steal-round root spans (routing spans join the
	// caller's request trace instead). Defaults to trace.Default().
	Tracer *trace.Recorder
	// Journal receives operational events (watermark breaches, steal
	// rounds). Defaults to ops.Default().
	Journal *ops.Journal
}

// Engine is the sharded streaming assignment engine: a Body over its
// shards. All methods are safe for concurrent use.
type Engine struct {
	*Body[struct{}]
	cfg     Config
	ring    *Ring
	parts   []*part
	members []Part // parts, as the set reads visit them
	metrics *Metrics
	tracer  *trace.Recorder
	journal *ops.Journal

	// adm is the offers' admission: the engine-wide filter over live task
	// IDs (a task lives on exactly one shard, so per-shard filters cannot
	// see cross-shard duplicates), the submitted count and the offers
	// rejected with ErrBufferFull. Every exit the engine sees (completion,
	// expiry, removal and steal overflow) releases the ID. Per-shard
	// removal/steal overflow counts live on the parts.
	adm *Admission[struct{}]

	// forecast holds one demand forecaster per shard (nil unless
	// Predictive); windows is the learned availability tracker (nil
	// unless LearnWindows); now is the clock both share with the
	// assigners.
	forecast []*schedule.Forecaster
	windows  *schedule.WindowTracker
	now      func() int64

	// stealMu guards stealScratch, the reusable transfer slice steal
	// rounds move task batches in (see executeSteal).
	stealMu      sync.Mutex
	stealScratch []*core.Task

	stopSteal  chan struct{}
	stealDone  chan struct{}
	stopExpire chan struct{}
	expireDone chan struct{}
}

// New validates the configuration and builds the shards. It starts the
// rebalancer when Shards > 1 and stealing is enabled, and the expiry
// sweep when ExpireInterval > 0; with both off it starts no goroutine.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d, must be >= 1", cfg.Shards)
	}
	if cfg.Stream.BufferLimit == 0 {
		cfg.Stream.BufferLimit = 1024
	}
	if cfg.StealWatermark == 0 {
		cfg.StealWatermark = cfg.Stream.BufferLimit / 4
		if cfg.StealWatermark < 8 {
			cfg.StealWatermark = 8
		}
	}
	if cfg.StealBatch == 0 {
		cfg.StealBatch = 32
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = 20 * time.Millisecond
	}
	if cfg.ForecastHorizon == 0 {
		cfg.ForecastHorizon = 3
	}
	if cfg.ForecastHorizon < 0 {
		return nil, fmt.Errorf("shard: ForecastHorizon = %g", cfg.ForecastHorizon)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Journal == nil {
		cfg.Journal = ops.Default()
	}
	labels := make([]string, cfg.Shards)
	for i := range labels {
		labels[i] = fmt.Sprintf("shard-%d", i)
	}
	ring, err := NewRing(labels)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		ring:    ring,
		metrics: NewMetrics(cfg.Registry),
		tracer:  cfg.Tracer,
		journal: cfg.Journal,
	}
	e.metrics.Shards.Set(float64(cfg.Shards))
	e.adm = NewAdmission[struct{}](e.metrics.Submitted, e.metrics.Dropped)
	e.Body = NewBody(e.adm, shards{e}, e.stopLoops)
	e.now = cfg.Stream.Now
	if e.now == nil {
		e.now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Predictive {
		e.forecast = make([]*schedule.Forecaster, cfg.Shards)
		for i := range e.forecast {
			e.forecast[i] = schedule.NewForecaster(cfg.Forecast)
		}
	}
	if cfg.LearnWindows {
		e.windows = schedule.NewWindowTracker(cfg.Windows)
	}
	e.parts = make([]*part, cfg.Shards)
	e.members = make([]Part, cfg.Shards)
	for i := range e.parts {
		scfg := cfg.Stream
		pm, sm := newPartMetrics(cfg.Registry, i)
		scfg.Metrics = sm
		asn, err := stream.NewAssigner(scfg)
		if err != nil {
			return nil, err
		}
		e.parts[i] = &part{id: i, e: e, asn: asn, metrics: pm}
		e.members[i] = e.parts[i]
	}
	if cfg.Shards > 1 && cfg.StealInterval > 0 {
		e.stopSteal = make(chan struct{})
		e.stealDone = make(chan struct{})
		go e.stealLoop()
	}
	if cfg.ExpireInterval > 0 {
		e.stopExpire = make(chan struct{})
		e.expireDone = make(chan struct{})
		go e.expireLoop()
	}
	return e, nil
}

// Shards returns the configured shard count.
func (e *Engine) Shards() int { return len(e.parts) }

// ShardOf returns the shard index owning the worker ID (pure ring
// lookup; the worker need not be registered).
func (e *Engine) ShardOf(workerID string) int { return e.ring.Lookup(workerID) }

// stopLoops stops the rebalancer and the expiry sweep once Close has
// closed the barrier: both check it before a round, so stopping them
// after is safe.
func (e *Engine) stopLoops() {
	if e.stopSteal != nil {
		close(e.stopSteal)
		<-e.stealDone
	}
	if e.stopExpire != nil {
		close(e.stopExpire)
		<-e.expireDone
	}
}

// shards is the engine's parts as its Body's part set and as routing
// members.
type shards struct{ e *Engine }

// Owner is the worker's ring shard.
func (s shards) Owner(workerID string) (Part, error) {
	return s.e.parts[s.e.ring.Lookup(workerID)], nil
}

func (s shards) Parts() []Part { return s.e.members }

// Route is the offer decision over the shards, recorded as a "shard.route"
// span with per-attempt "shard.commit" events. With one shard the task
// goes straight through the one assigner, so selection, buffering and
// metrics are exactly the bare stream.Assigner's — the determinism test
// pins this.
func (s shards) Route(ctx context.Context, t *core.Task) (wid string, err error) {
	e, at := s.e, 0
	start := time.Now()
	if len(e.parts) == 1 {
		e.parts[0].call(func(asn *stream.Assigner) { wid, err = asn.OfferTask(t) })
	} else {
		var span *trace.Span
		ctx, span = trace.Start(ctx, "shard.route", trace.Str("task", t.ID))
		wid, at, err = Route(ctx, s, t)
		span.SetAttrs(trace.Int("shard", at),
			trace.Bool("buffered", err == nil && wid == ""), trace.Str("worker", wid))
		span.End()
	}
	e.metrics.RouteLatency.Observe(time.Since(start).Seconds())
	if err == nil && e.forecast != nil {
		e.forecast[at].RecordArrivals(1)
	}
	return wid, err
}

// Scatter asks every shard for its Score of t (read-only, one shard lock
// at a time). Each reply lands at its shard's index. With more than one
// shard a shard with no partly-filled worker answers pending
// (stream.Assigner.BestGainPartial), which spares it the scan over every
// worker unless the decision turns on it; a lone shard always answers in
// full, since asking it again would cost a second shard call.
func (s shards) Scatter(_ context.Context, t *core.Task) []Score {
	scores := make([]Score, len(s.e.parts))
	partial := len(s.e.parts) > 1
	for i, p := range s.e.parts {
		p.call(func(asn *stream.Assigner) {
			sc := &scores[i]
			if partial {
				var pending bool
				if sc.Gain, sc.Rel, sc.Free, pending = asn.BestGainPartial(t); pending {
					*sc = pendingScore(0)
				}
			} else {
				sc.Gain, sc.Rel, sc.Free = asn.BestGain(t)
			}
			sc.Backlog = asn.Backlog()
		})
	}
	return scores
}

// Rescore asks the pending shards, and only them, for their full scores,
// counted in RouteRescores and marked on the caller's "shard.route" span.
func (s shards) Rescore(ctx context.Context, t *core.Task, scores []Score) {
	s.e.metrics.RouteRescores.Inc()
	trace.FromContext(ctx).SetAttrs(trace.Bool("rescored", true))
	for i := range scores {
		if sc := &scores[i]; sc.Pending {
			full, _ := s.e.parts[i].Score(ctx, t)
			sc.Gain, sc.Rel, sc.Free, sc.Pending = full.Gain, full.Rel, full.Free, false
		}
	}
}

func (s shards) Commit(ctx context.Context, i int, t *core.Task) (string, bool) {
	return s.e.parts[i].Commit(ctx, t)
}

func (s shards) Buffer(ctx context.Context, i int, t *core.Task) error {
	return s.e.parts[i].Buffer(ctx, t)
}

// bufferLive is the buffer walk over the shards' live backlogs (atomic
// peeks), for callers with no scatter in hand.
func (e *Engine) bufferLive(t *core.Task) error {
	scores := make([]Score, len(e.parts))
	for i, p := range e.parts {
		scores[i].Backlog = p.asn.Backlog()
	}
	_, err := bufferWalk(context.Background(), shards{e}, scores, t)
	return err
}

// Active returns the worker's assigned task IDs.
func (e *Engine) Active(workerID string) ([]string, error) {
	if err := e.Begin(); err != nil {
		return nil, err
	}
	defer e.End()
	return get(e.parts[e.ring.Lookup(workerID)], workerID, (*stream.Assigner).Active)
}

// BufferLen returns the total buffered backlog across shards (atomic
// peeks; exact at quiescence).
func (e *Engine) BufferLen() int {
	n := 0
	for _, p := range e.parts {
		n += p.asn.Backlog()
	}
	return n
}

// FreeCapacity returns the total free task slots across shards.
func (e *Engine) FreeCapacity() int {
	n := 0
	for _, p := range e.parts {
		n += p.asn.FreeCapacity()
	}
	return n
}

// ShardStats is one shard's load picture. Predicted is the forecaster's
// backlog projection ForecastHorizon steal rounds ahead (equal to Backlog
// when the engine is not predictive or the forecaster is cold).
type ShardStats struct {
	Shard     int     `json:"shard"`
	Workers   int     `json:"workers"`
	Active    int     `json:"active"`
	Backlog   int     `json:"backlog"`
	FreeSlots int     `json:"free_slots"`
	Completed int64   `json:"completed"`
	Dropped   int64   `json:"dropped"`
	Expired   int64   `json:"expired,omitempty"`
	Predicted float64 `json:"predicted,omitempty"`
}

// Stats is the engine-wide accounting. At quiescence the conservation
// invariant holds exactly: Submitted = Active + Completed + Buffered +
// Dropped + Expired (every submitted task is in exactly one of those
// states).
type Stats struct {
	Shards    int          `json:"shards"`
	Workers   int          `json:"workers"`
	Active    int          `json:"active"`
	Completed int64        `json:"completed"`
	Buffered  int          `json:"buffered"`
	Dropped   int64        `json:"dropped"`
	Expired   int64        `json:"expired"`
	Submitted int64        `json:"submitted"`
	PerShard  []ShardStats `json:"per_shard"`
}

// Conserved reports whether the global task-flow conservation law holds.
func (s Stats) Conserved() bool {
	return s.Submitted == int64(s.Active)+s.Completed+int64(s.Buffered)+s.Dropped+s.Expired
}
