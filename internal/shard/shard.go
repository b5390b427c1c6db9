// Package shard is the sharded streaming assignment engine: N independent
// stream.Assigner shards, each guarded by its own mutex, with workers
// partitioned across shards by a consistent-hash ring and tasks routed by
// scatter-gather marginal-gain scoring. Every shard call runs in the
// caller's goroutine under that shard's lock; a goroutine holds at most
// one shard lock at a time, so concurrency comes from concurrent requests
// on different shards and no lock order can cycle. Snapshot takes no
// shard lock: it holds the engine's liveness lock for writing, which
// waits out every operation.
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
// All three steps are Route (route.go), the one decision the cluster
// gateway also makes over its nodes. A Member brings the transport: its
// Scatter asks the shards under their locks here and the nodes' RPC
// there, and Admission is the duplicate filter and counters both keep
// around it: an ID is refused while it is buffered or active, and may be
// offered again once it completes, expires or is dropped.
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

// Engine is the sharded streaming assignment engine. All methods are safe
// for concurrent use.
type Engine struct {
	cfg     Config
	ring    *Ring
	parts   []*part
	metrics *Metrics
	tracer  *trace.Recorder
	journal *ops.Journal

	// live guards the closed flag: operations hold the read side while
	// they touch the shards, and no operation takes it twice; Close and
	// Snapshot take the write side, so they wait out every operation in
	// flight.
	live   sync.RWMutex
	closed bool

	// adm is the offers' admission: the engine-wide filter over live task
	// IDs (a task lives on exactly one shard, so per-shard filters cannot
	// see cross-shard duplicates), the submitted count and the offers
	// rejected with ErrBufferFull. Every exit the engine sees (completion,
	// expiry, removal and steal overflow) releases the ID. Per-shard
	// removal/steal overflow counts live on the parts. base* carry
	// counters restored from a snapshot.
	adm           *Admission[struct{}]
	baseSubmitted int64
	baseCompleted int64
	baseDropped   int64
	baseExpired   int64

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
	for i := range e.parts {
		scfg := cfg.Stream
		pm, sm := newPartMetrics(cfg.Registry, i)
		scfg.Metrics = sm
		asn, err := stream.NewAssigner(scfg)
		if err != nil {
			return nil, err
		}
		e.parts[i] = &part{id: i, asn: asn, metrics: pm}
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

// Close waits out the operations in flight and stops the rebalancer and
// the expiry sweep. Idempotent; operations after Close return ErrClosed.
func (e *Engine) Close() {
	e.live.Lock()
	if e.closed {
		e.live.Unlock()
		return
	}
	e.closed = true
	e.live.Unlock()
	// The rebalancer checks closed under the read lock before posting,
	// so stopping it after flipping the flag is safe.
	if e.stopSteal != nil {
		close(e.stopSteal)
		<-e.stealDone
	}
	if e.stopExpire != nil {
		close(e.stopExpire)
		<-e.expireDone
	}
}

// begin takes the liveness read-lock, or returns ErrClosed without it.
// On success the caller defers e.live.RUnlock() for the rest of the
// operation's shard calls.
func (e *Engine) begin() error {
	e.live.RLock()
	if e.closed {
		e.live.RUnlock()
		return ErrClosed
	}
	return nil
}

// AddWorker registers the worker on its ring shard and drains that
// shard's buffer into its free capacity (best marginal gain first).
// Returns the drained tasks.
func (e *Engine) AddWorker(w *core.Worker) ([]*core.Task, error) {
	return e.AddWorkerCtx(context.Background(), w)
}

// AddWorkerCtx is AddWorker with trace annotation.
func (e *Engine) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	err := e.begin()
	if err != nil {
		return nil, err
	}
	defer e.live.RUnlock()
	if w == nil || w.ID == "" {
		return nil, errors.New("shard: nil worker or empty ID")
	}
	p := e.parts[e.ring.Lookup(w.ID)]
	var assigned []*core.Task
	p.call(func(asn *stream.Assigner) {
		assigned, err = asn.AddWorker(w)
		if err == nil && e.windows != nil {
			// Learned-window hook: record the arrival and, once the
			// tracker has seen enough of this worker's sessions, push the
			// estimated departure into the shard so deadline-aware
			// routing can steer imminent work away.
			e.windows.Arrive(w.ID, e.now())
			if est := e.windows.DepartureEstimate(w.ID); est > 0 {
				_ = asn.SetWindow(w.ID, est)
			}
		}
	})
	if err == nil {
		trace.Event(ctx, "shard.add_worker",
			trace.Str("worker", w.ID), trace.Int("shard", p.id),
			trace.Int("drained", len(assigned)))
	}
	return assigned, err
}

// RemoveWorker deregisters the worker; its unfinished tasks return to its
// shard's buffer, overflow is dropped and returned.
func (e *Engine) RemoveWorker(id string) ([]*core.Task, error) {
	return e.RemoveWorkerCtx(context.Background(), id)
}

// RemoveWorkerCtx is RemoveWorker with trace annotation.
func (e *Engine) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	err := e.begin()
	if err != nil {
		return nil, err
	}
	defer e.live.RUnlock()
	p := e.parts[e.ring.Lookup(id)]
	var dropped []*core.Task
	p.call(func(asn *stream.Assigner) { dropped, err = asn.RemoveWorker(id) })
	if err == nil && e.windows != nil {
		e.windows.Depart(id, e.now())
	}
	if err == nil {
		if n := len(dropped); n > 0 {
			p.dropped.Add(int64(n))
			e.metrics.Dropped.Add(float64(n))
		}
		for _, t := range dropped {
			e.adm.Release(t.ID)
		}
		trace.Event(ctx, "shard.remove_worker",
			trace.Str("worker", id), trace.Int("shard", p.id),
			trace.Int("dropped", len(dropped)))
	}
	return dropped, err
}

// OfferTask routes an arriving task to the best worker across all shards,
// or into a buffer. Returns the assigned worker's ID ("" if buffered) —
// the sharded analogue of stream.Assigner.OfferTask.
func (e *Engine) OfferTask(t *core.Task) (string, error) {
	return e.OfferTaskCtx(context.Background(), t)
}

// OfferTaskCtx is OfferTask under the caller's trace: the scatter-gather
// decision is recorded as a "shard.route" span with per-attempt
// "shard.commit" events.
func (e *Engine) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	err := e.begin()
	if err != nil {
		return "", err
	}
	defer e.live.RUnlock()
	if t == nil || t.Keywords == nil {
		return "", errors.New("shard: nil task or keywords")
	}
	if t.ID == "" {
		return "", errors.New("shard: task with empty ID")
	}

	if !e.adm.Admit(t.ID) {
		return "", fmt.Errorf("shard: duplicate task %q", t.ID)
	}
	wid, shardID := "", 0
	start := time.Now()
	if len(e.parts) == 1 {
		// Single shard: straight through the one assigner, so selection,
		// buffering and metrics are exactly the bare stream.Assigner's —
		// the determinism test pins this.
		e.parts[0].call(func(asn *stream.Assigner) { wid, err = asn.OfferTask(t) })
	} else {
		var span *trace.Span
		ctx, span = trace.Start(ctx, "shard.route", trace.Str("task", t.ID))
		wid, shardID, err = Route(ctx, shards{e}, t)
		span.SetAttrs(trace.Int("shard", shardID),
			trace.Bool("buffered", err == nil && wid == ""), trace.Str("worker", wid))
		span.End()
	}
	e.metrics.RouteLatency.Observe(time.Since(start).Seconds())
	if err == nil && e.forecast != nil {
		e.forecast[shardID].RecordArrivals(1)
	}
	if errors.Is(err, stream.ErrBufferFull) {
		e.adm.Reject(t.ID)
	}
	return wid, err
}

// each runs fn under every shard's lock in turn, in index order. Caller
// holds the liveness read-lock.
func (e *Engine) each(fn func(p *part)) {
	for _, p := range e.parts {
		p.call(func(*stream.Assigner) { fn(p) })
	}
}

// shards is the engine's parts as routing members.
type shards struct{ e *Engine }

// Scatter asks every shard for its Score of t (read-only, one shard lock
// at a time). Each reply lands at its shard's index. With more than one
// shard a shard with no partly-filled worker answers pending
// (stream.Assigner.BestGainPartial), which spares it the scan over every
// worker unless the decision turns on it; a lone shard always answers in
// full, since asking it again would cost a second shard call.
func (s shards) Scatter(_ context.Context, t *core.Task) []Score {
	scores := make([]Score, len(s.e.parts))
	partial := len(s.e.parts) > 1
	s.e.each(func(p *part) {
		sc := &scores[p.id]
		if partial {
			var pending bool
			if sc.Gain, sc.Rel, sc.Free, pending = p.asn.BestGainPartial(t); pending {
				*sc = pendingScore(0)
			}
		} else {
			sc.Gain, sc.Rel, sc.Free = p.asn.BestGain(t)
		}
		sc.Backlog = p.asn.Backlog()
	})
	return scores
}

// Rescore asks the pending shards, and only them, for their full scores,
// counted in RouteRescores and marked on the caller's "shard.route" span.
func (s shards) Rescore(ctx context.Context, t *core.Task, scores []Score) {
	s.e.metrics.RouteRescores.Inc()
	trace.FromContext(ctx).SetAttrs(trace.Bool("rescored", true))
	for i := range scores {
		sc := &scores[i]
		if !sc.Pending {
			continue
		}
		s.e.parts[i].call(func(asn *stream.Assigner) {
			sc.Gain, sc.Rel, sc.Free = asn.BestGain(t)
			sc.Pending = false
		})
	}
}

// Commit is one "shard.commit" attempt; a failure means the shard filled
// between score and commit, counted in CommitRetries.
func (s shards) Commit(ctx context.Context, i int, t *core.Task) (wid string, ok bool) {
	s.e.parts[i].call(func(asn *stream.Assigner) { wid, ok = asn.TryAssign(t) })
	trace.Event(ctx, "shard.commit", trace.Int("shard", i), trace.Bool("ok", ok))
	if !ok {
		s.e.metrics.CommitRetries.Inc()
	}
	return wid, ok
}

func (s shards) Buffer(_ context.Context, i int, t *core.Task) (err error) {
	s.e.parts[i].call(func(asn *stream.Assigner) { err = asn.BufferTask(t) })
	return err
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

// Complete marks the task finished on the worker's shard; the freed slot
// pulls the best buffered task, which is returned (nil when the shard's
// buffer is empty).
func (e *Engine) Complete(workerID, taskID string) (*core.Task, error) {
	return e.CompleteCtx(context.Background(), workerID, taskID)
}

// CompleteCtx is Complete with trace annotation.
func (e *Engine) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	c, err := e.complete(ctx, workerID, taskID, false)
	return c.Next, err
}

// Completion is one completion with its read-back: the task the freed
// slot pulled (nil when none), the worker record, and the worker's
// display set after the pull. Worker is nil when the read-back failed
// after the completion stood, which a backend that reads back in a
// second step allows (the worker left in between).
type Completion struct {
	Next   *core.Task
	Worker *core.Worker
	Active []*core.Task
}

// CompleteRead is CompleteCtx that also reads back the worker record and
// its display set, in the same shard call as the completion — what
// POST /api/workers/{id}/complete answers with.
func (e *Engine) CompleteRead(ctx context.Context, workerID, taskID string) (Completion, error) {
	return e.complete(ctx, workerID, taskID, true)
}

// complete is the body of CompleteCtx and CompleteRead: one shard call
// that completes, pulls, and reads back when read is set.
func (e *Engine) complete(ctx context.Context, workerID, taskID string, read bool) (c Completion, err error) {
	if err := e.begin(); err != nil {
		return c, err
	}
	defer e.live.RUnlock()
	p := e.parts[e.ring.Lookup(workerID)]
	p.call(func(asn *stream.Assigner) {
		c.Next, err = asn.Complete(workerID, taskID)
		if err == nil && read {
			c.Worker, _ = asn.Worker(workerID)
			c.Active, _ = asn.ActiveTasks(workerID)
		}
	})
	if err == nil {
		e.adm.Release(taskID)
		p.completed.Add(1)
		if e.forecast != nil {
			e.forecast[p.id].RecordCompletions(1)
		}
		pulled := ""
		if c.Next != nil {
			pulled = c.Next.ID
		}
		trace.Event(ctx, "shard.complete",
			trace.Str("worker", workerID), trace.Str("task", taskID),
			trace.Int("shard", p.id), trace.Str("pulled", pulled))
	}
	return c, err
}

// onWorker is the body of the per-worker calls: read on the shard that
// owns workerID, under the liveness read-lock.
func onWorker[T any](e *Engine, workerID string, read func(*stream.Assigner, string) (T, error)) (out T, err error) {
	if err := e.begin(); err != nil {
		return out, err
	}
	defer e.live.RUnlock()
	e.parts[e.ring.Lookup(workerID)].call(func(asn *stream.Assigner) { out, err = read(asn, workerID) })
	return out, err
}

// Active returns the worker's assigned task IDs.
func (e *Engine) Active(workerID string) ([]string, error) {
	return onWorker(e, workerID, (*stream.Assigner).Active)
}

// ActiveTasks returns the worker's assigned tasks.
func (e *Engine) ActiveTasks(workerID string) ([]*core.Task, error) {
	return onWorker(e, workerID, (*stream.Assigner).ActiveTasks)
}

// Completed returns how many tasks the worker finished.
func (e *Engine) Completed(workerID string) (int, error) {
	return onWorker(e, workerID, (*stream.Assigner).Completed)
}

// Trust returns the worker's trust multiplier on its owning shard.
func (e *Engine) Trust(workerID string) (float64, error) {
	return onWorker(e, workerID, (*stream.Assigner).Trust)
}

// SetTrust updates the worker's trust multiplier on its owning shard
// (stream.Assigner.SetTrust semantics: 0 quarantines under
// Config.Stream.WithTrust; lifting a quarantine drains that shard's
// buffer into the worker and returns the tasks assigned).
func (e *Engine) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	return onWorker(e, workerID, func(asn *stream.Assigner, id string) ([]*core.Task, error) {
		return asn.SetTrust(id, trust)
	})
}

// SetWindow records the worker's declared availability-window end on its
// owning shard (0 clears it). When the engine learns windows
// (Config.LearnWindows) the declaration also overrides the tracker's
// estimate until the worker next departs.
func (e *Engine) SetWindow(workerID string, until int64) error {
	err := e.begin()
	if err != nil {
		return err
	}
	defer e.live.RUnlock()
	e.parts[e.ring.Lookup(workerID)].call(func(asn *stream.Assigner) {
		err = asn.SetWindow(workerID, until)
	})
	if err == nil && e.windows != nil {
		e.windows.Declare(workerID, until)
	}
	return err
}

// Window returns the worker's recorded availability-window end (0 =
// unknown).
func (e *Engine) Window(workerID string) (int64, error) {
	return onWorker(e, workerID, (*stream.Assigner).Window)
}

// Worker returns the registered worker record.
func (e *Engine) Worker(workerID string) (*core.Worker, error) {
	return onWorker(e, workerID, (*stream.Assigner).Worker)
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

// Objective returns the global streaming objective — the sum of every
// shard's total motivation over active sets, summed shard by shard; exact
// at quiescence.
func (e *Engine) Objective() float64 {
	if err := e.begin(); err != nil {
		return 0
	}
	defer e.live.RUnlock()
	var total float64
	e.each(func(p *part) { total += p.asn.Objective() })
	return total
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

// Stats gathers the per-shard states and engine counters. Exact at
// quiescence; under concurrent traffic each shard's numbers are a
// consistent per-shard cut but the cross-shard sum may be mid-flight.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: len(e.parts)}
	if err := e.begin(); err != nil {
		return st
	}
	defer e.live.RUnlock()
	st.PerShard = make([]ShardStats, len(e.parts))
	e.each(func(p *part) {
		s := ShardStats{
			Shard:     p.id,
			Workers:   p.asn.NumWorkers(),
			Active:    p.asn.ActiveCount(),
			Backlog:   p.asn.BufferLen(),
			FreeSlots: p.asn.FreeCapacity(),
			Completed: p.completed.Load(),
			Dropped:   p.dropped.Load(),
			Expired:   p.expired.Load(),
		}
		if e.forecast != nil {
			s.Predicted = e.forecast[p.id].PredictedBacklog(s.Backlog, e.cfg.ForecastHorizon)
		}
		st.PerShard[p.id] = s
	})
	for _, s := range st.PerShard {
		st.Workers += s.Workers
		st.Active += s.Active
		st.Completed += s.Completed
		st.Buffered += s.Backlog
		st.Dropped += s.Dropped
		st.Expired += s.Expired
	}
	st.Completed += e.baseCompleted
	st.Dropped += e.adm.Dropped() + e.baseDropped
	st.Expired += e.baseExpired
	st.Submitted = e.adm.Submitted() + e.baseSubmitted
	return st
}

// WorkerIDs returns all registered worker IDs, grouped by shard in shard
// order (arrival order within a shard).
func (e *Engine) WorkerIDs() []string {
	if err := e.begin(); err != nil {
		return nil
	}
	defer e.live.RUnlock()
	var out []string
	e.each(func(p *part) { out = append(out, p.asn.WorkerIDs()...) })
	return out
}
