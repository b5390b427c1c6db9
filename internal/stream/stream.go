// Package stream implements online (streaming) motivation-aware task
// assignment — the deployment mode the paper's conclusion names as future
// work: "task assignment ... needs to be streamed and will depend on the
// availability of workers".
//
// Unlike the iteration engine (package adaptive), which solves a full HTA
// instance over a pooled batch, the streaming Assigner makes an immediate
// decision per event:
//
//   - a task arrives → it goes to the worker with the largest marginal
//     motivation gain among those with free capacity, or into a bounded
//     buffer when everyone is full;
//   - a worker completes a task → the freed slot pulls the buffered task
//     with the best marginal gain for that worker;
//   - a worker arrives → it drains the buffer up to Xmax;
//   - a worker departs → its active (never-started) tasks return to the
//     buffer for reassignment. This deliberately relaxes the batch model's
//     "once assigned, dropped" rule, which exists to keep iterations
//     disjoint, not to waste work on an abandoned queue.
//
// The marginal gain is the same quantity the batch objective sums
// (Equation 3 of the paper, incrementally):
//
//	Δ(q, k) = 2·α_q·Σ_{t∈active(q)} d(k, t) + β_q·(TR_q + |active(q)|·rel(q, k))
//
// The assigner keeps no duplicate filter: a task ID must not be offered
// while a task with that ID is buffered or active. The layer that admits
// tasks enforces that (shard.Admission, for the engine and the cluster
// gateway).
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/trace"
)

// Config parameterizes an Assigner.
type Config struct {
	// Xmax caps each worker's active set (constraint C1).
	Xmax int
	// BufferLimit caps the number of unassigned tasks held for later;
	// OfferTask rejects arrivals beyond it. Defaults to 1024.
	BufferLimit int
	// Dist is the diversity metric; defaults to Jaccard.
	Dist metric.Distance
	// Metrics receives the assigner's telemetry (queue depth, delivery and
	// drop counters, drain batch sizes). Nil uses the process-wide
	// instruments on obs.Default(); pass NewMetrics over a private
	// registry for isolation.
	Metrics *Metrics
	// WithTrust multiplies each worker's per-worker trust score (SetTrust,
	// default 1.0) into the marginal gain, extending the objective to
	// relevance × diversity × trust. A worker with trust 0 is quarantined:
	// it receives no new tasks at all. Off by default — the scoring path is
	// then bit-identical to a trust-free assigner.
	WithTrust bool
	// DeadlineAware turns on predictive scheduling semantics (deadline.go):
	// buffered tasks whose deadline falls within UrgencyHorizon are pulled
	// earliest-deadline-first (gain breaks ties) ahead of the pure
	// best-gain order, and routing avoids pinning a deadlined task to a
	// worker whose availability window (SetWindow) closes before the
	// deadline. Off by default; the default paths are then bit-identical
	// to a deadline-free assigner, and tasks without deadlines are
	// unaffected either way.
	DeadlineAware bool
	// UrgencyHorizon is how far ahead of Now a deadline must fall to make
	// a buffered task urgent, in the units of the Now clock (nanoseconds
	// by default). Defaults to 30s. Only read when DeadlineAware is on.
	UrgencyHorizon int64
	// Now supplies the clock urgency decisions compare deadlines against.
	// Defaults to time.Now().UnixNano; deterministic replays inject a
	// logical clock. Expiry never reads it — ExpireDue takes an explicit
	// timestamp.
	Now func() int64
}

// workerState is one worker's streaming state plus its slice of the
// incremental gain cache (see cache.go for the invariants).
type workerState struct {
	worker *core.Worker
	active []*core.Task // currently assigned, not yet completed
	sumRel float64      // Σ rel(t, w) over active
	done   int          // completed count
	trust  float64      // reputation multiplier; 0 = quarantined (Config.WithTrust)
	window int64        // availability-window end (SetWindow); 0 = unknown
	pos    int          // index in the assigner's order, states and partial index

	// Gain cache: rel[c] = rel(class c, worker); rows[s][c] =
	// d(class c, active[s]). Both stay aligned with the assigner's
	// classes; pullBest folds the rows in slot order on the fly.
	activePack bitset.Pack
	activeKw   func(i int) *bitset.Set
	rel        []float64
	rows       [][]float64
}

// Assigner is the streaming decision-maker. It is not safe for concurrent
// use; wrap it in a mutex (as the platform server does for the batch
// engine) when events arrive from multiple goroutines.
type Assigner struct {
	cfg     Config
	workers map[string]*workerState
	order   []string
	states  []*workerState // aligned with order: hot loops iterate this, never the map
	// free and partial are bitsets aligned with order: the workers with a
	// free slot, and those of them whose gain for an offer can be anything
	// but +0 (prune.go).
	free    []uint64
	partial []uint64
	buffer  []*core.Task
	metrics *Metrics

	// deadlined counts buffered tasks with a non-zero deadline, maintained
	// by the buffer mutators (cache.go), so the deadline-aware paths can
	// bail to the unordered fast path when the buffer carries no deadlines.
	deadlined int

	// Keyword classes of the buffer (cache.go): cls[i] is buffer[i]'s
	// class, classes[c] holds class c's keyword set and its members'
	// tickets (buffer index + dropped, the count of tasks ever dropped
	// from the front), and slots is the hash table from keyword set to
	// class.
	cls     []int
	classes []bufClass
	slots   []int32
	dropped int

	// Packed mirrors and scratch for the gain cache (cache.go): clsPack
	// mirrors the classes' keyword sets, wkrPack the registered workers'
	// keywords in arrival order. The closures adapt metric.Row's generic
	// fallback to the mirrored slices and are built once, so hot-path
	// kernel calls allocate nothing.
	clsPack  bitset.Pack
	wkrPack  bitset.Pack
	clsKw    func(i int) *bitset.Set
	workerKw func(i int) *bitset.Set
	rowPool  [][]float64
	scratchA []float64
	scratchW []float64

	// backlogN and freeCapN mirror len(buffer) and Σ_q (Xmax −
	// |active(q)|) atomically so other goroutines — the sharded engine's
	// steal watermark in particular — can peek at load without taking the
	// owner's lock. They are exact at the Assigner's quiescent points; a
	// concurrent reader may observe a value one mutation stale, which is
	// fine for load estimation and never for correctness decisions.
	backlogN atomic.Int64
	freeCapN atomic.Int64

	// epoch counts the mutations that can change bestFree's answer, and
	// pick remembers the last BestGain's answer under it, so the commit
	// that follows a score, and a repeated score, cost no second scan
	// (see BestGain). scans counts selection scans (Scans), so tests can
	// tell a reused pick or a pending answer from a scan.
	epoch uint64
	pick  pickMemo
	scans uint64
}

// pickMemo is one bestFree answer and the key it holds under: the epoch
// it was computed at and the task's keyword set and deadline, the only
// parts of a task bestFree reads. The zero memo, with no keyword set,
// answers nothing.
type pickMemo struct {
	epoch    uint64
	kw       *bitset.Set
	deadline int64
	id       string
	gain     float64
	rel      float64
}

// reusable reports whether the memo answers bestFree for t at epoch. The
// keyword set compares by value, as probe compares class keys.
func (p *pickMemo) reusable(epoch uint64, t *core.Task) bool {
	return p.kw != nil && p.epoch == epoch && p.deadline == t.Deadline &&
		p.kw.Len() == t.Keywords.Len() && p.kw.Equal(t.Keywords)
}

// NewAssigner validates the configuration.
func NewAssigner(cfg Config) (*Assigner, error) {
	if cfg.Xmax < 1 {
		return nil, fmt.Errorf("stream: Xmax = %d, must be >= 1", cfg.Xmax)
	}
	if cfg.BufferLimit == 0 {
		cfg.BufferLimit = 1024
	}
	if cfg.BufferLimit < 0 {
		return nil, fmt.Errorf("stream: BufferLimit = %d", cfg.BufferLimit)
	}
	if cfg.Dist == nil {
		cfg.Dist = metric.Jaccard{}
	}
	if cfg.UrgencyHorizon == 0 {
		cfg.UrgencyHorizon = int64(30 * time.Second)
	}
	if cfg.UrgencyHorizon < 0 {
		return nil, fmt.Errorf("stream: UrgencyHorizon = %d", cfg.UrgencyHorizon)
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	m := cfg.Metrics
	if m == nil {
		m = defaultMetrics()
	}
	a := &Assigner{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		metrics: m,
	}
	a.clsKw = func(i int) *bitset.Set { return a.classes[i].kw }
	a.workerKw = func(i int) *bitset.Set { return a.states[i].worker.Keywords }
	return a, nil
}

// BufferLen returns the number of tasks waiting for a free slot.
func (a *Assigner) BufferLen() int { return len(a.buffer) }

// Backlog is BufferLen readable from any goroutine: it loads an atomic
// mirror of the buffer length instead of touching the slice. The sharded
// engine's work-stealing watermark polls it without taking the owning
// shard's lock.
func (a *Assigner) Backlog() int { return int(a.backlogN.Load()) }

// FreeCapacity returns Σ over workers of (Xmax − |active|) — the number
// of task slots that could accept work right now. Like Backlog it reads
// an atomic mirror and is safe for concurrent readers; treat the value as
// a load estimate, not a reservation.
func (a *Assigner) FreeCapacity() int { return int(a.freeCapN.Load()) }

// NumWorkers returns how many workers are registered.
func (a *Assigner) NumWorkers() int { return len(a.workers) }

// ActiveCount returns the total number of currently assigned tasks across
// all workers.
func (a *Assigner) ActiveCount() int {
	n := 0
	for _, ws := range a.workers {
		n += len(ws.active)
	}
	return n
}

// WorkerIDs returns the registered worker IDs in arrival order.
func (a *Assigner) WorkerIDs() []string {
	return append([]string(nil), a.order...)
}

// Active returns the IDs of the tasks currently assigned to the worker.
func (a *Assigner) Active(workerID string) ([]string, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	out := make([]string, len(ws.active))
	for i, t := range ws.active {
		out[i] = t.ID
	}
	return out, nil
}

// ActiveTasks returns the tasks currently assigned to the worker. The
// slice is a copy; the tasks are shared.
func (a *Assigner) ActiveTasks(workerID string) ([]*core.Task, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return append([]*core.Task(nil), ws.active...), nil
}

// Worker returns the registered worker record.
func (a *Assigner) Worker(workerID string) (*core.Worker, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.worker, nil
}

// AddWorker registers a worker and immediately drains the buffer into its
// free capacity, best-marginal-gain first. Returns the tasks assigned.
// The worker's weights α and β must be finite and >= 0.
func (a *Assigner) AddWorker(w *core.Worker) ([]*core.Task, error) {
	if w == nil || w.Keywords == nil {
		return nil, errors.New("stream: nil worker or keywords")
	}
	if w.ID == "" {
		return nil, errors.New("stream: worker with empty ID")
	}
	if w.Alpha < 0 || !isFinite(w.Alpha) || w.Beta < 0 || !isFinite(w.Beta) {
		return nil, fmt.Errorf("stream: worker %q weights alpha=%v beta=%v, must be finite and >= 0", w.ID, w.Alpha, w.Beta)
	}
	if _, dup := a.workers[w.ID]; dup {
		return nil, fmt.Errorf("stream: duplicate worker %q", w.ID)
	}
	a.epoch++
	ws := &workerState{worker: w, trust: 1, pos: len(a.states)}
	ws.activeKw = func(i int) *bitset.Set { return ws.active[i].Keywords }
	a.workers[w.ID] = ws
	a.order = append(a.order, w.ID)
	a.states = append(a.states, ws)
	if ws.pos>>6 == len(a.partial) {
		a.free, a.partial = append(a.free, 0), append(a.partial, 0)
	}
	a.reindex(ws)
	a.wkrPack.Append(w.Keywords)
	// Seed the gain cache over the backlog's classes: one packed row gives
	// rel(class c, w); there are no rows yet (empty active set).
	if nc := len(a.classes); nc > 0 {
		ws.rel = make([]float64, nc)
		metric.Row(a.cfg.Dist, w.Keywords, &a.clsPack, a.clsKw, ws.rel)
		for i := range ws.rel {
			ws.rel[i] = 1 - ws.rel[i]
		}
	}
	a.freeCapN.Add(int64(a.cfg.Xmax))
	var assigned []*core.Task
	for len(ws.active) < a.cfg.Xmax {
		t := a.pullBest(ws)
		if t == nil {
			break
		}
		assigned = append(assigned, t)
	}
	if len(assigned) > 0 {
		a.metrics.DrainBatch.Observe(float64(len(assigned)))
	}
	return assigned, nil
}

// AddWorkerCtx is AddWorker with trace annotation: the buffer drain into
// the new worker is recorded as an instantaneous event with the
// post-drain queue depth.
func (a *Assigner) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	assigned, err := a.AddWorker(w)
	if err == nil {
		trace.Event(ctx, "stream.add_worker",
			trace.Str("worker", w.ID), trace.Int("drained", len(assigned)),
			trace.Int("queue_depth", len(a.buffer)))
	}
	return assigned, err
}

// RemoveWorker deregisters a worker; its unfinished active tasks return to
// the buffer (subject to the buffer limit; overflow tasks are dropped and
// returned so the caller can decide their fate).
func (a *Assigner) RemoveWorker(id string) (dropped []*core.Task, err error) {
	ws, ok := a.workers[id]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", id)
	}
	a.epoch++
	delete(a.workers, id)
	a.freeCapN.Add(-int64(a.cfg.Xmax - len(ws.active)))
	i := ws.pos
	a.order = append(a.order[:i], a.order[i+1:]...)
	copy(a.states[i:], a.states[i+1:])
	a.states[len(a.states)-1] = nil
	a.states = a.states[:len(a.states)-1]
	a.wkrPack.RemoveAt(i)
	a.unindex(i)
	a.releaseWorkerCache(ws)
	// Requeue through bufferAppend so the surviving workers' caches gain
	// entries for the returned tasks (the departed worker is already out
	// of a.order and gets none).
	for _, t := range ws.active {
		if len(a.buffer) < a.cfg.BufferLimit {
			a.bufferAppend(t)
			a.metrics.Requeued.Inc()
		} else {
			dropped = append(dropped, t)
			a.metrics.Dropped.Inc()
		}
	}
	a.syncQueueGauge()
	return dropped, nil
}

// ErrBufferFull is returned when a task arrives and neither a slot nor
// buffer space is available.
var ErrBufferFull = errors.New("stream: task buffer full")

// OfferTask routes an arriving task: to the best worker with capacity, or
// into the buffer. It returns the assigned worker's ID, or "" if buffered.
// The assigner refuses nothing by ID: task IDs must be unique among the
// live tasks, which is the caller's job (shard.Admission keeps that
// filter for the engine and the cluster gateway).
func (a *Assigner) OfferTask(t *core.Task) (string, error) {
	if t == nil || t.Keywords == nil {
		return "", errors.New("stream: nil task or keywords")
	}
	if t.ID == "" {
		return "", errors.New("stream: task with empty ID")
	}
	a.metrics.Submitted.Inc()
	bestQ, _, bestRel := a.bestFree(t)
	if bestQ == "" {
		if len(a.buffer) >= a.cfg.BufferLimit {
			a.metrics.Dropped.Inc()
			return "", ErrBufferFull
		}
		a.bufferAppend(t)
		a.syncQueueGauge()
		return "", nil
	}
	a.assign(a.workers[bestQ], t, bestRel)
	return bestQ, nil
}

// OfferTaskCtx is OfferTask with trace annotation: when ctx carries a
// sampled trace, the routing decision is recorded as an instantaneous
// event with the post-decision queue depth. A buffered task shows
// worker=""; a full buffer still returns ErrBufferFull.
func (a *Assigner) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	workerID, err := a.OfferTask(t)
	if err == nil {
		trace.Event(ctx, "stream.offer",
			trace.Str("task", t.ID), trace.Str("worker", workerID),
			trace.Bool("buffered", workerID == ""),
			trace.Int("queue_depth", len(a.buffer)))
	}
	return workerID, err
}

// Complete marks an active task finished; the freed slot immediately pulls
// the best buffered task for that worker, which is returned (nil if the
// buffer is empty).
func (a *Assigner) Complete(workerID, taskID string) (*core.Task, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	idx := -1
	for i, t := range ws.active {
		if t.ID == taskID {
			idx = i
			break
		}
	}
	if idx == -1 {
		return nil, fmt.Errorf("stream: task %q is not active for worker %q", taskID, workerID)
	}
	a.epoch++
	ws.sumRel -= metric.Relevance(a.cfg.Dist, ws.active[idx].Keywords, ws.worker.Keywords)
	a.removeActive(ws, idx)
	a.reindex(ws)
	ws.done++
	a.freeCapN.Add(1)
	a.metrics.Completed.Inc()
	return a.pullBest(ws), nil
}

// CompleteCtx is Complete with trace annotation: the completion (and any
// buffered task the freed slot pulled) is recorded as an instantaneous
// event with the post-dequeue queue depth.
func (a *Assigner) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	next, err := a.Complete(workerID, taskID)
	if err == nil {
		pulled := ""
		if next != nil {
			pulled = next.ID
		}
		trace.Event(ctx, "stream.complete",
			trace.Str("worker", workerID), trace.Str("task", taskID),
			trace.Str("pulled", pulled), trace.Int("queue_depth", len(a.buffer)))
	}
	return next, err
}

// Objective returns the current total motivation over all active sets —
// the streaming analogue of the batch objective, useful for comparing the
// online decisions against an offline solve on the same data.
func (a *Assigner) Objective() float64 {
	var total float64
	for _, id := range a.order {
		ws := a.workers[id]
		w := ws.worker
		var td float64
		for i := 1; i < len(ws.active); i++ {
			for j := 0; j < i; j++ {
				td += a.cfg.Dist.Distance(ws.active[i].Keywords, ws.active[j].Keywords)
			}
		}
		if len(ws.active) > 0 {
			total += 2*w.Alpha*td + w.Beta*float64(len(ws.active)-1)*ws.sumRel
		}
	}
	return total
}

// Completed returns how many tasks the worker has finished.
func (a *Assigner) Completed(workerID string) (int, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return 0, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.done, nil
}

// bestFree picks the registered worker with free capacity that maximizes
// the marginal gain for t. Primary criterion: marginal motivation gain.
// Ties — in particular the first task of an empty set, whose singleton
// motiv is 0 by Equation 3 — break toward the more relevant worker, so
// cold workers start from work that matches their interests. Returns
// ("", ...) when no worker has a free slot. OfferTask, TryAssign and
// BestGain all route through this one selection rule, which is what makes
// the 1-shard engine event-for-event identical to the bare Assigner.
//
// Under Config.DeadlineAware a deadlined task first tries only workers
// whose availability window (if known) outlasts the deadline — pinning
// imminent work to a worker about to depart just bounces it back at
// departure, possibly past the deadline. If every free worker is
// departing too soon the filter is dropped rather than leaving the task
// unplaced.
func (a *Assigner) bestFree(t *core.Task) (id string, gain, rel float64) {
	a.scans++
	if a.cfg.DeadlineAware && t.Deadline > 0 {
		if id, gain, rel = a.bestFreeScan(t, t.Deadline); id != "" {
			return id, gain, rel
		}
	}
	return a.bestFreeScan(t, 0)
}

// bestFreeScan is bestFree's selection rule. avoidBefore > 0 additionally
// skips workers whose known availability window ends before that instant.
// It answers from the partial workers alone when the empty ones cannot
// change the answer (prune.go), and scans every worker otherwise.
func (a *Assigner) bestFreeScan(t *core.Task, avoidBefore int64) (id string, gain, rel float64) {
	if id, gain, rel, v := a.scanPartial(t, avoidBefore); v == partialExact {
		return id, gain, rel
	}
	return a.scanAll(t, avoidBefore)
}

// scanAll is the selection loop over every worker with a free slot, in
// arrival order. The first candidate prices t against every registered
// worker in one packed row over wkrPack (aligned with order); rel(t, w)
// is 1 − d, bit for bit what metric.Relevance returns under the
// PackDistancer contract.
func (a *Assigner) scanAll(t *core.Task, avoidBefore int64) (id string, gain, rel float64) {
	bestQ, bestGain, bestRel := "", -1.0, -1.0
	priced := false
	for k, word := range a.free {
		for ; word != 0; word &= word - 1 {
			i := k<<6 | bits.TrailingZeros64(word)
			ws := a.states[i]
			if !a.eligible(ws, avoidBefore) {
				continue
			}
			if !priced {
				a.scratchW = growScratch(a.scratchW, len(a.states))
				metric.Row(a.cfg.Dist, t.Keywords, &a.wkrPack, a.workerKw, a.scratchW)
				priced = true
			}
			r := 1 - a.scratchW[i]
			// An empty worker with sumRel = 0 needs no pricing: Δ = 2α·0 +
			// β·(±0 + 0·r) is +0 for a finite r, and NaN, which no
			// comparison takes, otherwise.
			var g float64
			if len(ws.active) > 0 || ws.sumRel != 0 {
				g = a.scoreFresh(ws, t, r)
			} else if r-r != 0 {
				continue
			}
			if a.cfg.WithTrust {
				g *= ws.trust
			}
			if g > bestGain+gainEps || (g > bestGain-gainEps && r > bestRel) {
				bestQ, bestGain, bestRel = a.order[i], g, r
			}
		}
	}
	return bestQ, bestGain, bestRel
}

// BestGain scores t against this assigner's workers without changing any
// assignment: the scatter half of the sharded engine's routing protocol.
// It returns the best marginal gain and the relevance tiebreak among
// workers with free capacity; ok is false when every worker is full (the
// gain values are then meaningless).
//
// The pick is remembered for the commit that usually follows: a
// TryAssign of a task with an equal keyword set and deadline, with no
// mutation in between, assigns the remembered worker without a second
// scan, and a BestGain of such a task returns the remembered score (a
// multi-shard engine's commit walk scores every shard again). Every
// mutation that can change bestFree's answer — AddWorker,
// RemoveWorker, assign (pulls, offers, TryAssign, ForceAssign),
// Complete, SetTrust and SetWindow — advances the epoch the memo is keyed
// by, so the reused pick is the one a rescan would make, bit for bit.
// Registered worker records must not change under the assigner, which
// the gain cache already assumes.
func (a *Assigner) BestGain(t *core.Task) (gain, rel float64, ok bool) {
	if a.pick.reusable(a.epoch, t) {
		return a.pick.gain, a.pick.rel, a.pick.id != ""
	}
	id, gain, rel := a.bestFree(t)
	a.remember(t, id, gain, rel)
	return gain, rel, id != ""
}

// BestGainPartial is BestGain for a caller that can do without the
// relevance tie-break among empty workers: when no eligible worker is
// partly filled but some worker has a free slot, it answers pending
// instead of running the full scan. A pending answer means every
// eligible worker gains exactly +0 (prune.go), or none is eligible; the
// relevance is not computed. It is not remembered, so a later BestGain
// or TryAssign scans afresh. Every other answer is BestGain's, bit for
// bit, and remembered as BestGain's is.
//
// It never answers pending with Xmax = 1, where no worker is ever
// partly filled, or for a deadlined task under Config.DeadlineAware,
// whose scan first filters by availability window.
func (a *Assigner) BestGainPartial(t *core.Task) (gain, rel float64, ok, pending bool) {
	if a.pick.reusable(a.epoch, t) || a.cfg.Xmax == 1 || a.cfg.DeadlineAware && t.Deadline > 0 {
		gain, rel, ok = a.BestGain(t)
		return gain, rel, ok, false
	}
	id, gain, rel, v := a.scanPartial(t, 0)
	switch {
	case v == partialNone && a.FreeCapacity() > 0:
		return 0, 0, false, true
	case v != partialExact:
		id, gain, rel = a.scanAll(t, 0)
	}
	a.scans++
	a.remember(t, id, gain, rel)
	return gain, rel, id != "", false
}

// remember makes (id, gain, rel) the pick memo for t at this epoch.
func (a *Assigner) remember(t *core.Task, id string, gain, rel float64) {
	a.pick = pickMemo{epoch: a.epoch, kw: t.Keywords, deadline: t.Deadline, id: id, gain: gain, rel: rel}
}

// Scans returns how many selection scans the assigner ran: answers of
// OfferTask, TryAssign, BestGain and BestGainPartial that neither reused
// a pick nor were pending.
func (a *Assigner) Scans() uint64 { return a.scans }

// TryAssign assigns t to the best free worker under the same selection
// rule as OfferTask, but never buffers on failure — in the sharded
// engine a task rejected here will be committed to another shard.
// Returns ("", false) when no worker has a free slot.
// Right after a BestGain of an equal task it reuses that pick instead of
// scanning again (see BestGain).
func (a *Assigner) TryAssign(t *core.Task) (string, bool) {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", false
	}
	var id string
	var rel float64
	if a.pick.reusable(a.epoch, t) {
		id, rel = a.pick.id, a.pick.rel
	} else {
		id, _, rel = a.bestFree(t)
	}
	if id == "" {
		return "", false
	}
	a.assign(a.workers[id], t, rel)
	return id, true
}

// BufferTask parks t in the buffer without attempting assignment — the
// commit half of a routing decision that picked this shard as the least
// loaded. Returns ErrBufferFull beyond the limit.
func (a *Assigner) BufferTask(t *core.Task) error {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("stream: nil task or keywords")
	}
	if len(a.buffer) >= a.cfg.BufferLimit {
		return ErrBufferFull
	}
	a.bufferAppend(t)
	a.syncQueueGauge()
	return nil
}

// Buffered returns a copy of the buffer contents in order — snapshotting
// reads it; the tasks themselves are shared.
func (a *Assigner) Buffered() []*core.Task {
	if len(a.buffer) == 0 {
		return nil
	}
	return a.BufferedInto(nil)
}

// BufferedInto appends the buffer contents, in order, to dst and returns
// the extended slice — the allocation-free form of Buffered for callers
// that hold a reusable scratch slice (the snapshot path).
func (a *Assigner) BufferedInto(dst []*core.Task) []*core.Task {
	return append(dst, a.buffer...)
}

// TakeBuffered removes and returns up to n buffered tasks, oldest first —
// the donor half of cross-shard work stealing. The caller owns the
// returned tasks and must re-home them (TryAssign/BufferTask on another
// shard); they are gone from this assigner's accounting.
func (a *Assigner) TakeBuffered(n int) []*core.Task {
	if n <= 0 || len(a.buffer) == 0 {
		return nil
	}
	return a.TakeBufferedInto(n, nil)
}

// TakeBufferedInto is TakeBuffered appending into a caller-supplied
// scratch slice, so a steal moves tasks without allocating a fresh return
// slice per transfer. The donor slots are nilled in one pass as part of
// the order-preserving drop.
func (a *Assigner) TakeBufferedInto(n int, dst []*core.Task) []*core.Task {
	if n <= 0 || len(a.buffer) == 0 {
		return dst
	}
	if n > len(a.buffer) {
		n = len(a.buffer)
	}
	dst = append(dst, a.buffer[:n]...)
	a.bufferDropFront(n)
	a.syncQueueGauge()
	return dst
}

// ForceAssign places t directly on the named worker, bypassing the
// selection rule — snapshot restore uses it to re-materialize active sets
// exactly as they were. Capacity (C1) is still enforced.
func (a *Assigner) ForceAssign(workerID string, t *core.Task) error {
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("stream: nil task or keywords")
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return fmt.Errorf("stream: unknown worker %q", workerID)
	}
	if len(ws.active) >= a.cfg.Xmax {
		return fmt.Errorf("stream: worker %q is at capacity", workerID)
	}
	a.assign(ws, t, metric.Relevance(a.cfg.Dist, t.Keywords, ws.worker.Keywords))
	return nil
}

// RestoreDone seeds the worker's completion counter — snapshot restore
// only; n must be non-negative.
func (a *Assigner) RestoreDone(workerID string, n int) error {
	if n < 0 {
		return fmt.Errorf("stream: negative done count %d", n)
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return fmt.Errorf("stream: unknown worker %q", workerID)
	}
	ws.done += n
	return nil
}

// Trust returns the worker's current trust multiplier (1.0 until SetTrust
// changes it; 0 means quarantined under Config.WithTrust).
func (a *Assigner) Trust(workerID string) (float64, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return 0, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.trust, nil
}

// SetTrust updates the worker's trust multiplier. trust must be finite
// and >= 0; 0 quarantines the worker (no new assignments while
// Config.WithTrust is on — its current active set is untouched, matching
// the quality layer's "quarantine blocks future work, keeps collected
// votes" rule). Lifting a quarantine (0 → positive) drains the buffer
// into the worker's free capacity exactly like AddWorker, and the tasks
// assigned by that drain are returned. Without WithTrust the value is
// stored (and round-trips through snapshots) but does not affect scoring.
func (a *Assigner) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	if trust < 0 || !isFinite(trust) {
		return nil, fmt.Errorf("stream: trust %v, must be finite and >= 0", trust)
	}
	ws, ok := a.workers[workerID]
	if !ok {
		return nil, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	a.epoch++
	wasQuarantined := ws.trust <= 0
	ws.trust = trust
	if !a.cfg.WithTrust || !wasQuarantined || trust <= 0 {
		return nil, nil
	}
	var assigned []*core.Task
	for len(ws.active) < a.cfg.Xmax {
		t := a.pullBest(ws)
		if t == nil {
			break
		}
		assigned = append(assigned, t)
	}
	if len(assigned) > 0 {
		a.metrics.DrainBatch.Observe(float64(len(assigned)))
	}
	return assigned, nil
}

// isFinite reports x is neither NaN nor ±Inf.
func isFinite(x float64) bool { return x-x == 0 }

// marginalGain is Δ(q, k) from the package comment.
func (a *Assigner) marginalGain(ws *workerState, t *core.Task) float64 {
	var sumDiv float64
	for _, u := range ws.active {
		sumDiv += a.cfg.Dist.Distance(t.Keywords, u.Keywords)
	}
	rel := metric.Relevance(a.cfg.Dist, t.Keywords, ws.worker.Keywords)
	w := ws.worker
	return 2*w.Alpha*sumDiv + w.Beta*(ws.sumRel+float64(len(ws.active))*rel)
}

// pullBest removes and assigns the buffered task with the best marginal
// gain for the worker; nil when the buffer is empty or the worker is full.
//
// This is the lazily-repaired score index at work: instead of re-running
// marginalGain per buffered task (an O(|active|) distance loop each), the
// scan folds the worker's cached rows and rel column per keyword class
// with two scalars — pure arithmetic over flat float64 slices of one
// entry per class, not per task. The best task is the first ticket of the
// class with the best gain; among classes of equal gain the lowest first
// ticket wins, which is the lowest buffer index a per-task scan would
// keep (cache.go). A heap over the classes would not help: assigning the
// pulled task changes every remaining gain for this worker (the fold
// shifts non-uniformly), so keys go stale after every pop and the
// repaired scan is the cheapest correct structure.
func (a *Assigner) pullBest(ws *workerState) *core.Task {
	if len(a.buffer) == 0 || len(ws.active) >= a.cfg.Xmax {
		return nil
	}
	// A quarantined worker's freed slot pulls nothing. (When trust is
	// positive it needs no gain scaling here: a constant per-worker factor
	// cannot change which buffered task wins this worker's argmax.)
	if a.cfg.WithTrust && ws.trust <= 0 {
		return nil
	}
	// Deadlines in the buffer under DeadlineAware divert to the
	// earliest-feasible-first scan (deadline.go); a deadline-free buffer
	// stays on the unrolled fast path below, whose decisions the ordered
	// scan reproduces exactly when no task is urgent.
	if a.cfg.DeadlineAware && a.deadlined > 0 {
		return a.pullBestDeadline(ws)
	}
	// The fold below adds the cached rows in slot order — the order
	// marginalGain sums in — and hoists 2α and β without regrouping the
	// gain expression, so rounding is identical to a from-scratch
	// recompute. The common row counts are unrolled (reslicing the rows
	// to len(rel) lets the compiler drop their bounds checks): with Xmax
	// in the single digits this scan is the hottest loop in the package.
	// A class's first ticket is read only when its gain reaches the best
	// so far.
	w := ws.worker
	twoAlpha, beta := 2*w.Alpha, w.Beta
	sumRel, n := ws.sumRel, float64(len(ws.active))
	rel, classes := ws.rel, a.classes[:len(ws.rel)]
	bestC, bestGain, bestTk := -1, math.Inf(-1), math.MaxInt
	switch len(ws.rows) {
	case 0:
		for c, rl := range rel {
			if g := twoAlpha*0 + beta*(sumRel+n*rl); g > bestGain || g == bestGain && classes[c].tickets[0] < bestTk {
				bestC, bestGain, bestTk = c, g, classes[c].tickets[0]
			}
		}
	case 1:
		r0 := ws.rows[0][:len(rel)]
		for c, rl := range rel {
			if g := twoAlpha*r0[c] + beta*(sumRel+n*rl); g > bestGain || g == bestGain && classes[c].tickets[0] < bestTk {
				bestC, bestGain, bestTk = c, g, classes[c].tickets[0]
			}
		}
	case 2:
		r0, r1 := ws.rows[0][:len(rel)], ws.rows[1][:len(rel)]
		for c, rl := range rel {
			if g := twoAlpha*(r0[c]+r1[c]) + beta*(sumRel+n*rl); g > bestGain || g == bestGain && classes[c].tickets[0] < bestTk {
				bestC, bestGain, bestTk = c, g, classes[c].tickets[0]
			}
		}
	case 3:
		r0, r1, r2 := ws.rows[0][:len(rel)], ws.rows[1][:len(rel)], ws.rows[2][:len(rel)]
		for c, rl := range rel {
			if g := twoAlpha*(r0[c]+r1[c]+r2[c]) + beta*(sumRel+n*rl); g > bestGain || g == bestGain && classes[c].tickets[0] < bestTk {
				bestC, bestGain, bestTk = c, g, classes[c].tickets[0]
			}
		}
	default:
		rows := ws.rows
		for c, rl := range rel {
			var ds float64
			for _, r := range rows {
				ds += r[c]
			}
			if g := twoAlpha*ds + beta*(sumRel+n*rl); g > bestGain || g == bestGain && classes[c].tickets[0] < bestTk {
				bestC, bestGain, bestTk = c, g, classes[c].tickets[0]
			}
		}
	}
	if bestC < 0 {
		return nil // every gain is NaN
	}
	i := bestTk - a.dropped
	t := a.buffer[i]
	relT := ws.rel[bestC]
	a.bufferSwapRemove(i)
	a.syncQueueGauge()
	a.assign(ws, t, relT)
	return t
}

// assign commits t to the worker: the cache gains an active slot (one
// packed row over the remaining buffer) and sumRel extends by the cached
// relevance, which is bit-identical to recomputing it.
func (a *Assigner) assign(ws *workerState, t *core.Task, rel float64) {
	a.epoch++
	a.addActive(ws, t)
	ws.sumRel += rel
	a.reindex(ws)
	a.freeCapN.Add(-1)
	a.metrics.Delivered.Inc()
}
