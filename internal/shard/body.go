package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/htacs/ata/internal/core"
)

// Part is one member of a part set: a shard under its lock (part), a node
// behind RPC (the cluster gateway's peer), or a whole engine, which is
// what a cluster node applies its ops to. Score, Commit and Buffer are a
// member's three legs of the offer decision; the rest are the per-worker
// calls, served by the part that owns the worker, and the set reads.
type Part interface {
	// Score is the part's full answer to an offer's scatter: its best
	// free gain and relevance, and its backlog.
	Score(ctx context.Context, t *core.Task) (Score, error)
	// Commit assigns t to the part's best free worker, never buffering;
	// ok is false when the part has no free worker.
	Commit(ctx context.Context, t *core.Task) (wid string, ok bool)
	// Buffer parks t on the part; any error is a refusal.
	Buffer(ctx context.Context, t *core.Task) error

	AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error)
	RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error)
	// Finish completes taskID on workerID and returns the buffered task
	// the freed slot pulled. With read it also reads back the worker
	// record and its display set (Completion).
	Finish(ctx context.Context, workerID, taskID string, read bool) (Completion, error)
	ActiveTasks(workerID string) ([]*core.Task, error)
	Worker(workerID string) (*core.Worker, error)
	Completed(workerID string) (int, error)
	Trust(workerID string) (float64, error)
	SetTrust(workerID string, trust float64) ([]*core.Task, error)
	Window(workerID string) (int64, error)
	SetWindow(workerID string, until int64) error

	WorkerIDs() []string
	Objective() float64
	// Stats is the part's accounting, one PerShard entry per shard it
	// holds, numbered from 0.
	Stats() Stats
	// Cut is the part's state as snapshot document entries, numbered and
	// totalled like Stats. Body.Cut asks for it with no operation in
	// flight on the body.
	Cut() (Cut, error)
}

// PartSet is what a Body runs over, and where the two layers differ: the
// engine's set is its shards, scattered in turn with pending scores and
// placed by ring lookup; the gateway's is its live nodes, scattered
// concurrently in full and placed by worker pin, then ring.
type PartSet interface {
	// Owner returns the part that serves workerID's calls.
	Owner(workerID string) (Part, error)
	// Parts returns the parts in set order, for the set reads.
	Parts() []Part
	// Route places an admitted task: the worker it was assigned to, or
	// "" when it was buffered. Any error rejects the task.
	Route(ctx context.Context, t *core.Task) (wid string, err error)
}

// Body is the engine around a part set, written once for the engine's
// shards and the gateway's nodes: the liveness barrier and its ErrClosed
// contract, the offers' Admission, the per-worker calls on the owning
// part, the set reads, the snapshot document (snapshot.go), and the
// counters no part holds. All methods are safe for concurrent use.
type Body[V any] struct {
	set  PartSet
	adm  *Admission[V]
	stop func()

	// live is the barrier: every operation holds the read side while it
	// touches the parts, and none takes it twice; Close and a cut
	// (Exclusive) take the write side, so they wait out every operation
	// in flight.
	live   sync.RWMutex
	closed bool

	// completed counts the completions through the body: the one count a
	// part cannot keep, since a node's dies with it. carried holds what no
	// live part reports: a restored engine's history and the last drop
	// counts of dead nodes (Absorb).
	completed atomic.Int64
	carried   struct{ submitted, dropped, expired atomic.Int64 }
}

// NewBody returns the body over set, admitting offers through adm. stop,
// when not nil, runs once on the first Close, after the barrier closed.
func NewBody[V any](adm *Admission[V], set PartSet, stop func()) *Body[V] {
	return &Body[V]{set: set, adm: adm, stop: stop}
}

// Close waits out the operations in flight and closes the barrier, then
// runs the set's stop. Idempotent; operations after Close return
// ErrClosed.
func (b *Body[V]) Close() {
	b.live.Lock()
	was := b.closed
	b.closed = true
	b.live.Unlock()
	if !was && b.stop != nil {
		b.stop()
	}
}

// Begin enters the barrier for one operation, or returns ErrClosed
// without entering. On success the caller defers End.
func (b *Body[V]) Begin() error {
	b.live.RLock()
	if b.closed {
		b.live.RUnlock()
		return ErrClosed
	}
	return nil
}

// End leaves the barrier entered by Begin.
func (b *Body[V]) End() { b.live.RUnlock() }

// Exclusive runs fn with no operation in flight: a consistent cut of
// every part. ErrClosed after Close.
func (b *Body[V]) Exclusive(fn func() error) error {
	b.live.Lock()
	defer b.live.Unlock()
	if b.closed {
		return ErrClosed
	}
	return fn()
}

// Absorb counts dropped tasks that no live part reports any more.
func (b *Body[V]) Absorb(dropped int64) { b.carried.dropped.Add(dropped) }

// Counts returns the body's own counters: the tasks submitted, the
// completions, and the drops counted above the parts (rejected offers,
// carried history, absorbed counts).
func (b *Body[V]) Counts() (submitted, completed, dropped int64) {
	return b.adm.Submitted() + b.carried.submitted.Load(), b.completed.Load(),
		b.adm.Dropped() + b.carried.dropped.Load()
}

// OfferTask is OfferTaskCtx with a background context.
func (b *Body[V]) OfferTask(t *core.Task) (string, error) {
	return b.OfferTaskCtx(context.Background(), t)
}

// OfferTaskCtx admits an arriving task and routes it over the parts: to
// the best worker, or into a buffer. Returns the assigned worker's ID (""
// if buffered); a task no part took is rejected and counted dropped, and
// the error is stream.ErrBufferFull.
func (b *Body[V]) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	if err := b.Begin(); err != nil {
		return "", err
	}
	defer b.End()
	if t == nil || t.Keywords == nil {
		return "", errors.New("shard: nil task or keywords")
	}
	if t.ID == "" {
		return "", errors.New("shard: task with empty ID")
	}
	if !b.adm.Admit(t.ID) {
		return "", fmt.Errorf("shard: duplicate task %q", t.ID)
	}
	wid, err := b.set.Route(ctx, t)
	if err != nil {
		b.adm.Reject(t.ID)
	}
	return wid, err
}

// on is the body of the per-worker calls: call on the part that owns
// workerID, inside the barrier.
func on[V, T any](b *Body[V], workerID string, call func(Part, string) (T, error)) (out T, err error) {
	if err = b.Begin(); err != nil {
		return out, err
	}
	defer b.End()
	p, err := b.set.Owner(workerID)
	if err != nil {
		return out, err
	}
	return call(p, workerID)
}

// AddWorker is AddWorkerCtx with a background context.
func (b *Body[V]) AddWorker(w *core.Worker) ([]*core.Task, error) {
	return b.AddWorkerCtx(context.Background(), w)
}

// AddWorkerCtx registers the worker on its owning part, which drains its
// buffer into the worker's free capacity (best marginal gain first).
// Returns the drained tasks.
func (b *Body[V]) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	if w == nil || w.ID == "" {
		return nil, errors.New("shard: nil worker or empty ID")
	}
	return on(b, w.ID, func(p Part, _ string) ([]*core.Task, error) { return p.AddWorkerCtx(ctx, w) })
}

// RemoveWorker is RemoveWorkerCtx with a background context.
func (b *Body[V]) RemoveWorker(id string) ([]*core.Task, error) {
	return b.RemoveWorkerCtx(context.Background(), id)
}

// RemoveWorkerCtx deregisters the worker; its unfinished tasks return to
// its part's buffer, and the overflow, counted dropped by the part, is
// released and returned.
func (b *Body[V]) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	return on(b, id, func(p Part, id string) ([]*core.Task, error) {
		dropped, err := p.RemoveWorkerCtx(ctx, id)
		for _, t := range dropped {
			b.adm.Release(t.ID)
		}
		return dropped, err
	})
}

// Complete is CompleteCtx with a background context.
func (b *Body[V]) Complete(workerID, taskID string) (*core.Task, error) {
	return b.CompleteCtx(context.Background(), workerID, taskID)
}

// CompleteCtx marks the task finished on the worker's part; the freed slot
// pulls the best buffered task, which is returned (nil when none).
func (b *Body[V]) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	c, err := b.Finish(ctx, workerID, taskID, false)
	return c.Next, err
}

// Completion is one completion with its read-back: the task the freed
// slot pulled (nil when none), the worker record, and the worker's
// display set after the pull. Worker is nil when the read-back failed
// after the completion stood, which a part that reads back in a second
// step allows (the worker left in between).
type Completion struct {
	Next   *core.Task
	Worker *core.Worker
	Active []*core.Task
}

// CompleteRead is CompleteCtx that also reads back the worker record and
// its display set in the same part call (one shard call, one frame) —
// what POST /api/workers/{id}/complete answers with.
func (b *Body[V]) CompleteRead(ctx context.Context, workerID, taskID string) (Completion, error) {
	return b.Finish(ctx, workerID, taskID, true)
}

// Finish is the body of CompleteCtx and CompleteRead: the completion on
// the owning part, whose task ID it releases and counts.
func (b *Body[V]) Finish(ctx context.Context, workerID, taskID string, read bool) (Completion, error) {
	return on(b, workerID, func(p Part, workerID string) (Completion, error) {
		c, err := p.Finish(ctx, workerID, taskID, read)
		if err == nil {
			b.adm.Release(taskID)
			b.completed.Add(1)
		}
		return c, err
	})
}

// ActiveTasks returns the worker's assigned tasks.
func (b *Body[V]) ActiveTasks(workerID string) ([]*core.Task, error) {
	return on(b, workerID, Part.ActiveTasks)
}

// Worker returns the registered worker record.
func (b *Body[V]) Worker(workerID string) (*core.Worker, error) {
	return on(b, workerID, Part.Worker)
}

// Completed returns how many tasks the worker finished.
func (b *Body[V]) Completed(workerID string) (int, error) {
	return on(b, workerID, Part.Completed)
}

// Trust returns the worker's trust multiplier.
func (b *Body[V]) Trust(workerID string) (float64, error) {
	return on(b, workerID, Part.Trust)
}

// SetTrust updates the worker's trust multiplier (stream.Assigner.SetTrust
// semantics: 0 quarantines under Config.Stream.WithTrust; lifting a
// quarantine drains the part's buffer into the worker and returns the
// tasks assigned).
func (b *Body[V]) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	return on(b, workerID, func(p Part, id string) ([]*core.Task, error) { return p.SetTrust(id, trust) })
}

// Window returns the worker's recorded availability-window end (0 =
// unknown).
func (b *Body[V]) Window(workerID string) (int64, error) {
	return on(b, workerID, Part.Window)
}

// SetWindow records the worker's declared availability-window end (0
// clears it).
func (b *Body[V]) SetWindow(workerID string, until int64) error {
	_, err := on(b, workerID, func(p Part, id string) (struct{}, error) { return struct{}{}, p.SetWindow(id, until) })
	return err
}

// WorkerIDs returns all registered worker IDs, grouped by part in set
// order.
func (b *Body[V]) WorkerIDs() []string {
	if b.Begin() != nil {
		return nil
	}
	defer b.End()
	var out []string
	for _, p := range b.set.Parts() {
		out = append(out, p.WorkerIDs()...)
	}
	return out
}

// Objective returns the global streaming objective, the sum of every
// part's total motivation over active sets; exact at quiescence.
func (b *Body[V]) Objective() float64 {
	if b.Begin() != nil {
		return 0
	}
	defer b.End()
	var total float64
	for _, p := range b.set.Parts() {
		total += p.Objective()
	}
	return total
}

// Stats merges the parts' accounting into one, renumbering their shards
// into one sequence in set order, and adds the body's own counters. Exact
// at quiescence; under concurrent traffic each part's numbers are a
// consistent cut of that part, but the sum may be mid-flight.
func (b *Body[V]) Stats() Stats {
	var st Stats
	if b.Begin() != nil {
		return st
	}
	defer b.End()
	for _, p := range b.set.Parts() {
		ps := p.Stats()
		for _, s := range ps.PerShard {
			s.Shard += st.Shards
			st.PerShard = append(st.PerShard, s)
		}
		st.Shards += ps.Shards
		st.Workers += ps.Workers
		st.Active += ps.Active
		st.Buffered += ps.Buffered
		st.Dropped += ps.Dropped
		st.Expired += ps.Expired
	}
	var dropped int64
	st.Submitted, st.Completed, dropped = b.Counts()
	st.Dropped += dropped
	st.Expired += b.carried.expired.Load()
	return st
}
