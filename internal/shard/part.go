package shard

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// part is one shard, the engine's local Part: a bare stream.Assigner
// guarded by its own mutex. Every shard call runs in the caller's
// goroutine under that lock, so each shard serializes only its own
// workers' events and an uncontended call costs a lock and an unlock.
//
// Protocol rules that keep the engine deadlock-free:
//
//   - a goroutine holds at most one shard lock; Snapshot, which reads
//     every shard, holds the engine's barrier for writing and cuts the
//     shards one at a time;
//   - nothing that runs under a shard lock takes another shard lock, so
//     cross-shard operations (scatter, rescore, steal, expiry, restore)
//     visit the shards one at a time.
type part struct {
	id  int
	e   *Engine
	mu  sync.Mutex
	asn *stream.Assigner

	// completed, dropped and expired survive worker removal (the
	// assigner's per-worker done counters die with RemoveWorker), so the
	// engine's conservation accounting stays exact under churn.
	completed atomic.Int64
	dropped   atomic.Int64
	expired   atomic.Int64

	metrics *partMetrics
}

// call runs fn on the shard's assigner under the shard lock and publishes
// the free-capacity gauge before releasing it.
func (p *part) call(fn func(asn *stream.Assigner)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.asn)
	p.metrics.Free.Set(float64(p.asn.FreeCapacity()))
}

// get is one per-worker read or write under the shard lock.
func get[T any](p *part, workerID string, fn func(*stream.Assigner, string) (T, error)) (out T, err error) {
	p.call(func(asn *stream.Assigner) { out, err = fn(asn, workerID) })
	return out, err
}

func (p *part) Score(_ context.Context, t *core.Task) (s Score, err error) {
	p.call(func(asn *stream.Assigner) {
		s.Gain, s.Rel, s.Free = asn.BestGain(t)
		s.Backlog = asn.Backlog()
	})
	return s, nil
}

// Commit is one "shard.commit" attempt; a failure means the shard filled
// between score and commit, counted in CommitRetries.
func (p *part) Commit(ctx context.Context, t *core.Task) (wid string, ok bool) {
	p.call(func(asn *stream.Assigner) { wid, ok = asn.TryAssign(t) })
	trace.Event(ctx, "shard.commit", trace.Int("shard", p.id), trace.Bool("ok", ok))
	if !ok {
		p.e.metrics.CommitRetries.Inc()
	}
	return wid, ok
}

func (p *part) Buffer(_ context.Context, t *core.Task) (err error) {
	p.call(func(asn *stream.Assigner) { err = asn.BufferTask(t) })
	return err
}

// AddWorkerCtx registers the worker and, when the engine learns windows,
// records the arrival and pushes the learned departure estimate into the
// shard, so deadline-aware routing can steer imminent work away.
func (p *part) AddWorkerCtx(ctx context.Context, w *core.Worker) (assigned []*core.Task, err error) {
	e := p.e
	p.call(func(asn *stream.Assigner) {
		assigned, err = asn.AddWorker(w)
		if err == nil && e.windows != nil {
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

func (p *part) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	dropped, err := get(p, id, (*stream.Assigner).RemoveWorker)
	if err != nil {
		return dropped, err
	}
	if p.e.windows != nil {
		p.e.windows.Depart(id, p.e.now())
	}
	if n := len(dropped); n > 0 {
		p.dropped.Add(int64(n))
		p.e.metrics.Dropped.Add(float64(n))
	}
	trace.Event(ctx, "shard.remove_worker",
		trace.Str("worker", id), trace.Int("shard", p.id),
		trace.Int("dropped", len(dropped)))
	return dropped, nil
}

// Finish completes, pulls, and reads back when read is set, in one shard
// call.
func (p *part) Finish(ctx context.Context, workerID, taskID string, read bool) (c Completion, err error) {
	p.call(func(asn *stream.Assigner) {
		c.Next, err = asn.Complete(workerID, taskID)
		if err == nil && read {
			c.Worker, _ = asn.Worker(workerID)
			c.Active, _ = asn.ActiveTasks(workerID)
		}
	})
	if err != nil {
		return c, err
	}
	p.completed.Add(1)
	if p.e.forecast != nil {
		p.e.forecast[p.id].RecordCompletions(1)
	}
	pulled := ""
	if c.Next != nil {
		pulled = c.Next.ID
	}
	trace.Event(ctx, "shard.complete",
		trace.Str("worker", workerID), trace.Str("task", taskID),
		trace.Int("shard", p.id), trace.Str("pulled", pulled))
	return c, nil
}

// The per-worker reads, one shard call each.
func (p *part) ActiveTasks(id string) ([]*core.Task, error) {
	return get(p, id, (*stream.Assigner).ActiveTasks)
}
func (p *part) Worker(id string) (*core.Worker, error) { return get(p, id, (*stream.Assigner).Worker) }
func (p *part) Completed(id string) (int, error)       { return get(p, id, (*stream.Assigner).Completed) }
func (p *part) Trust(id string) (float64, error)       { return get(p, id, (*stream.Assigner).Trust) }
func (p *part) Window(id string) (int64, error)        { return get(p, id, (*stream.Assigner).Window) }

func (p *part) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	return get(p, workerID, func(asn *stream.Assigner, id string) ([]*core.Task, error) {
		return asn.SetTrust(id, trust)
	})
}

// SetWindow records the declared window end on the shard; when the engine
// learns windows, the declaration also overrides the tracker's estimate
// until the worker next departs.
func (p *part) SetWindow(workerID string, until int64) error {
	_, err := get(p, workerID, func(asn *stream.Assigner, id string) (struct{}, error) {
		return struct{}{}, asn.SetWindow(id, until)
	})
	if err == nil && p.e.windows != nil {
		p.e.windows.Declare(workerID, until)
	}
	return err
}

func (p *part) WorkerIDs() (ids []string) {
	p.call(func(asn *stream.Assigner) { ids = asn.WorkerIDs() })
	return ids
}

func (p *part) Objective() (obj float64) {
	p.call(func(asn *stream.Assigner) { obj = asn.Objective() })
	return obj
}

// Stats is the shard's load picture. Predicted is the forecaster's backlog
// projection ForecastHorizon steal rounds ahead (equal to Backlog when the
// engine is not predictive or the forecaster is cold).
func (p *part) Stats() Stats {
	var s ShardStats
	p.call(func(asn *stream.Assigner) {
		s = ShardStats{
			Workers:   asn.NumWorkers(),
			Active:    asn.ActiveCount(),
			Backlog:   asn.BufferLen(),
			FreeSlots: asn.FreeCapacity(),
			Completed: p.completed.Load(),
			Dropped:   p.dropped.Load(),
			Expired:   p.expired.Load(),
		}
	})
	if f := p.e.forecast; f != nil {
		s.Predicted = f[p.id].PredictedBacklog(s.Backlog, p.e.cfg.ForecastHorizon)
	}
	return Stats{Shards: 1, Workers: s.Workers, Active: s.Active, Completed: s.Completed,
		Buffered: s.Backlog, Dropped: s.Dropped, Expired: s.Expired, PerShard: []ShardStats{s}}
}
