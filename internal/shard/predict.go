package shard

// Predictive scheduling hooks: the deadline-expiry sweep and the demand
// forecast tick. Both are periodic loops owned by the engine (gated on
// Config.ExpireInterval / Config.Predictive) with exported one-shot forms
// so tests and deterministic replays can drive them explicitly.

import (
	"strconv"
	"strings"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/stream"
)

// expireLoop periodically sweeps all shard buffers for tasks past their
// deadline.
func (e *Engine) expireLoop() {
	defer close(e.expireDone)
	tick := time.NewTicker(e.cfg.ExpireInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.stopExpire:
			return
		case <-tick.C:
			e.ExpireOnce(e.now())
		}
	}
}

// ExpireOnce removes every buffered task whose deadline is at or before
// now, across all shards, and returns how many expired. Each batch is
// journaled (ops.EventExpire, with the task IDs for small batches) and
// counted per shard and engine-wide, so the conservation law
// Submitted = Active + Completed + Buffered + Dropped + Expired keeps
// balancing — an expired task is never a silent drop. Its ID leaves the
// duplicate filter, so it may be offered again.
func (e *Engine) ExpireOnce(now int64) int {
	if e.Begin() != nil {
		return 0
	}
	defer e.End()
	total := 0
	for _, p := range e.parts {
		var exp []*core.Task
		p.call(func(asn *stream.Assigner) { exp = asn.ExpireDue(now) })
		if len(exp) == 0 {
			continue
		}
		for _, t := range exp {
			e.adm.Release(t.ID)
		}
		p.expired.Add(int64(len(exp)))
		e.metrics.Expired.Add(float64(len(exp)))
		total += len(exp)
		attrs := []string{
			"shard", strconv.Itoa(p.id),
			"count", strconv.Itoa(len(exp)),
		}
		// Small batches record the task IDs outright; larger ones stay
		// countable without bloating the bounded journal ring.
		if len(exp) <= 8 {
			ids := make([]string, len(exp))
			for i, t := range exp {
				ids[i] = t.ID
			}
			attrs = append(attrs, "tasks", strings.Join(ids, ","))
		}
		e.journal.Emit(ops.EventExpire, "", attrs...)
	}
	return total
}

// ForecastTick folds each shard's arrival/completion counts accumulated
// since the previous tick into its forecaster's rate EWMAs and publishes
// the projected backlog gauges. The steal loop calls it once per round;
// engines that disable the loop (negative StealInterval) or tests drive
// it explicitly. No-op when the engine is not predictive.
func (e *Engine) ForecastTick() {
	if e.forecast == nil {
		return
	}
	for i, f := range e.forecast {
		f.Tick()
		pred := f.PredictedBacklog(e.parts[i].asn.Backlog(), e.cfg.ForecastHorizon)
		e.parts[i].metrics.Predicted.Set(pred)
	}
}

// Predictive reports whether forecast-driven rebalancing is on.
func (e *Engine) Predictive() bool { return e.forecast != nil }
