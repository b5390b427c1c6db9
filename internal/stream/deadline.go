package stream

// Deadline and availability-window semantics — the streaming half of the
// predictive scheduling subsystem (internal/schedule holds the forecaster
// and window learner; this file holds what the Assigner itself must know).
//
// Three rules, all gated on Config.DeadlineAware so the default assigner
// stays bit-identical to the deadline-free one:
//
//   - expiry: a buffered task whose deadline has passed is worthless;
//     ExpireDue removes it, counts it (Metrics.Expired), and returns it so
//     the caller can journal it — expired work is conserved, never
//     silently dropped. Active tasks never expire: once handed to a
//     worker the platform honours the assignment.
//   - ordering: a freed slot pulls the urgent task (deadline within
//     UrgencyHorizon of Now) with the earliest deadline, gain breaking
//     ties, before falling back to the pure best-gain scan. Undeadlined
//     tasks always compete in the fallback, and urgency is transient by
//     construction (an urgent task ships or expires by its deadline), so
//     deadline pressure delays undeadlined work but cannot starve it —
//     the property test pins this.
//   - windows: SetWindow records when a worker is expected to depart;
//     routing prefers not to pin a deadlined task to a worker whose
//     window closes before the deadline (bestFree's avoid pass), and the
//     ordered pull prefers assignments the worker can hold through the
//     deadline, with the same never-unplaceable fallback.

import (
	"fmt"

	"github.com/htacs/ata/internal/core"
)

// SetWindow records the instant the worker is expected to depart — a
// declared availability window or a learned estimate
// (schedule.WindowTracker). until = 0 clears it (unknown, no constraint).
// The value is advisory: it biases routing under Config.DeadlineAware and
// is otherwise inert, exactly like trust without WithTrust.
func (a *Assigner) SetWindow(workerID string, until int64) error {
	ws, ok := a.workers[workerID]
	if !ok {
		return fmt.Errorf("stream: unknown worker %q", workerID)
	}
	if until < 0 {
		return fmt.Errorf("stream: negative window end %d", until)
	}
	a.epoch++
	ws.window = until
	return nil
}

// Window returns the worker's recorded availability-window end (0 =
// unknown).
func (a *Assigner) Window(workerID string) (int64, error) {
	ws, ok := a.workers[workerID]
	if !ok {
		return 0, fmt.Errorf("stream: unknown worker %q", workerID)
	}
	return ws.window, nil
}

// DeadlinedBuffered returns how many buffered tasks carry a deadline.
func (a *Assigner) DeadlinedBuffered() int { return a.deadlined }

// ExpireDue removes every buffered task whose deadline is at or before
// now and returns them in the order a front-to-back sweep of the buffer
// meets them. That is not arrival order: each removal swap-moves the
// newest buffered task into the freed position, so a later expiry can
// come out ahead of older ones. (The order is kept as it is because the
// buffer positions it leaves feed the pull scans' lowest-index
// tie-break.) The caller owns the
// expired tasks — the sharded engine journals and counts them so the
// conservation law (submitted = delivered + dropped + expired + backlog)
// still balances. Works regardless of DeadlineAware — calling it is
// opt-in by itself.
func (a *Assigner) ExpireDue(now int64) []*core.Task {
	if a.deadlined == 0 {
		return nil
	}
	var out []*core.Task
	for i := 0; i < len(a.buffer); {
		t := a.buffer[i]
		if t.Deadline > 0 && t.Deadline <= now {
			out = append(out, t)
			// Swap-remove pulls the last entry into slot i; re-examine it
			// before advancing.
			a.bufferSwapRemove(i)
			continue
		}
		i++
	}
	if len(out) > 0 {
		a.metrics.Expired.Add(float64(len(out)))
		a.syncQueueGauge()
	}
	return out
}

// pullBestDeadline is pullBest's ordered scan, entered only when
// DeadlineAware is set and the buffer holds at least one deadlined task.
// One pass tracks three candidates:
//
//  1. the earliest-deadline urgent task the worker can hold through its
//     deadline (window unknown or closing after it), gain breaking ties;
//  2. the earliest-deadline urgent task ignoring the window — used when
//     no window-feasible urgent task exists, because a risky assignment
//     beats certain expiry;
//  3. the best-gain task over everything not yet expired — the plain
//     pullBest rule, serving undeadlined and non-urgent work.
//
// Already-expired tasks are never assigned; they wait for ExpireDue.
func (a *Assigner) pullBestDeadline(ws *workerState) *core.Task {
	now := a.cfg.Now()
	urgentBefore := now + a.cfg.UrgencyHorizon
	var (
		featI, anyI, gainI    = -1, -1, -1
		featD, anyD           int64
		featG, anyG, gainBest = 0.0, 0.0, -1.0
	)
	for i, t := range a.buffer {
		d := t.Deadline
		if d > 0 && d <= now {
			continue // expired: ExpireDue's business, not assignable
		}
		g := a.cachedGain(ws, a.cls[i])
		if d > 0 && d <= urgentBefore {
			if anyI == -1 || d < anyD || (d == anyD && g > anyG) {
				anyI, anyD, anyG = i, d, g
			}
			if ws.window == 0 || ws.window >= d {
				if featI == -1 || d < featD || (d == featD && g > featG) {
					featI, featD, featG = i, d, g
				}
			}
		}
		if g > gainBest {
			gainI, gainBest = i, g
		}
	}
	bestI := featI
	if bestI == -1 {
		bestI = anyI
	}
	if bestI == -1 {
		bestI = gainI
	}
	if bestI == -1 {
		return nil // everything buffered is already past its deadline
	}
	t := a.buffer[bestI]
	relT := ws.rel[a.cls[bestI]]
	a.bufferSwapRemove(bestI)
	a.syncQueueGauge()
	a.assign(ws, t, relT)
	return t
}

// cachedGain folds the worker's cached columns for class c — the same
// slot-order sum pullBest's unrolled scan computes, one class at a time.
func (a *Assigner) cachedGain(ws *workerState, c int) float64 {
	var ds float64
	for _, r := range ws.rows {
		ds += r[c]
	}
	w := ws.worker
	return 2*w.Alpha*ds + w.Beta*(ws.sumRel+float64(len(ws.active))*ws.rel[c])
}
