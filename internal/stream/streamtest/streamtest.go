// Package streamtest keeps the reference of the parity tests of
// stream.Assigner: a streaming assigner without a gain cache. It prices
// every buffered task from scratch and pulls with the per-task scan the
// class-collapsed cache replaced — the best marginal gain, the lowest
// buffer index among equal gains — over a buffer kept with the same
// swap-remove and front-drop moves. The production assigner folds cached
// rows per keyword class; both must pull the same tasks in the same
// order, so their buffers and active sets agree after every event.
//
// The reference covers the default and the deadline-aware paths; trust
// scoring is not modelled.
package streamtest

import (
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
)

// Config mirrors the stream.Config fields the reference reads. Dist,
// UrgencyHorizon and Now have no defaults here.
type Config struct {
	Xmax           int
	BufferLimit    int
	Dist           metric.Distance
	DeadlineAware  bool
	UrgencyHorizon int64
	Now            func() int64
}

type worker struct {
	w      *core.Worker
	active []*core.Task
	sumRel float64
	window int64
}

// Assigner is the reference streaming assigner.
type Assigner struct {
	cfg     Config
	workers []*worker // arrival order
	buffer  []*core.Task
}

// New returns an empty reference assigner.
func New(cfg Config) *Assigner { return &Assigner{cfg: cfg} }

// Buffered returns the buffer in order.
func (a *Assigner) Buffered() []*core.Task { return append([]*core.Task(nil), a.buffer...) }

// Active returns the worker's active tasks in slot order, nil for an
// unknown worker.
func (a *Assigner) Active(id string) []*core.Task {
	if q := a.find(id); q >= 0 {
		return append([]*core.Task(nil), a.workers[q].active...)
	}
	return nil
}

func (a *Assigner) find(id string) int {
	for q, wk := range a.workers {
		if wk.w.ID == id {
			return q
		}
	}
	return -1
}

// gain is Δ(q, k) summed from scratch in active-slot order.
func (a *Assigner) gain(wk *worker, t *core.Task) (g, rel float64) {
	var ds float64
	for _, u := range wk.active {
		ds += a.cfg.Dist.Distance(t.Keywords, u.Keywords)
	}
	rel = metric.Relevance(a.cfg.Dist, t.Keywords, wk.w.Keywords)
	return 2*wk.w.Alpha*ds + wk.w.Beta*(wk.sumRel+float64(len(wk.active))*rel), rel
}

// AddWorker registers w and drains the buffer into its free slots.
func (a *Assigner) AddWorker(w *core.Worker) []*core.Task {
	wk := &worker{w: w}
	a.workers = append(a.workers, wk)
	var out []*core.Task
	for len(wk.active) < a.cfg.Xmax {
		t := a.pull(wk)
		if t == nil {
			break
		}
		out = append(out, t)
	}
	return out
}

// RemoveWorker deregisters the worker and requeues its active tasks in
// slot order; those beyond the buffer limit are dropped and returned.
func (a *Assigner) RemoveWorker(id string) (dropped []*core.Task) {
	q := a.find(id)
	wk := a.workers[q]
	a.workers = append(a.workers[:q], a.workers[q+1:]...)
	for _, t := range wk.active {
		if len(a.buffer) < a.cfg.BufferLimit {
			a.buffer = append(a.buffer, t)
		} else {
			dropped = append(dropped, t)
		}
	}
	return dropped
}

// SetWindow records the worker's availability-window end.
func (a *Assigner) SetWindow(id string, until int64) { a.workers[a.find(id)].window = until }

// Offer routes t to the best free worker, or buffers it. It returns the
// worker's ID, "" when buffered, and full = true when neither a slot nor
// buffer space was free.
func (a *Assigner) Offer(t *core.Task) (id string, full bool) {
	q := -1
	if a.cfg.DeadlineAware && t.Deadline > 0 {
		q = a.bestFree(t, t.Deadline)
	}
	if q < 0 {
		q = a.bestFree(t, 0)
	}
	if q < 0 {
		if len(a.buffer) >= a.cfg.BufferLimit {
			return "", true
		}
		a.buffer = append(a.buffer, t)
		return "", false
	}
	wk := a.workers[q]
	_, rel := a.gain(wk, t)
	a.assign(wk, t, rel)
	return wk.w.ID, false
}

// bestFree is the arrival routing rule: best gain among free workers,
// relevance breaking near-ties; avoidBefore > 0 skips workers whose
// window closes before it.
func (a *Assigner) bestFree(t *core.Task, avoidBefore int64) int {
	best, bestGain, bestRel := -1, -1.0, -1.0
	for q, wk := range a.workers {
		if len(wk.active) >= a.cfg.Xmax {
			continue
		}
		if avoidBefore > 0 && wk.window > 0 && wk.window < avoidBefore {
			continue
		}
		g, r := a.gain(wk, t)
		if g > bestGain+1e-12 || (g > bestGain-1e-12 && r > bestRel) {
			best, bestGain, bestRel = q, g, r
		}
	}
	return best
}

// Complete finishes the worker's task and returns the buffered task the
// freed slot pulls, if any.
func (a *Assigner) Complete(id, taskID string) *core.Task {
	wk := a.workers[a.find(id)]
	for s, t := range wk.active {
		if t.ID == taskID {
			wk.sumRel -= metric.Relevance(a.cfg.Dist, t.Keywords, wk.w.Keywords)
			wk.active = append(wk.active[:s], wk.active[s+1:]...)
			return a.pull(wk)
		}
	}
	return nil
}

// TakeBuffered removes and returns up to n buffered tasks, oldest first.
func (a *Assigner) TakeBuffered(n int) []*core.Task {
	n = min(n, len(a.buffer))
	out := append([]*core.Task(nil), a.buffer[:n]...)
	a.buffer = append(a.buffer[:0], a.buffer[n:]...)
	return out
}

// ExpireDue removes the buffered tasks whose deadline is at or before
// now, sweeping the buffer front to back with swap-removes.
func (a *Assigner) ExpireDue(now int64) []*core.Task {
	var out []*core.Task
	for i := 0; i < len(a.buffer); {
		if t := a.buffer[i]; t.Deadline > 0 && t.Deadline <= now {
			out = append(out, t)
			a.swapRemove(i)
			continue
		}
		i++
	}
	return out
}

func (a *Assigner) swapRemove(i int) {
	last := len(a.buffer) - 1
	a.buffer[i] = a.buffer[last]
	a.buffer = a.buffer[:last]
}

func (a *Assigner) assign(wk *worker, t *core.Task, rel float64) {
	wk.active = append(wk.active, t)
	wk.sumRel += rel
}

// pull is the per-task scan: the buffered task with the best gain, the
// lowest index among equal gains. Under DeadlineAware with a deadlined
// task buffered, urgent tasks go first (see pullDeadline).
func (a *Assigner) pull(wk *worker) *core.Task {
	if len(a.buffer) == 0 || len(wk.active) >= a.cfg.Xmax {
		return nil
	}
	bestI := -1
	if a.cfg.DeadlineAware && a.hasDeadlines() {
		bestI = a.pullDeadline(wk)
	} else {
		bestGain := -1.0
		for i, t := range a.buffer {
			if g, _ := a.gain(wk, t); g > bestGain {
				bestI, bestGain = i, g
			}
		}
	}
	if bestI < 0 {
		return nil
	}
	t := a.buffer[bestI]
	_, rel := a.gain(wk, t)
	a.swapRemove(bestI)
	a.assign(wk, t, rel)
	return t
}

func (a *Assigner) hasDeadlines() bool {
	for _, t := range a.buffer {
		if t.Deadline > 0 {
			return true
		}
	}
	return false
}

// pullDeadline picks the earliest-deadline urgent task the worker can
// hold through its deadline, else the earliest-deadline urgent task,
// else the best-gain task; gains break deadline ties, expired tasks are
// skipped. It returns -1 when every buffered task has expired.
func (a *Assigner) pullDeadline(wk *worker) int {
	now := a.cfg.Now()
	urgentBefore := now + a.cfg.UrgencyHorizon
	featI, anyI, gainI := -1, -1, -1
	var featD, anyD int64
	featG, anyG, gainBest := 0.0, 0.0, -1.0
	for i, t := range a.buffer {
		d := t.Deadline
		if d > 0 && d <= now {
			continue
		}
		g, _ := a.gain(wk, t)
		if d > 0 && d <= urgentBefore {
			if anyI == -1 || d < anyD || (d == anyD && g > anyG) {
				anyI, anyD, anyG = i, d, g
			}
			if wk.window == 0 || wk.window >= d {
				if featI == -1 || d < featD || (d == featD && g > featG) {
					featI, featD, featG = i, d, g
				}
			}
		}
		if g > gainBest {
			gainI, gainBest = i, g
		}
	}
	switch {
	case featI >= 0:
		return featI
	case anyI >= 0:
		return anyI
	}
	return gainI
}
