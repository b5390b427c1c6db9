package shard

import (
	"context"
	"sort"
	"strconv"
	"time"

	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// stealLoop is the rebalancer goroutine: every StealInterval it runs one
// bounded steal round. Separate goroutine rather than piggybacking on
// event handlers so that stealing keeps working when a hot shard's
// mailbox is saturated and cold shards are idle.
func (e *Engine) stealLoop() {
	defer close(e.stealDone)
	tick := time.NewTicker(e.cfg.StealInterval)
	defer tick.Stop()
	for {
		select {
		case <-e.stopSteal:
			return
		case <-tick.C:
			e.ForecastTick()
			e.StealOnce()
		}
	}
}

// stealPlan pairs one overloaded donor with one receiver.
type stealPlan struct {
	from, to int
	n        int
}

// StealOnce runs a single rebalance round: shards whose backlog exceeds
// the watermark donate up to StealBatch buffered tasks to shards with
// free capacity (greatest free capacity first). Moved tasks are assigned
// on arrival when possible, buffered otherwise; if the receiver's buffer
// filled mid-flight the tasks bounce back to the donor, and only if the
// donor also filled are they dropped (counted — conservation holds).
// Returns the number of tasks re-homed. Exported for tests and for
// deployments that disable the periodic loop and trigger rebalancing
// themselves.
func (e *Engine) StealOnce() int {
	if err := e.begin(); err != nil {
		return 0
	}
	defer e.live.RUnlock()
	n := len(e.actors)
	if n < 2 {
		return 0
	}
	// Plan from atomic load peeks — no mailbox traffic until a move is
	// actually warranted. Under Config.Predictive the donor trigger is the
	// *projected* backlog (forecast rates × horizon), so a shard riding a
	// burst donates before its queue actually crosses the watermark; the
	// reactive engine's load is just the current backlog, bit-identical to
	// the pre-forecast behaviour.
	backlog := make([]int, n)
	free := make([]int, n)
	load := make([]int, n)
	for i, a := range e.actors {
		backlog[i] = a.asn.Backlog()
		free[i] = a.asn.FreeCapacity()
		load[i] = backlog[i]
	}
	proactive := 0
	if e.forecast != nil {
		for i := range load {
			load[i] = int(e.forecast[i].PredictedBacklog(backlog[i], e.cfg.ForecastHorizon))
			if load[i] > e.cfg.StealWatermark && backlog[i] <= e.cfg.StealWatermark {
				proactive++
			}
		}
	}
	donors := make([]int, 0, n)
	receivers := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if load[i] > e.cfg.StealWatermark && backlog[i] > 0 {
			donors = append(donors, i)
		} else if free[i] > 0 {
			receivers = append(receivers, i)
		}
	}
	if proactive > 0 {
		// A breach the reactive trigger would not have seen yet.
		e.metrics.ForecastBreaches.Add(float64(proactive))
		e.journal.Emit(ops.EventForecast, "",
			"shards", strconv.Itoa(proactive),
			"watermark", strconv.Itoa(e.cfg.StealWatermark))
	}
	if len(donors) == 0 {
		return 0
	}
	maxBacklog := 0
	for _, d := range donors {
		if backlog[d] > maxBacklog {
			maxBacklog = backlog[d]
		}
	}
	e.journal.Emit(ops.EventWatermark, "",
		"shards", strconv.Itoa(len(donors)),
		"max_backlog", strconv.Itoa(maxBacklog),
		"watermark", strconv.Itoa(e.cfg.StealWatermark))
	if len(receivers) == 0 {
		return 0
	}
	sort.Slice(donors, func(i, j int) bool { return load[donors[i]] > load[donors[j]] })
	sort.Slice(receivers, func(i, j int) bool { return free[receivers[i]] > free[receivers[j]] })

	var plans []stealPlan
	ri := 0
	for _, d := range donors {
		if ri >= len(receivers) {
			break
		}
		// A shard cannot donate work it only *expects*: the excess is the
		// projected overflow capped by what is actually buffered now.
		excess := load[d] - e.cfg.StealWatermark
		if excess > backlog[d] {
			excess = backlog[d]
		}
		for excess > 0 && ri < len(receivers) {
			r := receivers[ri]
			k := min3(excess, free[r], e.cfg.StealBatch)
			if k <= 0 {
				ri++
				continue
			}
			plans = append(plans, stealPlan{from: d, to: r, n: k})
			excess -= k
			free[r] -= k
			if free[r] <= 0 {
				ri++
			}
		}
	}
	moved := 0
	for _, p := range plans {
		moved += e.executeSteal(p)
	}
	if moved > 0 {
		e.metrics.Steals.Inc()
		e.metrics.StolenTasks.Add(float64(moved))
		e.metrics.StealBatch.Observe(float64(moved))
		e.journal.Emit(ops.EventSteal, "",
			"moved", strconv.Itoa(moved),
			"pairs", strconv.Itoa(len(plans)))
	}
	return moved
}

// executeSteal moves up to p.n buffered tasks from p.from to p.to. Runs
// on the rebalancer (or caller) goroutine; the two actors are addressed
// strictly in sequence, never while the other is held, so no cycle can
// form.
func (e *Engine) executeSteal(p stealPlan) int {
	src, dst := e.actors[p.from], e.actors[p.to]
	// The in-flight batch rides in an engine-owned scratch slice
	// (TakeBufferedInto): steal rounds are frequent under sustained skew
	// and should not allocate a transfer slice each time. stealMu guards
	// the scratch against overlapping StealOnce calls from tests or
	// deployments that trigger rebalancing themselves.
	e.stealMu.Lock()
	defer e.stealMu.Unlock()
	tasks := e.stealScratch[:0]
	src.call(func(asn *stream.Assigner) { tasks = asn.TakeBufferedInto(p.n, tasks) })
	e.stealScratch = tasks[:0]
	if len(tasks) == 0 {
		return 0
	}
	var placed, bounced, dropped int
	dst.call(func(asn *stream.Assigner) {
		for i, t := range tasks {
			if _, ok := asn.TryAssign(t); ok {
				placed++
				continue
			}
			if err := asn.BufferTask(t); err == nil {
				placed++
				continue
			}
			// Receiver saturated mid-flight: everything from here on
			// bounces back to the donor.
			tasks = tasks[i:]
			bounced = len(tasks)
			return
		}
		tasks = nil
	})
	if bounced > 0 {
		src.call(func(asn *stream.Assigner) {
			for _, t := range tasks {
				if err := asn.BufferTask(t); err != nil {
					dropped++
					e.adm.Release(t.ID)
				}
			}
		})
	}
	if dropped > 0 {
		// Donor re-filled past its limit while the batch was in flight —
		// the tasks have nowhere conservative to go; count them lost.
		src.dropped.Add(int64(dropped))
		e.metrics.Dropped.Add(float64(dropped))
	}
	if placed > 0 {
		src.metrics.Stolen.Add(float64(placed))
		dst.metrics.Received.Add(float64(placed))
	}
	if placed > 0 || dropped > 0 {
		_, span := e.tracer.Start(context.Background(), "shard.steal")
		span.SetAttrs(trace.Int("from", p.from), trace.Int("to", p.to),
			trace.Int("moved", placed), trace.Int("bounced", bounced-dropped),
			trace.Int("dropped", dropped))
		span.End()
	}
	return placed
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
