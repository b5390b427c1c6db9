package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/htacs/ata/internal/stream"
)

// rung is one step of the ladder: the workload's script replayed in
// process against one engine layer.
type rung struct {
	name           string
	nsPerEvent     float64 // time inside the engine calls per event
	allocsPerEvent float64 // allocations inside the steps per event
	completeP50    float64 // ns per completion, with the platform's read-back
	completeP99    float64
	offerPerTask   float64 // ns per offered task, median call
	probeNs        float64 // median probe time of the rung's windows
	digest         uint64
}

// ladder replays a Stream workload's script against a bare
// stream.Assigner, shard.Engine{Shards: 1} and shard.Engine{Shards:
// Shape.Shards}, making the backend calls the platform's handlers make.
// The first two take the whole buffer budget in one partition and make
// the same decisions. Each rung gets a third of budget.
func ladder(sh *Shape, seed int64, budget time.Duration) ([]rung, error) {
	each := budget / 3
	total := sh.BufferLimit * sh.Shards
	a, err := stream.NewAssigner(stream.Config{Xmax: sh.Xmax, BufferLimit: total})
	if err != nil {
		return nil, err
	}
	ra, err := runRung("assigner", sh, seed, each, a, nil)
	if err != nil {
		return nil, err
	}
	rungs := []rung{ra}
	for _, parts := range []int{1, sh.Shards} {
		e, err := newEngine(sh, parts, total/parts)
		if err != nil {
			return nil, err
		}
		r, err := runRung(fmt.Sprintf("engine%d", parts), sh, seed, each, e, e.StealOnce)
		e.Close()
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, r)
	}
	return rungs, nil
}

func runRung(name string, sh *Shape, seed int64, budget time.Duration, e engine, steal func() int) (rung, error) {
	runtime.GC()
	t := &inproc{e: e}
	members, err := populate(sh, seed, t)
	if err != nil {
		return rung{}, err
	}
	c, err := newClient(0, sh, t, seed, members[0], sh.Churners)
	if err != nil {
		return rung{}, err
	}
	if steal != nil {
		c.every100 = func() { steal() }
	}
	c.memCycles = true
	if err := c.runUntil(time.Now(), warmupCycles*sh.Cycle); err != nil {
		return rung{}, err
	}
	c.timed, c.bar = true, newBarrier(1, 0)
	if err := c.runUntil(time.Now().Add(budget), sh.DigestSteps); err != nil {
		return rung{}, err
	}
	if c.firstErr != nil || t.dropped > 0 {
		return rung{}, fmt.Errorf("bench: ladder %s: %v, %d tasks dropped", name, c.firstErr, t.dropped)
	}
	ev := float64(max(c.events, 1))
	return rung{
		name:           name,
		nsPerEvent:     float64(c.opTime) / ev,
		allocsPerEvent: float64(c.mem.mallocs) / ev,
		completeP50:    pct(c.lat[opComplete], 0.5),
		completeP99:    pct(c.lat[opComplete], 0.99),
		offerPerTask:   pct(c.lat[opOffer], 0.5) / float64(sh.OfferBatch),
		probeNs:        medianProbe([]*client{c}),
		digest:         c.digest,
	}, nil
}
