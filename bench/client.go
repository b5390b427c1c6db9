package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
)

// member is one simulated worker and the display set it last received.
type member struct {
	w   *core.Worker
	set []*core.Task
}

// client is one closed-loop client goroutine: it multiplexes its workers,
// each of which completes a task of its current display set and waits for
// the next one, and acts as the requester posting new tasks.
type client struct {
	id       int
	sh       *Shape
	t        target
	in       *inputs
	rng      *rand.Rand // picks the task of a display set a worker completes
	churners int        // churners per cycle owned by this client

	present []*member // steady workers and present churners, in arrival order
	cursor  int       // round-robin position of the next completion
	rcursor int       // round-robin position of the next read
	step    int       // steps run, warm-up included
	cycle   int

	// every100 runs once per 100 events (offers, completions, arrivals,
	// departures), warm-up included: the engine's steal round and the
	// backlog sample.
	every100 func()
	hookN    int

	motivation bool      // recompute the motivation of every completion's display set
	memCycles  bool      // count allocations inside the timed steps only (single-client replay)
	rec        *recorder // non-nil in a traced pass
	stamp      *atomic.Uint64
	bar        *barrier // probes at the timed phase's window boundaries

	// Measured in the timed phase only.
	timed     bool
	lat       [numOps][]int64
	opTime    int64
	events    int64
	attempted int64
	failed    int64
	motivSum  float64
	motivN    int64
	mem       memStats
	windows   []window

	digest   uint64
	firstErr error // first failed call of any phase
}

func newClient(id int, sh *Shape, t target, seed int64, members []*member, churners int) (*client, error) {
	in, err := newInputs(clientSeed(seed, id), string(rune('a'+id)))
	if err != nil {
		return nil, err
	}
	return &client{
		id: id, sh: sh, t: t, in: in, churners: churners,
		rng:     rand.New(rand.NewSource(clientSeed(seed, id) + 1)),
		present: members,
		digest:  fnvOffset,
	}, nil
}

// runUntil runs whole churn cycles until deadline has passed and at least
// minSteps steps have run.
func (c *client) runUntil(deadline time.Time, minSteps int) error {
	for {
		if err := c.runCycle(); err != nil {
			return err
		}
		if c.step >= minSteps && !time.Now().Before(deadline) {
			return nil
		}
	}
}

// runCycle runs one churn cycle. The cycle's inputs are generated before
// its first step, so the steps themselves allocate only inside the calls
// they time.
func (c *client) runCycle() error {
	churn, err := c.in.churnCycle(c.cycle, c.churners, c.sh.Cycle)
	if err != nil {
		return err
	}
	tasks := c.in.tasks(c.sh.Cycle / c.sh.OfferEvery * c.sh.OfferBatch)
	c.cycle++
	var m0 memStats
	if c.memCycles && c.timed {
		m0 = readMem()
	}
	next := 0
	var w window
	for s := 0; s < c.sh.Cycle; s++ {
		if c.timed && s%windowSteps == 0 {
			w = c.openWindow()
		}
		for ; next < len(churn) && churn[next].at == s; next++ {
			c.churn(churn[next])
		}
		c.completeOne()
		for r := 0; r < c.sh.Reads; r++ {
			c.readOne()
		}
		if (s+1)%c.sh.OfferEvery == 0 {
			c.offer(tasks[:c.sh.OfferBatch])
			tasks = tasks[c.sh.OfferBatch:]
		}
		c.step++
		if c.timed && (s+1)%windowSteps == 0 {
			w.dur = int64(time.Since(w.start))
			w.stolen = stealTicks() - w.stolen
			w.events = c.events - w.events
			c.windows = append(c.windows, w)
		}
	}
	if c.memCycles && c.timed {
		c.mem = c.mem.add(readMem().sub(m0))
	}
	return nil
}

// window is windowSteps timed steps of one client: the probe timed just
// before them, while every client was paused, their wall time, events and
// the steal ticks reported meanwhile, and where their call samples start
// in the client's lat. While a window is open, events and stolen hold the
// counts at its start.
type window struct {
	start               time.Time
	probe               int64
	dur, events, stolen int64
	from                [numOps]int
}

func (c *client) openWindow() window {
	w := window{probe: c.bar.pause(), events: c.events, stolen: stealTicks()}
	for o := range c.lat {
		w.from[o] = len(c.lat[o])
	}
	w.start = time.Now()
	return w
}

// medianProbe is the median probe time, in ns, of the clients' timed
// windows.
func medianProbe(clients []*client) float64 {
	var ps []float64
	for _, c := range clients {
		for _, w := range c.windows {
			ps = append(ps, float64(w.probe))
		}
	}
	return median(ps)
}

// atRefSpeed pools the clients' clean timed windows (see cleanWindows) at
// reference speed: each window's call samples and wall time scaled by its
// probe (see atRef).
func atRefSpeed(clients []*client) (lat [numOps][]int64, events, dur int64) {
	keep := cleanWindows(clients)
	for _, c := range clients {
		for i, w := range c.windows {
			if !keep[&c.windows[i]] {
				continue
			}
			events += w.events
			dur += atRef(w.dur, w.probe)
			for o := range lat {
				to := len(c.lat[o])
				if i+1 < len(c.windows) {
					to = c.windows[i+1].from[o]
				}
				for _, d := range c.lat[o][w.from[o]:to] {
					lat[o] = append(lat[o], atRef(d, w.probe))
				}
			}
		}
	}
	return lat, events, dur
}

// begin stamps a traced call and starts its clock.
func (c *client) begin() (time.Time, uint64) {
	var id uint64
	if c.rec != nil && c.rec.on.Load() {
		id = c.rec.newID()
		c.stamp.Store(id)
	}
	return time.Now(), id
}

// end records a call's latency and outcome.
func (c *client) end(o op, t0 time.Time, id uint64, err error) {
	d := time.Since(t0)
	if c.timed {
		c.attempted++
		c.lat[o] = append(c.lat[o], int64(d))
		c.opTime += int64(d)
		if err != nil {
			c.failed++
		}
	}
	if id != 0 {
		start := c.rec.at(t0)
		c.rec.add(span{id: id, layer: layerClient, op: o.String(), start: start, end: start + int64(d), lane: int32(c.id)})
		c.stamp.Store(0)
	}
	if err != nil && c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d %s: %w", c.id, o, err)
	}
}

func (c *client) event(n int) {
	if c.timed {
		c.events += int64(n)
	}
	for c.hookN += n; c.hookN >= 100; c.hookN -= 100 {
		if c.every100 != nil {
			c.every100()
		}
	}
}

func (c *client) completeOne() {
	n := len(c.present)
	for i := 0; i < n; i++ {
		m := c.present[(c.cursor+i)%n]
		if len(m.set) == 0 {
			continue
		}
		c.cursor = (c.cursor + i + 1) % n
		task := m.set[c.rng.Intn(len(m.set))]
		t0, id := c.begin()
		set, alpha, beta, err := c.t.complete(m.w.ID, task.ID)
		c.end(opComplete, t0, id, err)
		if err != nil {
			c.resync(m)
			return
		}
		c.event(1)
		c.observe(m, set)
		if c.motivation && c.timed {
			c.motivSum += motivation(set, alpha, beta, m.w.Keywords)
			c.motivN++
		}
		return
	}
}

func (c *client) readOne() {
	if len(c.present) == 0 {
		return
	}
	m := c.present[c.rcursor%len(c.present)]
	c.rcursor++
	t0, id := c.begin()
	set, err := c.t.read(m.w.ID)
	c.end(opRead, t0, id, err)
	if err == nil {
		c.observe(m, set)
	}
}

func (c *client) offer(tasks []*core.Task) {
	t0, id := c.begin()
	err := c.t.offer(tasks)
	c.end(opOffer, t0, id, err)
	if err == nil {
		c.event(len(tasks))
	}
}

func (c *client) churn(e churnEvent) {
	if e.arrive {
		t0, id := c.begin()
		set, err := c.t.register(e.w)
		c.end(opRegister, t0, id, err)
		if err != nil {
			return
		}
		m := &member{w: e.w}
		c.present = append(c.present, m)
		c.event(1)
		c.observe(m, set)
		return
	}
	i := 0
	for i < len(c.present) && c.present[i].w.ID != e.w.ID {
		i++
	}
	if i == len(c.present) {
		return // its registration failed
	}
	t0, id := c.begin()
	err := c.t.leave(e.w.ID)
	c.end(opLeave, t0, id, err)
	if err != nil {
		return
	}
	c.present = append(c.present[:i], c.present[i+1:]...)
	if i < c.cursor {
		c.cursor--
	}
	if c.cursor >= len(c.present) {
		c.cursor = 0
	}
	c.event(1)
}

// resync re-reads a worker's display set after a failed completion, so a
// stale view cannot fail again; the read is not a measured call.
func (c *client) resync(m *member) {
	set, err := c.t.read(m.w.ID)
	if err != nil {
		m.set = m.set[:0]
		return
	}
	m.set = append(m.set[:0], set...)
}

// observe stores a display set the worker received and, within the
// digest window, folds it into the decision digest.
func (c *client) observe(m *member, set []*core.Task) {
	m.set = append(m.set[:0], set...)
	if c.step >= c.sh.DigestSteps {
		return
	}
	h := fnvString(c.digest, m.w.ID)
	for _, t := range set {
		h = fnvString(h, t.ID)
	}
	c.digest = h
}

// motivation is Equation 3 for one display set: 2α·TD(T) + β·(|T|−1)·TR(T,
// w), with Jaccard diversity and relevance 1 − d(task, worker).
func motivation(set []*core.Task, alpha, beta float64, w *bitset.Set) float64 {
	if len(set) == 0 {
		return 0
	}
	d := metric.Jaccard{}
	var td, tr float64
	for i, t := range set {
		tr += metric.Relevance(d, t.Keywords, w)
		for _, u := range set[:i] {
			td += d.Distance(t.Keywords, u.Keywords)
		}
	}
	return 2*alpha*td + beta*float64(len(set)-1)*tr
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds s and a terminator into an FNV-1a hash without
// allocating.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}
