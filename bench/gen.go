package bench

import (
	"fmt"
	"math/rand"
	"strconv"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/workload"
)

// universe is hta-server's default keyword universe.
const universe = 100

// taskGroups is the number of AMT-like task groups the serving task stream
// draws from; tasks of one group share its keyword set.
const taskGroups = 256

// departFrac is the share of each cycle's churners that workload.Churn
// sends away mid-cycle; the rest leave on the cycle's last step.
const departFrac = 0.6

// inputs generates one seeded input stream: workers, churners and tasks.
// The product sees only what it yields, never the seed.
type inputs struct {
	gen    *workload.Generator
	rng    *rand.Rand
	groups []*workload.Group
	prefix string
	seq    int
}

// newInputs seeds a stream. prefix keeps task and worker IDs of different
// streams (setup, each client) apart.
func newInputs(seed int64, prefix string) (*inputs, error) {
	// POST /api/workers rejects fewer than 6 keywords.
	gen, err := workload.NewGenerator(workload.Config{Universe: universe, KeywordsPerWorker: 6, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &inputs{
		gen:    gen,
		rng:    rand.New(rand.NewSource(seed ^ 0x5eed5eed)),
		groups: gen.Groups(taskGroups),
		prefix: prefix,
	}, nil
}

// clientSeed derives client c's input seed from the run seed.
func clientSeed(seed int64, c int) int64 { return seed*1_000_003 + int64(c+1)*7919 }

// tasks returns the next n tasks of the stream.
func (in *inputs) tasks(n int) []*core.Task {
	out := make([]*core.Task, n)
	for i := range out {
		g := in.groups[in.rng.Intn(len(in.groups))]
		in.seq++
		out[i] = &core.Task{ID: in.prefix + "t" + strconv.Itoa(in.seq), Group: g.ID, Reward: g.Reward, Keywords: g.Keywords}
	}
	return out
}

// workers returns n fresh workers named idPrefix0, idPrefix1, ….
func (in *inputs) workers(n int, idPrefix string) []*core.Worker {
	ws := in.gen.Workers(n)
	for i, w := range ws {
		w.ID = idPrefix + strconv.Itoa(i)
	}
	return ws
}

// churnEvent is one arrival or departure at a step of a cycle.
type churnEvent struct {
	at     int
	arrive bool
	w      *core.Worker
}

// churnCycle draws cycle k's churners and their events: workload.Churn
// places arrivals in the first half of the cycle and departs a departFrac
// share later; every churner still present departs on the last step, so
// the cycle leaves the crowd as it found it.
func (in *inputs) churnCycle(k, n, steps int) ([]churnEvent, error) {
	if n == 0 {
		return nil, nil
	}
	ws := in.workers(n, fmt.Sprintf("%sc%d-", in.prefix, k))
	byID := make(map[string]*core.Worker, n)
	for _, w := range ws {
		byID[w.ID] = w
	}
	evs, err := in.gen.Churn(ws, steps, departFrac)
	if err != nil {
		return nil, err
	}
	out := make([]churnEvent, 0, 2*n)
	left := make(map[string]bool, n)
	for _, e := range evs {
		out = append(out, churnEvent{at: e.At, arrive: e.Arrive, w: byID[e.Worker]})
		if !e.Arrive {
			left[e.Worker] = true
		}
	}
	for _, w := range ws {
		if !left[w.ID] {
			out = append(out, churnEvent{at: steps - 1, w: w})
		}
	}
	return out, nil
}

// packed is a bitset.Pack with the sets it was built from, the operands
// metric.Row takes.
type packed struct {
	pack bitset.Pack
	sets []*bitset.Set
}

func (p *packed) add(t *core.Task) {
	p.pack.Append(t.Keywords)
	p.sets = append(p.sets, t.Keywords)
}

func (p *packed) at(i int) *bitset.Set { return p.sets[i] }
