package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/obs"
)

// pickBytes hands out the fuzz input one byte at a time, 0 once it is
// spent.
type pickBytes struct {
	data []byte
	i    int
}

func (r *pickBytes) more() bool { return r.i < len(r.data) }

func (r *pickBytes) next() int {
	if r.i >= len(r.data) {
		return 0
	}
	b := r.data[r.i]
	r.i++
	return int(b)
}

// pickStats counts how often a commit met a memo it could reuse, and how
// often a scored task's commit found the memo stale or replaced.
type pickStats struct{ hits, stale int }

// runPickReuse runs one op sequence decoded from data against two
// assigners in lockstep. memo scores tasks with BestGain and commits them
// later with TryAssign, with other ops in between; plain only ever
// commits, so its memo stays empty and every TryAssign rescans. Every
// BestGain must equal a fresh scan (the same worker, gain bits and
// relevance bits), every reusable memo the same worker and relevance
// bits, and every commit the fresh scan's worker. After every op the two
// assigners must hold the same active sets, sumRel bits and buffers.
func runPickReuse(t *testing.T, data []byte) (st pickStats) {
	r := &pickBytes{data: data}
	now := int64(1)
	clock := func() int64 { return now }
	var dist metric.Distance = metric.Jaccard{}
	if r.next()&1 == 1 {
		dist = metric.Hamming{}
	}
	flags := r.next()
	cfg := Config{
		Xmax: 1 + r.next()%4, BufferLimit: 2 + r.next()%12, Dist: dist,
		WithTrust: flags&1 == 1, DeadlineAware: flags&2 == 2,
		UrgencyHorizon: 8, Now: clock,
	}
	mk := func() *Assigner {
		c := cfg
		c.Metrics = NewMetrics(obs.NewRegistry())
		a, err := NewAssigner(c)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	memo, plain := mk(), mk()

	const universe = 16
	rng := rand.New(rand.NewSource(int64(r.next())))
	templates := make([]*bitset.Set, 1+r.next()%4)
	for i := range templates {
		templates[i] = randSet(rng, universe)
	}
	weights := []float64{0, 0.25, 0.5, 1}
	pool := make([]*core.Worker, 5)
	for i := range pool {
		pool[i] = &core.Worker{
			ID:       fmt.Sprintf("w%d", i),
			Keywords: randSet(rng, universe),
			Alpha:    weights[rng.Intn(len(weights))],
			Beta:     weights[rng.Intn(len(weights))],
		}
	}
	taskN := 0
	newTask := func() *core.Task {
		kw := randSet(rng, universe)
		if tpl := r.next(); tpl%8 != 7 {
			kw = templates[tpl%len(templates)].Clone()
		}
		tk := &core.Task{ID: fmt.Sprintf("t%d", taskN), Keywords: kw}
		taskN++
		if dl := r.next(); dl%3 != 0 {
			tk.Deadline = now + int64(dl%20) - 4
		}
		return tk
	}
	both := func(step int, what string, f func(a *Assigner) []*core.Task) {
		t.Helper()
		g, w := f(memo), f(plain)
		if !slices.Equal(pickIDs(g), pickIDs(w)) {
			t.Fatalf("step %d: %s: memo %v, plain %v", step, what, pickIDs(g), pickIDs(w))
		}
	}
	// fresh checks a memo that claims to answer t against a fresh full
	// scan.
	fresh := func(step int, t2 *core.Task) (string, float64, float64) {
		id, gain, rel := fullBestFree(memo, t2)
		if memo.pick.reusable(memo.epoch, t2) {
			if p := memo.pick; p.id != id || math.Float64bits(p.rel) != math.Float64bits(rel) {
				t.Fatalf("step %d: memo (%q, %v) for %s, fresh scan (%q, %v)", step, p.id, p.rel, t2.ID, id, rel)
			}
		}
		return id, gain, rel
	}

	var scored *core.Task
	for step := 0; r.more(); step++ {
		ids := memo.WorkerIDs()
		pickWorker := func() string { return ids[r.next()%len(ids)] }
		switch op := r.next() % 12; op {
		case 0, 1: // score
			tk := newTask()
			id, gain, rel := fresh(step, tk)
			g, rl, ok := memo.BestGain(tk)
			if ok != (id != "") || math.Float64bits(g) != math.Float64bits(gain) || math.Float64bits(rl) != math.Float64bits(rel) {
				t.Fatalf("step %d: BestGain(%s) = (%v, %v, %v), fresh scan (%q, %v, %v)", step, tk.ID, g, rl, ok, id, gain, rel)
			}
			scored = tk
		case 2, 3, 4: // commit the scored task as a node decodes it, or a fresh one
			tk := newTask()
			if scored != nil {
				// The commit carries its own copy of the task, under the
				// scored task's ID; now and then its deadline differs.
				tk = &core.Task{ID: scored.ID, Keywords: scored.Keywords.Clone(), Deadline: scored.Deadline}
				if r.next()%5 == 0 {
					tk.Deadline++
				}
				if memo.pick.reusable(memo.epoch, tk) {
					st.hits++
				} else {
					st.stale++
				}
				scored = nil
			}
			want, _, _ := fresh(step, tk)
			got, ok := memo.TryAssign(tk)
			gotP, okP := plain.TryAssign(tk)
			if got != want || ok != (want != "") || gotP != got || okP != ok {
				t.Fatalf("step %d: commit %s: memo (%q, %v), plain (%q, %v), fresh scan %q", step, tk.ID, got, ok, gotP, okP, want)
			}
		case 5: // another offer
			tk := newTask()
			g, gerr := memo.OfferTask(tk)
			w, werr := plain.OfferTask(tk)
			if g != w || (gerr == nil) != (werr == nil) {
				t.Fatalf("step %d: offer %s: memo (%q, %v), plain (%q, %v)", step, tk.ID, g, gerr, w, werr)
			}
		case 6: // complete
			if len(ids) == 0 {
				continue
			}
			id := pickWorker()
			active, _ := memo.ActiveTasks(id)
			if len(active) == 0 {
				continue
			}
			done := active[r.next()%len(active)].ID
			both(step, "complete "+id, func(a *Assigner) []*core.Task {
				next, err := a.Complete(id, done)
				if err != nil {
					t.Fatal(err)
				}
				if next == nil {
					return nil
				}
				return []*core.Task{next}
			})
		case 7: // a worker arrives or departs
			w := pool[r.next()%len(pool)]
			if slices.Contains(ids, w.ID) {
				both(step, "remove "+w.ID, func(a *Assigner) []*core.Task {
					dropped, err := a.RemoveWorker(w.ID)
					if err != nil {
						t.Fatal(err)
					}
					return dropped
				})
			} else {
				both(step, "add "+w.ID, func(a *Assigner) []*core.Task {
					assigned, err := a.AddWorker(w)
					if err != nil {
						t.Fatal(err)
					}
					return assigned
				})
			}
		case 8: // trust moves, into and out of quarantine
			if len(ids) == 0 {
				continue
			}
			id, trust := pickWorker(), []float64{0, 0.5, 1, 2}[r.next()%4]
			both(step, "trust "+id, func(a *Assigner) []*core.Task {
				drained, err := a.SetTrust(id, trust)
				if err != nil {
					t.Fatal(err)
				}
				return drained
			})
		case 9: // a window is declared or cleared
			if len(ids) == 0 {
				continue
			}
			id, until := pickWorker(), int64(0)
			if b := r.next(); b%4 != 0 {
				until = now + int64(b%20)
			}
			for _, a := range []*Assigner{memo, plain} {
				if err := a.SetWindow(id, until); err != nil {
					t.Fatal(err)
				}
			}
		case 10: // the buffer alone moves: a steal, or a parked task
			if b := r.next(); b&1 == 0 {
				n := 1 + b%3
				both(step, "take", func(a *Assigner) []*core.Task { return a.TakeBuffered(n) })
			} else {
				tk := newTask()
				for _, a := range []*Assigner{memo, plain} {
					_ = a.BufferTask(tk)
				}
			}
		default: // time passes and due tasks expire
			now += int64(r.next() % 6)
			both(step, "expire", func(a *Assigner) []*core.Task { return a.ExpireDue(now) })
		}
		samePickState(t, step, memo, plain)
	}
	return st
}

// samePickState fails unless the two assigners hold the same buffer and,
// per worker, the same active set and the same sumRel bits.
func samePickState(t *testing.T, step int, memo, plain *Assigner) {
	t.Helper()
	if g, w := pickIDs(memo.buffer), pickIDs(plain.buffer); !slices.Equal(g, w) {
		t.Fatalf("step %d: buffer: memo %v, plain %v", step, g, w)
	}
	if !slices.Equal(memo.order, plain.order) {
		t.Fatalf("step %d: workers: memo %v, plain %v", step, memo.order, plain.order)
	}
	for i, ws := range memo.states {
		ps := plain.states[i]
		if g, w := pickIDs(ws.active), pickIDs(ps.active); !slices.Equal(g, w) {
			t.Fatalf("step %d: active %s: memo %v, plain %v", step, memo.order[i], g, w)
		}
		if math.Float64bits(ws.sumRel) != math.Float64bits(ps.sumRel) {
			t.Fatalf("step %d: sumRel %s: memo %v, plain %v", step, memo.order[i], ws.sumRel, ps.sumRel)
		}
	}
}

func pickIDs(ts []*core.Task) []string {
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

func randSet(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	for e := 0; e < n; e++ {
		if rng.Intn(10) < 3 {
			s.Add(e)
		}
	}
	return s
}

// FuzzPickReuse pits the BestGain→TryAssign pick memo against fresh scans
// over arbitrary op sequences: scores and commits interleaved with other
// offers, completes, arrivals, departures, trust and window changes,
// steals, parked tasks and expiries, under DeadlineAware and WithTrust
// both on and off.
func FuzzPickReuse(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPickReuse(t, data) })
}

// TestPickReuseMatchesRescan runs longer op sequences than the fuzz seeds
// hold, and checks that both branches ran: commits that reused the memo,
// and scored commits that found it stale and rescanned.
func TestPickReuseMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var total pickStats
	for i := 0; i < 40; i++ {
		data := make([]byte, 3000)
		rng.Read(data)
		st := runPickReuse(t, data)
		total.hits += st.hits
		total.stale += st.stale
	}
	t.Logf("%d commits reused the memo, %d rescanned", total.hits, total.stale)
	if total.hits < 500 || total.stale < 500 {
		t.Fatalf("%d commits reused the memo and %d found it stale, want at least 500 of each", total.hits, total.stale)
	}
}
