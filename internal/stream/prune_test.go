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
	"github.com/htacs/ata/internal/workload"
)

// fullBestFree is bestFree without any pruning: every scan prices every
// registered worker, as the selection rule is written.
func fullBestFree(a *Assigner, t *core.Task) (id string, gain, rel float64) {
	if a.cfg.DeadlineAware && t.Deadline > 0 {
		if id, gain, rel = referenceScan(a, t, t.Deadline); id != "" {
			return id, gain, rel
		}
	}
	return referenceScan(a, t, 0)
}

// referenceScan is the selection loop over every registered worker, with
// one relevance row over all of them and scoreFresh for each candidate.
func referenceScan(a *Assigner, t *core.Task, avoidBefore int64) (id string, gain, rel float64) {
	row := make([]float64, len(a.states))
	metric.Row(a.cfg.Dist, t.Keywords, &a.wkrPack, a.workerKw, row)
	bestQ, bestGain, bestRel := "", -1.0, -1.0
	for i, wid := range a.order {
		ws := a.states[i]
		if len(ws.active) >= a.cfg.Xmax {
			continue
		}
		if a.cfg.WithTrust && ws.trust <= 0 {
			continue
		}
		if avoidBefore > 0 && ws.window > 0 && ws.window < avoidBefore {
			continue
		}
		r := 1 - row[i]
		g := a.scoreFresh(ws, t, r)
		if a.cfg.WithTrust {
			g *= ws.trust
		}
		if g > bestGain+1e-12 || (g > bestGain-1e-12 && r > bestRel) {
			bestQ, bestGain, bestRel = wid, g, r
		}
	}
	return bestQ, bestGain, bestRel
}

// pruneStats counts how the offers of a run were answered: by the
// partial index alone, by the full scan after an indexed gain was not
// > ε, or by the full scan because no indexed worker was eligible; and
// how BestGainPartial answered: pending or computed.
type pruneStats struct{ pruned, bailed, none, pending, computed int }

func (s *pruneStats) add(o pruneStats) {
	s.pruned += o.pruned
	s.bailed += o.bailed
	s.none += o.none
	s.pending += o.pending
	s.computed += o.computed
}

// checkPrune fails unless bestFree's answer for tk equals the full scan's
// (worker, gain bits and relevance bits), and returns that answer.
func checkPrune(t *testing.T, step int, a *Assigner, tk *core.Task, st *pruneStats) string {
	t.Helper()
	id, gain, rel := a.bestFree(tk)
	wid, wgain, wrel := fullBestFree(a, tk)
	if id != wid || math.Float64bits(gain) != math.Float64bits(wgain) || math.Float64bits(rel) != math.Float64bits(wrel) {
		t.Fatalf("step %d: task %s: pruned scan (%q, %v, %v), full scan (%q, %v, %v)", step, tk.ID, id, gain, rel, wid, wgain, wrel)
	}
	_, _, _, v := a.scanPartial(tk, 0)
	switch {
	case v == partialExact:
		st.pruned++
	case slices.ContainsFunc(a.states, func(ws *workerState) bool { return a.isPartial(ws.pos) && a.eligible(ws, 0) }):
		if v != partialLow {
			t.Fatalf("step %d: task %s: an eligible indexed worker, verdict %d", step, tk.ID, v)
		}
		st.bailed++
	default:
		if v != partialNone {
			t.Fatalf("step %d: task %s: no eligible indexed worker, verdict %d", step, tk.ID, v)
		}
		st.none++
	}
	return wid
}

// checkPartial fails unless BestGainPartial answers tk as its contract
// says. A pending answer comes only where the full scan answers gain +0
// or no worker, and leaves the pick memo and the scan count as they
// were. Any other answer is the full scan's, bit for bit, and is
// remembered: a BestGain right after returns it without scanning. It
// counts one scan, unless it was itself the memo's answer.
// Reports whether the answer was pending.
func checkPartial(t *testing.T, step int, a *Assigner, tk *core.Task, st *pruneStats) (pending bool) {
	t.Helper()
	memo, scans, reuse := a.pick, a.scans, a.pick.reusable(a.epoch, tk)
	g, r, ok, pending := a.BestGainPartial(tk)
	id, wg, wr := fullBestFree(a, tk)
	if pending {
		if id != "" && math.Float64bits(wg) != 0 {
			t.Fatalf("step %d: task %s answered pending, full scan (%q, %v, %v)", step, tk.ID, id, wg, wr)
		}
		if !sameMemo(a.pick, memo) || a.scans != scans {
			t.Fatalf("step %d: task %s answered pending, yet the memo moved or %d scans ran", step, tk.ID, a.scans-scans)
		}
		st.pending++
		return true
	}
	if ok != (id != "") || math.Float64bits(g) != math.Float64bits(wg) || math.Float64bits(r) != math.Float64bits(wr) {
		t.Fatalf("step %d: BestGainPartial(%s) = (%v, %v, %v), full scan (%q, %v, %v)", step, tk.ID, g, r, ok, id, wg, wr)
	}
	want := scans + 1
	if reuse {
		want = scans
	}
	if a.scans != want {
		t.Fatalf("step %d: BestGainPartial(%s) ran %d scans, want %d", step, tk.ID, a.scans-scans, want-scans)
	}
	scans = a.scans
	if g2, r2, ok2 := a.BestGain(tk); a.scans != scans || ok2 != ok ||
		math.Float64bits(g2) != math.Float64bits(g) || math.Float64bits(r2) != math.Float64bits(r) {
		t.Fatalf("step %d: BestGain(%s) after a computed answer = (%v, %v, %v) in %d scans, want (%v, %v, %v) from the memo",
			step, tk.ID, g2, r2, ok2, a.scans-scans, g, r, ok)
	}
	st.computed++
	return false
}

// sameMemo compares two pick memos field by field, floats by their bits.
func sameMemo(p, q pickMemo) bool {
	return p.epoch == q.epoch && p.kw == q.kw && p.deadline == q.deadline && p.id == q.id &&
		math.Float64bits(p.gain) == math.Float64bits(q.gain) && math.Float64bits(p.rel) == math.Float64bits(q.rel)
}

// isPartial reads position i of the partial index.
func (a *Assigner) isPartial(i int) bool { return hasBit(a.partial, i) }

func hasBit(s []uint64, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// checkIndex fails unless every worker knows its position, the free index
// holds exactly the workers with a free slot, the partial index exactly
// those of them with active tasks or a non-zero sumRel, and neither holds
// anything past the last worker.
func checkIndex(t *testing.T, step int, a *Assigner) {
	t.Helper()
	for i, ws := range a.states {
		n := len(ws.active)
		free, partial := n < a.cfg.Xmax, n < a.cfg.Xmax && (n > 0 || ws.sumRel != 0)
		if ws.pos != i || hasBit(a.free, i) != free || a.isPartial(i) != partial {
			t.Fatalf("step %d: worker %s at %d: pos %d, free %v, partial %v; want free %v, partial %v",
				step, a.order[i], i, ws.pos, hasBit(a.free, i), a.isPartial(i), free, partial)
		}
	}
	for i := len(a.states); i < 64*len(a.partial); i++ {
		if hasBit(a.free, i) || a.isPartial(i) {
			t.Fatalf("step %d: position %d indexed past the last worker", step, i)
		}
	}
}

// runOfferPrune runs one op sequence decoded from data and checks every
// offer, BestGain and TryAssign against the full scan, and the partial
// index after every op. The generator leans toward the cases that force
// the full scan: α or β zero or tiny, worker keyword sets equal to the
// task templates, trust near 0, and Xmax = 1. With partial set, every
// score and commit is preceded by a BestGainPartial (checkPartial), and
// a commit after a pending answer must scan while one after a computed
// answer must not.
func runOfferPrune(t *testing.T, data []byte, partial bool) (st pruneStats) {
	r := &pickBytes{data: data}
	now := int64(1)
	// Dice and nanJaccard have no pack kernel; nanJaccard's NaN
	// relevances and gains must never be taken.
	dist := []metric.Distance{metric.Jaccard{}, metric.Hamming{}, metric.Dice{}, nanJaccard{}}[r.next()%4]
	flags := r.next()
	a, err := NewAssigner(Config{
		Xmax: 1 + r.next()%4, BufferLimit: 2 + r.next()%12, Dist: dist,
		WithTrust: flags&1 == 1, DeadlineAware: flags&2 == 2,
		UrgencyHorizon: 8, Now: func() int64 { return now },
		Metrics: NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	const universe = 16
	rng := rand.New(rand.NewSource(int64(r.next())))
	templates := make([]*bitset.Set, 1+r.next()%4)
	for i := range templates {
		templates[i] = randSet(rng, universe)
	}
	weights := []float64{0, 1e-13, 0.25, 1}
	// 70 workers, so the index spans two words.
	pool := make([]*core.Worker, 70)
	for i := range pool {
		kw := randSet(rng, universe)
		if rng.Intn(3) == 0 {
			kw = templates[rng.Intn(len(templates))].Clone()
		}
		pool[i] = &core.Worker{
			ID: fmt.Sprintf("w%d", i), Keywords: kw,
			Alpha: weights[rng.Intn(len(weights))],
			Beta:  weights[rng.Intn(len(weights))],
		}
	}
	for _, w := range pool[:r.next()%len(pool)] {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
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
		if dl := r.next(); dl%3 == 0 {
			tk.Deadline = now + int64(dl%20) - 4
		}
		return tk
	}

	for step := 0; r.more(); step++ {
		ids := a.WorkerIDs()
		pickWorker := func() string { return ids[r.next()%len(ids)] }
		switch op := r.next() % 10; op {
		case 0, 1: // offer
			tk := newTask()
			want := checkPrune(t, step, a, tk, &st)
			if got, err := a.OfferTask(tk); got != want || (err != nil) != (err == ErrBufferFull) {
				t.Fatalf("step %d: offer %s went to %q (%v), full scan %q", step, tk.ID, got, err, want)
			}
		case 2: // score, sometimes twice
			tk := newTask()
			checkPrune(t, step, a, tk, &st)
			if partial {
				checkPartial(t, step, a, tk, &st)
			}
			for k := 0; k <= r.next()%2; k++ {
				g, rl, ok := a.BestGain(tk)
				id, wg, wr := fullBestFree(a, tk)
				if ok != (id != "") || math.Float64bits(g) != math.Float64bits(wg) || math.Float64bits(rl) != math.Float64bits(wr) {
					t.Fatalf("step %d: BestGain(%s) = (%v, %v, %v), full scan (%q, %v, %v)", step, tk.ID, g, rl, ok, id, wg, wr)
				}
			}
		case 3: // commit
			tk := newTask()
			want := checkPrune(t, step, a, tk, &st)
			pending := partial && checkPartial(t, step, a, tk, &st)
			scans := a.scans
			if got, ok := a.TryAssign(tk); got != want || ok != (want != "") {
				t.Fatalf("step %d: commit %s went to (%q, %v), full scan %q", step, tk.ID, got, ok, want)
			}
			if partial && (a.scans != scans) != pending {
				t.Fatalf("step %d: commit %s after a pending answer %v ran %d scans", step, tk.ID, pending, a.scans-scans)
			}
		case 4, 5: // complete
			if len(ids) == 0 {
				continue
			}
			id := pickWorker()
			if active, _ := a.ActiveTasks(id); len(active) > 0 {
				if _, err := a.Complete(id, active[r.next()%len(active)].ID); err != nil {
					t.Fatal(err)
				}
			}
		case 6: // a worker arrives or departs
			w := pool[r.next()%len(pool)]
			if slices.Contains(ids, w.ID) {
				_, err = a.RemoveWorker(w.ID)
			} else {
				_, err = a.AddWorker(w)
			}
			if err != nil {
				t.Fatal(err)
			}
		case 7: // trust moves, near and into quarantine
			if len(ids) == 0 {
				continue
			}
			trust := []float64{0, 1e-300, 1e-13, 0.5, 1, 2}[r.next()%6]
			if _, err := a.SetTrust(pickWorker(), trust); err != nil {
				t.Fatal(err)
			}
		case 8: // a window is declared or cleared
			if len(ids) == 0 {
				continue
			}
			id, until := pickWorker(), int64(0)
			if b := r.next(); b%4 != 0 {
				until = now + int64(b%20)
			}
			if err := a.SetWindow(id, until); err != nil {
				t.Fatal(err)
			}
		default: // time passes and due tasks expire
			now += int64(r.next() % 6)
			a.ExpireDue(now)
		}
		checkIndex(t, step, a)
	}
	return st
}

// nanJaccard is Jaccard, except that two disjoint non-empty sets are at
// distance NaN. It has no pack kernel.
type nanJaccard struct{}

func (nanJaccard) Distance(a, b *bitset.Set) float64 {
	if a.IntersectionCount(b) == 0 && a.Count() > 0 && b.Count() > 0 {
		return math.NaN()
	}
	return metric.Jaccard{}.Distance(a, b)
}

func (nanJaccard) Metric() bool { return false }
func (nanJaccard) Name() string { return "nan-jaccard" }

// FuzzOfferPrune pits the offer scan over the partial index against the
// full scan over every worker, under random churn, completes, trust and
// window changes, with WithTrust and DeadlineAware on and off; then runs
// the same ops with BestGainPartial before every score and commit.
func FuzzOfferPrune(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(400))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runOfferPrune(t, data, false)
		runOfferPrune(t, data, true)
	})
}

// TestOfferPruneMatchesFullScan runs longer op sequences than the fuzz
// seeds hold, and checks that all three ways of answering ran: from the
// index alone, and by the full scan after a small gain or for want of an
// eligible indexed worker. It runs each sequence again with
// BestGainPartial, and checks that it answered both pending and computed.
func TestOfferPruneMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var total, partial pruneStats
	for i := 0; i < 40; i++ {
		data := make([]byte, 3000)
		rng.Read(data)
		total.add(runOfferPrune(t, data, false))
		partial.add(runOfferPrune(t, data, true))
	}
	t.Logf("%d offers answered from the index, %d fell back after a small gain, %d with no indexed worker", total.pruned, total.bailed, total.none)
	if total.pruned < 500 || total.bailed < 100 || total.none < 100 {
		t.Fatalf("answers %+v, want at least 500 pruned and 100 of each fallback", total)
	}
	t.Logf("BestGainPartial answered %d pending and %d computed", partial.pending, partial.computed)
	if partial.pending < 100 || partial.computed < 100 {
		t.Fatalf("answers %+v, want at least 100 pending and 100 computed", partial)
	}
}

// TestBestGainReusesPick pins the memo on the score side: a BestGain of
// an equal task at an unchanged epoch returns the remembered score, bit
// for bit the full scan's, without scanning, and any mutation rescans.
func TestBestGainReusesPick(t *testing.T) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssigner(Config{Xmax: 4, Metrics: NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range gen.Workers(8) {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	tasks := gen.Tasks(2, 8)
	for _, tk := range tasks[:10] {
		if _, err := a.OfferTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	tk := tasks[10]
	twin := &core.Task{ID: "twin", Keywords: tk.Keywords.Clone()}
	g, r, ok := a.BestGain(tk)
	scans := a.scans
	for _, probe := range []*core.Task{tk, twin} {
		g2, r2, ok2 := a.BestGain(probe)
		if a.scans != scans {
			t.Fatalf("BestGain(%s) at an unchanged epoch scanned again", probe.ID)
		}
		id, wg, wr := fullBestFree(a, probe)
		if ok2 != ok || ok2 != (id != "") || math.Float64bits(g2) != math.Float64bits(wg) || math.Float64bits(r2) != math.Float64bits(wr) ||
			math.Float64bits(g2) != math.Float64bits(g) || math.Float64bits(r2) != math.Float64bits(r) {
			t.Fatalf("BestGain(%s) = (%v, %v, %v), first score (%v, %v, %v), full scan (%q, %v, %v)", probe.ID, g2, r2, ok2, g, r, ok, id, wg, wr)
		}
	}
	if !ok {
		t.Fatal("no free worker: the probe scored nothing")
	}
	if _, err := a.SetTrust(a.order[0], 1); err != nil {
		t.Fatal(err)
	}
	a.BestGain(tk)
	if a.scans != scans+1 {
		t.Fatalf("BestGain after a mutation: %d scans, want %d", a.scans-scans, 1)
	}
}

// TestOfferPruneResidue builds the case that puts an emptied worker in
// the index: its sumRel keeps a positive residue after its completions,
// so its gain β·sumRel is not +0, and a partial worker's gain lies just
// above ε but within that residue of it. The full scan then keeps the
// emptied worker, which is the more relevant one.
func TestOfferPruneResidue(t *testing.T) {
	set := func(elems ...int) *bitset.Set {
		s := bitset.New(16)
		for _, e := range elems {
			s.Add(e)
		}
		return s
	}
	eKw, pKw := set(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), set(10, 11, 12)
	t1, t2, u := set(0, 1), set(0, 1, 2, 3, 4, 5, 6, 7, 8), set(10)
	probe := &core.Task{ID: "probe", Keywords: set(0, 1, 2, 10)}
	var jac metric.Jaccard
	rel := func(task, worker *bitset.Set) float64 { return metric.Relevance(jac, task, worker) }
	residue := rel(t1, eKw) + rel(t2, eKw) - rel(t1, eKw) - rel(t2, eKw)
	// P's gain β·(rel(u) + rel(probe)) lands halfway into (ε, ε+residue].
	beta := (gainEps + residue/2) / (rel(u, pKw) + rel(probe.Keywords, pKw))

	a, err := NewAssigner(Config{Xmax: 4, Metrics: NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*core.Worker{
		{ID: "e", Keywords: eKw, Alpha: 1, Beta: 1},
		{ID: "p", Keywords: pKw, Alpha: 0, Beta: beta},
	} {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct {
		worker string
		task   *core.Task
	}{{"e", &core.Task{ID: "t1", Keywords: t1}}, {"e", &core.Task{ID: "t2", Keywords: t2}}, {"p", &core.Task{ID: "u", Keywords: u}}} {
		if err := a.ForceAssign(f.worker, f.task); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"t1", "t2"} {
		if _, err := a.Complete("e", id); err != nil {
			t.Fatal(err)
		}
	}
	e := a.workers["e"]
	if !(e.sumRel > 0) || len(e.active) != 0 {
		t.Fatalf("emptied worker: sumRel %v, %d active; want a positive residue", e.sumRel, len(e.active))
	}
	if g := a.scoreFresh(a.workers["p"], probe, rel(probe.Keywords, pKw)); !(g > gainEps && g <= gainEps+e.sumRel) {
		t.Fatalf("partial worker's gain %v, want in (ε, ε+%v]", g, e.sumRel)
	}
	id, gain, r := a.bestFree(probe)
	wid, wgain, wr := fullBestFree(a, probe)
	if wid != "e" {
		t.Fatalf("full scan picked %q, want the emptied worker", wid)
	}
	if id != wid || math.Float64bits(gain) != math.Float64bits(wgain) || math.Float64bits(r) != math.Float64bits(wr) {
		t.Fatalf("pruned scan (%q, %v, %v), full scan (%q, %v, %v)", id, gain, r, wid, wgain, wr)
	}
	// The residue keeps the emptied worker indexed, so BestGainPartial
	// computes the full scan's answer rather than answering pending.
	if checkPartial(t, 0, a, probe, &pruneStats{}) {
		t.Fatal("BestGainPartial answered pending with an emptied worker's residue indexed")
	}
}

// TestBestGainPartialNaN covers relevances that are not finite. A
// partly-filled worker whose gain is NaN sends BestGainPartial to the
// full scan, whose answer it returns: no worker, since no NaN is ever
// taken. Once that worker is emptied, only empty workers remain, and the
// answer is pending whether their relevance is NaN (the full scan finds
// no worker) or finite (gain +0).
func TestBestGainPartialNaN(t *testing.T) {
	set := func(elems ...int) *bitset.Set {
		s := bitset.New(16)
		for _, e := range elems {
			s.Add(e)
		}
		return s
	}
	a, err := NewAssigner(Config{Xmax: 4, Dist: nanJaccard{}, Metrics: NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*core.Worker{
		{ID: "p", Keywords: set(0, 1), Alpha: 1, Beta: 1},
		{ID: "e", Keywords: set(5), Alpha: 1, Beta: 1},
	} {
		if _, err := a.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.ForceAssign("p", &core.Task{ID: "u", Keywords: set(0)}); err != nil {
		t.Fatal(err)
	}
	disjoint, near := &core.Task{ID: "d", Keywords: set(9)}, &core.Task{ID: "n", Keywords: set(5, 9)}
	if _, _, _, v := a.scanPartial(disjoint, 0); v != partialLow {
		t.Fatalf("the partly-filled worker's NaN gain gave verdict %d, want partialLow", v)
	}
	st := &pruneStats{}
	if checkPartial(t, 0, a, disjoint, st) {
		t.Fatal("BestGainPartial answered pending with a NaN gain indexed")
	}
	if _, _, ok := a.BestGain(disjoint); ok {
		t.Fatal("the full scan took a NaN candidate")
	}
	if _, err := a.Complete("p", "u"); err != nil {
		t.Fatal(err)
	}
	if a.isPartial(a.workers["p"].pos) {
		t.Fatal("the emptied worker is still indexed")
	}
	for _, tk := range []*core.Task{disjoint, near} {
		if !checkPartial(t, 0, a, tk, st) {
			t.Fatalf("BestGainPartial(%s) computed with only empty workers free", tk.ID)
		}
	}
	if id, _, _ := fullBestFree(a, near); id != "e" {
		t.Fatalf("full scan for %s picked %q, want the one worker at a finite relevance", near.ID, id)
	}
}
