package stream

// The incremental gain cache: the zero-allocation machinery that turns
// pullBest from an O(|buffer|·|active|) distance rescan per freed slot
// into an O(C) arithmetic scan over the buffer's C keyword classes, and
// OfferTask scoring from per-pair interface dispatch into packed-row
// kernels.
//
// Δ(q, k) = 2α·Σ_{u∈active(q)} d(k,u) + β·(TR_q + |active(q)|·rel(q,k))
// depends on k only through its keyword set, so the cache is keyed by
// keyword class: buffered tasks whose keyword sets are equal, in bits and
// in capacity (the core.Instance.TaskClasses rule), share one class and
// one cache column. The terms have different lifetimes:
//
//   - rel(q, c) never changes while class c has a buffered member →
//     cached once per (worker, class) when the class opens;
//   - Σ d(c, u) changes only when *that worker's* active set changes →
//     cached as one distance row per active slot (rows[s][c] =
//     d(class c, active[s])); pullBest folds the ≤Xmax row streams in slot
//     order on the fly, so slot removal is O(1) (a float sum cannot be
//     un-added exactly, and an eagerly maintained fold would need a full
//     rebuild per removal);
//   - TR_q (sumRel) and |active(q)| are per-worker scalars the assigner
//     already maintains.
//
// A buffered task of a known class prices nothing; only the first member
// of a class opens a column (one packed row over the workers, one small
// row per worker over its active set), and the last member to leave
// closes it by a swap-remove of the column in every row. A buffer whose
// tasks all differ therefore pays what a per-task cache would.
//
// Every member of a class has the same gain, so the best buffered task is
// a member of the best class. Among equal gains the per-task scan this
// replaces took the lowest buffer index, so each class keeps its members'
// tickets in ascending order (a task's ticket is its buffer index plus
// the count of tasks ever dropped from the buffer front): the winner is
// the class with the best gain, ties going to the lowest first ticket,
// and the task pulled is that first ticket's. Appends bring the highest
// ticket, a swap-remove gives the moved task a lower one, and the
// front drop removes each class's first tickets, so the lists stay
// sorted with an append, a binary-searched insert or delete, and a front
// delete.
//
// Exactness invariant: every cached value is bit-identical to a
// from-scratch recompute. Rows hold the same floats Distance returns
// (metric.Row's contract) and are folded left-to-right in active-slot
// order — the same order marginalGain sums in — so the cached scan makes
// exactly the decisions the uncached scan would, epsilon tie-breaks
// included. A property test pins cached == recomputed under random ops,
// and a fuzz test pins the classed pulls to the per-task scan
// (streamtest).
//
// The cache assumes d is symmetric (a metric axiom VerifyMetric checks):
// rows are filled from whichever side of the pair is the shared operand.
//
// Allocation discipline: row slices come from a free list; pack mirrors,
// ticket lists, the class table and per-worker slices shrink by
// truncation and regrow into retained capacity, so steady-state
// offer/complete traffic allocates nothing (enforced by
// testing.AllocsPerRun in alloc_test.go).

import (
	"slices"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
)

// bufClass is one keyword class of the buffer.
type bufClass struct {
	kw      *bitset.Set // keyword set of the member that opened the class
	hash    uint64      // kw.Hash()
	tickets []int       // members' tickets, ascending; never empty while open
}

// getRow hands out a row slice of length n from the free list.
func (a *Assigner) getRow(n int) []float64 {
	if k := len(a.rowPool); k > 0 {
		r := a.rowPool[k-1]
		a.rowPool[k-1] = nil
		a.rowPool = a.rowPool[:k-1]
		if cap(r) < n {
			return make([]float64, n, 2*n)
		}
		return r[:n]
	}
	return make([]float64, n)
}

// putRow returns a row slice to the free list.
func (a *Assigner) putRow(r []float64) {
	a.rowPool = append(a.rowPool, r[:0])
}

// growScratch returns scratch resized to exactly n, reusing capacity.
func growScratch(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, 2*n)
	}
	return s[:n]
}

// bufferAppend adds t to the buffer as a member of its keyword class.
func (a *Assigner) bufferAppend(t *core.Task) {
	c := a.classOf(t.Keywords)
	a.buffer = append(a.buffer, t)
	a.cls = append(a.cls, c)
	cl := &a.classes[c]
	cl.tickets = append(cl.tickets, a.dropped+len(a.buffer)-1)
	if t.Deadline > 0 {
		a.deadlined++
	}
}

// classOf returns kw's class. A keyword set no buffered task has opens a
// new class and extends every worker's cache by its column: one packed
// row prices it against all workers (rel) and one small row per worker
// prices it against that worker's active set (the per-slot rows).
func (a *Assigner) classOf(kw *bitset.Set) int {
	if 2*(len(a.classes)+1) > len(a.slots) {
		a.growSlots()
	}
	h := kw.Hash()
	j := a.probe(kw, h)
	if id := a.slots[j]; id != 0 {
		return int(id - 1)
	}
	c := len(a.classes)
	a.slots[j] = int32(c + 1)
	// A closed class left its struct past the end (dropClass); reuse it
	// and its ticket capacity.
	if c < cap(a.classes) {
		a.classes = a.classes[:c+1]
	} else {
		a.classes = append(a.classes, bufClass{})
	}
	cl := &a.classes[c]
	cl.kw, cl.hash, cl.tickets = kw, h, cl.tickets[:0]
	a.clsPack.Append(kw)
	if len(a.states) == 0 {
		return c
	}
	a.scratchW = growScratch(a.scratchW, len(a.states))
	metric.Row(a.cfg.Dist, kw, &a.wkrPack, a.workerKw, a.scratchW)
	for k, ws := range a.states {
		ws.rel = append(ws.rel, 1-a.scratchW[k])
		if n := len(ws.active); n > 0 {
			a.scratchA = growScratch(a.scratchA, n)
			metric.Row(a.cfg.Dist, kw, &ws.activePack, ws.activeKw, a.scratchA)
			for s := 0; s < n; s++ {
				ws.rows[s] = append(ws.rows[s], a.scratchA[s])
			}
		}
	}
	return c
}

// probe returns the table slot holding kw's class, or the empty slot that
// ends kw's probe run when no open class has kw's keyword set. The table
// is open-addressed with linear probing and holds class id + 1, 0 for an
// empty slot; growSlots keeps it at most half full.
func (a *Assigner) probe(kw *bitset.Set, h uint64) int {
	mask := uint64(len(a.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		id := a.slots[j]
		if id == 0 {
			return int(j)
		}
		if cl := &a.classes[id-1]; cl.hash == h && cl.kw.Len() == kw.Len() && cl.kw.Equal(kw) {
			return int(j)
		}
	}
}

// growSlots doubles the class table (16 slots at first) and re-enters
// every open class.
func (a *Assigner) growSlots() {
	a.slots = make([]int32, max(16, 2*len(a.slots)))
	for c := range a.classes {
		cl := &a.classes[c]
		a.slots[a.probe(cl.kw, cl.hash)] = int32(c + 1)
	}
}

// unslot empties table slot j and shifts later entries of its probe run
// back into the hole, so every open class stays reachable from its home
// slot (deletion without tombstones).
func (a *Assigner) unslot(j int) {
	mask := len(a.slots) - 1
	for k := (j + 1) & mask; a.slots[k] != 0; k = (k + 1) & mask {
		home := int(a.classes[a.slots[k]-1].hash & uint64(mask))
		// The entry may fill the hole unless its home lies cyclically
		// in (j, k].
		if (k-home)&mask >= (k-j)&mask {
			a.slots[j] = a.slots[k]
			j = k
		}
	}
	a.slots[j] = 0
}

// dropClass closes class c once its last member has left: it leaves the
// table, and the last class takes id c in the table, the pack, its
// members' cls entries and every worker's cache columns — the column
// move a per-task cache makes on every removal.
func (a *Assigner) dropClass(c int) {
	a.unslot(a.probe(a.classes[c].kw, a.classes[c].hash))
	last := len(a.classes) - 1
	if c != last {
		moved := &a.classes[last]
		a.slots[a.probe(moved.kw, moved.hash)] = int32(c + 1)
		for _, tk := range moved.tickets {
			a.cls[tk-a.dropped] = c
		}
	}
	// Swap rather than overwrite, so the closed class's ticket capacity
	// waits past the end for the next class to open.
	a.classes[c], a.classes[last] = a.classes[last], a.classes[c]
	a.classes[last].kw = nil
	a.classes = a.classes[:last]
	a.clsPack.SwapRemove(c)
	for _, ws := range a.states {
		ws.rel[c] = ws.rel[last]
		ws.rel = ws.rel[:last]
		for s, r := range ws.rows {
			r[c] = r[last]
			ws.rows[s] = r[:last]
		}
	}
}

// bufferSwapRemove evicts buffer index i by moving the last entry into its
// slot — the pull-side removal. The moved task held the highest ticket of
// its class and takes i's; a class left without members closes.
func (a *Assigner) bufferSwapRemove(i int) {
	last := len(a.buffer) - 1
	if a.buffer[i].Deadline > 0 {
		a.deadlined--
	}
	c := a.cls[i]
	cl := &a.classes[c]
	j, _ := slices.BinarySearch(cl.tickets, a.dropped+i)
	cl.tickets = slices.Delete(cl.tickets, j, j+1)
	if i != last {
		mc := a.cls[last]
		mv := &a.classes[mc]
		mv.tickets = mv.tickets[:len(mv.tickets)-1]
		j, _ := slices.BinarySearch(mv.tickets, a.dropped+i)
		mv.tickets = slices.Insert(mv.tickets, j, a.dropped+i)
		a.buffer[i], a.cls[i] = a.buffer[last], mc
	}
	a.buffer[last] = nil
	a.buffer, a.cls = a.buffer[:last], a.cls[:last]
	if len(cl.tickets) == 0 {
		a.dropClass(c)
	}
}

// bufferDropFront removes the first k buffered tasks in order — the donor
// side of TakeBuffered. They leave in ticket order, so each is its
// class's first ticket; the rest keep their tickets while their indices
// shift down by k.
func (a *Assigner) bufferDropFront(k int) {
	for i, t := range a.buffer[:k] {
		if t.Deadline > 0 {
			a.deadlined--
		}
		c := a.cls[i]
		cl := &a.classes[c]
		cl.tickets = slices.Delete(cl.tickets, 0, 1)
		if len(cl.tickets) == 0 {
			a.dropClass(c)
		}
	}
	rest := len(a.buffer) - k
	copy(a.buffer, a.buffer[k:])
	clear(a.buffer[rest:])
	copy(a.cls, a.cls[k:])
	a.buffer, a.cls = a.buffer[:rest], a.cls[:rest]
	a.dropped += k
}

// addActive appends t as the worker's newest active slot: one packed row
// over the buffer's classes becomes the slot's cache row.
func (a *Assigner) addActive(ws *workerState, t *core.Task) {
	row := a.getRow(len(a.classes))
	metric.Row(a.cfg.Dist, t.Keywords, &a.clsPack, a.clsKw, row)
	ws.rows = append(ws.rows, row)
	ws.activePack.Append(t.Keywords)
	ws.active = append(ws.active, t)
}

// removeActive drops active slot idx (order-preserving, matching the
// active slice): the slot's row goes back to the free list and the later
// rows shift down — no sums to repair, since pullBest folds on read.
func (a *Assigner) removeActive(ws *workerState, idx int) {
	ws.activePack.RemoveAt(idx)
	a.putRow(ws.rows[idx])
	copy(ws.rows[idx:], ws.rows[idx+1:])
	ws.rows[len(ws.rows)-1] = nil
	ws.rows = ws.rows[:len(ws.rows)-1]
	ws.active = append(ws.active[:idx], ws.active[idx+1:]...)
}

// releaseWorkerCache returns a departing worker's rows to the free list.
func (a *Assigner) releaseWorkerCache(ws *workerState) {
	for s, r := range ws.rows {
		a.putRow(r)
		ws.rows[s] = nil
	}
	ws.rows = nil
	ws.rel = nil
}

// scoreFresh prices a task that is not in the buffer (an arriving offer)
// against one worker, given their relevance: the same Δ(q, k) the cache
// stores, computed through the pack kernel over the worker's active set
// in slot order.
func (a *Assigner) scoreFresh(ws *workerState, t *core.Task, rel float64) float64 {
	var sumDiv float64
	if n := len(ws.active); n > 0 {
		a.scratchA = growScratch(a.scratchA, n)
		metric.Row(a.cfg.Dist, t.Keywords, &ws.activePack, ws.activeKw, a.scratchA)
		for _, v := range a.scratchA {
			sumDiv += v
		}
	}
	w := ws.worker
	return 2*w.Alpha*sumDiv + w.Beta*(ws.sumRel+float64(len(ws.active))*rel)
}
