package stream

// Empty-worker pruning of the offer scan.
//
// By Equation 3 a worker with an empty active set gains exactly +0 from
// any one task: Δ = 2α·0 + β·(0 + 0·rel), times trust, with α, β and
// trust finite and >= 0 (NaN when rel is not finite). Yet the full scan
// prices every registered worker, and under greedy routing most free
// workers are empty: a worker fills to Xmax before the next one starts.
// So the assigner indexes the free workers whose gain can be anything
// but +0 or NaN (partial), and an offer first scans that index alone.
//
// The rule. The scan keeps (best, bestRel) and takes a candidate (g, r)
// when g > best+ε, or g > best−ε and r > bestRel (ε = 1e-12). If every
// eligible indexed worker's gain is > ε, no excluded worker can change
// the state the full scan reaches:
//   - a +0 or NaN candidate fails both branches against a best > ε;
//   - a candidate with gain > ε is taken against the initial (−1, −1)
//     state and against any state an excluded worker left, whose best
//     is +0.
//
// So the first indexed candidate is taken in both scans, and from there
// they move through the same states. The indexed scan's answer is then
// the full scan's, bit for bit: both price with scoreFresh, and the
// relevance metric.Relevance returns equals the packed row's under the
// PackDistancer contract. Otherwise — no eligible indexed worker, a gain
// ≤ ε (β = 0, keyword sets identical to the active tasks, trust near 0),
// a NaN, or Xmax = 1, which leaves no worker partial — the full scan
// runs over every free worker, as before.
//
// The indexes. A worker is partial when it has a free slot and either
// active tasks or a non-zero sumRel: sumRel is a float sum that
// completions subtract from, so a worker emptied by completions may
// keep a residue of a few ulps, and its gain β·sumRel is then not +0.
// The free and partial indexes are bitsets aligned with order, refreshed
// in O(1) wherever an active set or sumRel changes (assign, Complete);
// RemoveWorker shifts the bits above the departing worker down one, as
// it shifts order. The full scan walks the free index, so it never
// touches a full worker.

import (
	"math/bits"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
)

// gainEps is the width of the scan's tie band on gains.
const gainEps = 1e-12

// reindex files ws in or out of the free and partial indexes after its
// active set or sumRel changed.
func (a *Assigner) reindex(ws *workerState) {
	n := len(ws.active)
	w, bit := ws.pos>>6, uint64(1)<<(ws.pos&63)
	a.free[w] &^= bit
	a.partial[w] &^= bit
	if n < a.cfg.Xmax {
		a.free[w] |= bit
		if n > 0 || ws.sumRel != 0 {
			a.partial[w] |= bit
		}
	}
}

// unindex removes position i from the free and partial indexes, shifting
// every later position down one, and renumbers the workers that moved.
// Call it after states has dropped position i.
func (a *Assigner) unindex(i int) {
	dropBit(a.free, i)
	dropBit(a.partial, i)
	for _, ws := range a.states[i:] {
		ws.pos--
	}
}

// dropBit removes bit i from the bitset s, shifting the bits above it down
// one; the top bit of the last word comes out clear.
func dropBit(s []uint64, i int) {
	w, off := i>>6, uint(i&63)
	word := s[w]
	s[w] = word&(1<<off-1) | word>>off>>1<<off
	for ; w+1 < len(s); w++ {
		s[w] |= s[w+1] << 63
		s[w+1] >>= 1
	}
}

// eligible reports whether ws may take a new task in a scan that avoids
// workers departing before avoidBefore (0: no such filter).
func (a *Assigner) eligible(ws *workerState, avoidBefore int64) bool {
	if len(ws.active) >= a.cfg.Xmax {
		return false
	}
	if a.cfg.WithTrust && ws.trust <= 0 {
		return false // quarantined: never a candidate
	}
	// A known window ending before the task's deadline disqualifies.
	return avoidBefore <= 0 || ws.window <= 0 || ws.window >= avoidBefore
}

// partialVerdict is how scanPartial's answer stands to the full scan's.
type partialVerdict uint8

const (
	// partialExact: the answer is the full scan's, bit for bit.
	partialExact partialVerdict = iota
	// partialNone: no indexed worker is eligible, so every eligible
	// worker is empty and gains +0, or NaN for a relevance that is not
	// finite. The full scan's answer is then gain +0 or no worker, and
	// only the relevance tie-break, or the absence of any candidate,
	// is unknown.
	partialNone
	// partialLow: an eligible indexed worker's gain is not > ε (or NaN),
	// so only the full scan answers.
	partialLow
)

// scanPartial runs the selection loop over the partial index alone. Its
// answer holds only under verdict partialExact.
func (a *Assigner) scanPartial(t *core.Task, avoidBefore int64) (id string, gain, rel float64, v partialVerdict) {
	bestQ, bestGain, bestRel := "", -1.0, -1.0
	for w, word := range a.partial {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			ws := a.states[i]
			if !a.eligible(ws, avoidBefore) {
				continue
			}
			r := metric.Relevance(a.cfg.Dist, t.Keywords, ws.worker.Keywords)
			g := a.scoreFresh(ws, t, r)
			if a.cfg.WithTrust {
				g *= ws.trust
			}
			if !(g > gainEps) {
				return "", 0, 0, partialLow
			}
			if g > bestGain+gainEps || (g > bestGain-gainEps && r > bestRel) {
				bestQ, bestGain, bestRel = a.order[i], g, r
			}
		}
	}
	if bestQ == "" {
		return "", 0, 0, partialNone
	}
	return bestQ, bestGain, bestRel, partialExact
}
