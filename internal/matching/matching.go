// Package matching computes maximum-weight matchings on complete weighted
// graphs. Both HTA algorithms first compute a matching M_B on the diversity
// graph B — vertices are tasks, edge weights are pairwise diversities
// d(t_k, t_l) — to identify high-diversity task pairs (Line 2 of Algorithms
// 1 and 2). Arkin et al.'s analysis, which the paper's proofs adapt, only
// needs M_B to satisfy the local-domination inequalities of a greedy
// matching (Equations 9–10 in the appendix), so a ½-approximation suffices.
//
// Two ½-approximate algorithms are provided:
//
//   - GreedySort: the textbook greedy — sort all edges by weight, take an
//     edge when both endpoints are free. O(n²) time (the sort is a radix
//     sort) but Θ(n²) memory for the edge list. When the weight depends
//     only on the vertices' classes — tasks with equal keyword sets — AutoP
//     runs the same greedy over one sort record per class pair, in
//     O(n·C + C² log C) time and O(n + C²) memory for C classes.
//   - Suitor: the suitor algorithm of Manne & Halappanavar, which computes
//     exactly the same matching as greedy under a fixed total order on
//     edges but needs only O(n) memory, at O(n²) expected time on complete
//     graphs. Used above the record-list memory threshold.
//
// ExactSmall computes a true maximum-weight matching by bitmask DP for
// cross-checking the approximation guarantee in tests.
package matching

import (
	"fmt"
	"math"
	"sync"

	"github.com/htacs/ata/internal/radix"
)

// WeightFunc returns the weight of edge {i, j}, i ≠ j. It must be symmetric
// and non-negative; callers in this repository pass metric distances.
type WeightFunc func(i, j int) float64

// Matching is a set of vertex-disjoint edges.
type Matching struct {
	// Mate[v] is the vertex matched to v, or -1 if v is unmatched.
	Mate []int
	// Weight is the total weight of matched edges.
	Weight float64
}

// Edges returns the matched pairs (i, j) with i < j.
func (m Matching) Edges() [][2]int {
	var out [][2]int
	for i, j := range m.Mate {
		if j > i {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// Size returns the number of matched edges.
func (m Matching) Size() int {
	n := 0
	for i, j := range m.Mate {
		if j > i {
			n++
		}
	}
	return n
}

// Validate checks that Mate is an involution without fixed points and that
// Weight equals the sum of matched edge weights.
func (m Matching) Validate(w WeightFunc) error {
	var total float64
	for i, j := range m.Mate {
		if j == -1 {
			continue
		}
		if j < 0 || j >= len(m.Mate) || j == i {
			return fmt.Errorf("matching: Mate[%d] = %d invalid", i, j)
		}
		if m.Mate[j] != i {
			return fmt.Errorf("matching: Mate[%d]=%d but Mate[%d]=%d", i, j, j, m.Mate[j])
		}
		if j > i {
			total += w(i, j)
		}
	}
	if math.Abs(total-m.Weight) > 1e-6 {
		return fmt.Errorf("matching: recorded weight %g != recomputed %g", m.Weight, total)
	}
	return nil
}

// DefaultEdgeListLimit is the number of sort records above which AutoP
// switches to the memory-light Suitor algorithm. A record is an edge of
// GreedySort's list, or a class pair on the class path. The greedy's peak
// at the limit is the record list plus the radix sort's equally sized
// scratch copy, ~96 MB, which a pool keeps for the next solve until the
// following garbage collection.
const DefaultEdgeListLimit = 3_000_000

// Auto is AutoP without vertex classes.
func Auto(n int, w WeightFunc) Matching {
	return AutoP(n, w, nil)
}

// AutoP returns the greedy matching (heaviest first, ties by lower (i, j))
// by whichever algorithm fits the input. classes, when not nil, gives each
// vertex a class in [0, n) such that w(i, j), i ≠ j, depends only on the
// classes of i and j; tasks with equal keyword sets are such a class
// (core.Instance.TaskClasses hands them out when they pay). Given classes,
// the greedy sorts and sweeps the class pairs instead of the vertex pairs,
// at O(n·C + C² log C) for C classes instead of Θ(n²). Otherwise
// GreedySort sorts all n(n−1)/2 edges, giving way to Suitor when that
// count exceeds DefaultEdgeListLimit. All three return the same matching.
func AutoP(n int, w WeightFunc, classes []int) Matching {
	switch {
	case classes != nil:
		if len(classes) != n {
			panic(fmt.Sprintf("matching: %d classes for %d vertices", len(classes), n))
		}
		class, numClasses := denseClasses(classes)
		return greedyClasses(n, w, class, numClasses)
	case n*(n-1)/2 > DefaultEdgeListLimit:
		return Suitor(n, w)
	default:
		return GreedySort(n, w)
	}
}

type edge struct {
	w    float64
	i, j int32
}

// GreedySort runs the classic greedy matching: consider edges in decreasing
// weight (ties broken by lower (i, j), lexicographically), taking an edge
// when both endpoints are still free. It is a ½-approximation of the
// maximum-weight matching and, on a complete graph, leaves at most one
// vertex unmatched.
func GreedySort(n int, w WeightFunc) Matching {
	sc := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(sc)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	matched := 0
	for _, e := range sc.sortedEdges(n, w) {
		if matched >= n-1 {
			break
		}
		if mate[e.i] == -1 && mate[e.j] == -1 {
			mate[e.i], mate[e.j] = int(e.j), int(e.i)
			total += e.w
			matched += 2
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// greedyScratch is GreedySort's edge list and sorter. Solves reuse them
// through greedyPool — the adaptive loop re-solves a shrinking pool every
// iteration — and the pool drops them at garbage collection, so an idle
// process does not hold Θ(n²) memory.
type greedyScratch struct {
	edges  []edge
	sorter radix.Sorter[edge]
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// sortedEdges returns the edges of the complete graph on n vertices in
// greedy order, heaviest first and ties by lower (i, j). The result aliases
// sc's memory.
func (sc *greedyScratch) sortedEdges(n int, w WeightFunc) []edge {
	m := n * (n - 1) / 2
	if cap(sc.edges) < m {
		sc.edges = make([]edge, m)
	}
	edges := sc.edges[:0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{w: w(i, j), i: int32(i), j: int32(j)})
		}
	}
	// The fill wrote edges in ascending (i, j) order, the tie-break, so a
	// stable sort on the weight alone yields the greedy order.
	return sc.sorter.Desc(edges, func(e *edge) float64 { return e.w })
}

// prefer reports whether, for vertex u, the offer from vertex a with weight
// wa beats the offer from vertex b with weight wb under the same total
// order used by GreedySort.
func prefer(u int, wa float64, a int, wb float64, b int) bool {
	if wa != wb {
		return wa > wb
	}
	// Tie: the edge with the lexicographically smaller (min, max) endpoint
	// pair wins, as in GreedySort.
	ai, aj := u, a
	if ai > aj {
		ai, aj = aj, ai
	}
	bi, bj := u, b
	if bi > bj {
		bi, bj = bj, bi
	}
	if ai != bi {
		return ai < bi
	}
	return aj < bj
}

// Suitor computes the greedy matching with O(n) memory using the suitor
// algorithm: every vertex proposes to the best neighbour that would accept
// it, displacing weaker suitors, until proposals stabilize. With a strict
// total order on edges the fixed point is exactly the greedy matching.
func Suitor(n int, w WeightFunc) Matching {
	suitor := make([]int, n) // current best proposer for each vertex, -1 if none
	for i := range suitor {
		suitor[i] = -1
	}
	offer := make([]float64, n) // weight of the suitor's edge
	for u := 0; u < n; u++ {
		current := u
		for current != -1 {
			bestV, bestW := -1, 0.0
			for v := 0; v < n; v++ {
				if v == current {
					continue
				}
				wv := w(current, v)
				// The offer must beat v's current suitor's offer.
				if suitor[v] != -1 && !prefer(v, wv, current, offer[v], suitor[v]) {
					continue
				}
				if bestV == -1 || prefer(current, wv, v, bestW, bestV) {
					bestV, bestW = v, wv
				}
			}
			if bestV == -1 {
				break
			}
			displaced := suitor[bestV]
			suitor[bestV] = current
			offer[bestV] = bestW
			current = displaced
		}
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	for v := 0; v < n; v++ {
		u := suitor[v]
		if u != -1 && suitor[u] == v && mate[v] == -1 && mate[u] == -1 {
			mate[v], mate[u] = u, v
			total += w(u, v)
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// ExactSmall computes a maximum-weight matching by dynamic programming over
// vertex subsets in O(n·2ⁿ) time. It panics for n > 18 and exists to
// cross-check the ½-approximation guarantee in tests.
func ExactSmall(n int, w WeightFunc) Matching {
	if n > 18 {
		panic(fmt.Sprintf("matching: ExactSmall limited to n <= 18, got %d", n))
	}
	size := 1 << uint(n)
	dp := make([]float64, size)
	choice := make([]int32, size) // packed (i<<8)|j of the matched pair, or -1 for "skip lowest"
	for s := range choice {
		choice[s] = -1
	}
	for s := 1; s < size; s++ {
		// Lowest set bit is vertex i.
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		rest := s &^ (1 << uint(i))
		// Option 1: leave i unmatched.
		dp[s] = dp[rest]
		choice[s] = -1
		// Option 2: match i with some j in rest.
		for j := i + 1; j < n; j++ {
			if rest&(1<<uint(j)) == 0 {
				continue
			}
			cand := w(i, j) + dp[rest&^(1<<uint(j))]
			if cand > dp[s] {
				dp[s] = cand
				choice[s] = int32(i<<8 | j)
			}
		}
	}
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	s := size - 1
	for s != 0 {
		c := choice[s]
		i := 0
		for s&(1<<uint(i)) == 0 {
			i++
		}
		if c == -1 {
			s &^= 1 << uint(i)
			continue
		}
		pi, pj := int(c>>8), int(c&0xff)
		mate[pi], mate[pj] = pj, pi
		s &^= (1 << uint(pi)) | (1 << uint(pj))
	}
	return Matching{Mate: mate, Weight: dp[size-1]}
}
