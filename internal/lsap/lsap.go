// Package lsap solves the Linear Sum Assignment Problem (LSAP), the
// auxiliary problem at the heart of both HTA algorithms (Section IV of the
// paper, Line 11 of Algorithms 1 and 2).
//
// Given an n×n cost matrix f, LSAP asks for a permutation σ maximizing
// Σ_k f[k][σ(k)]. HTA-APP solves it exactly with the Hungarian algorithm
// (O(n³)); HTA-GRE replaces that step with a ½-approximate greedy matching
// on the complete bipartite graph (O(n²): its edges are radix-sorted),
// trading a factor 2 in the guarantee for an order of magnitude in running
// time — the paper's central engineering contribution.
//
// Costs are abstracted behind an interface because the HTA auxiliary matrix
// f[k][l] = bM(t_k)·degA(l) + c[k][l] has only |W|+1 distinct column
// classes; representing it implicitly keeps memory at O(|T|·|W|) instead of
// O(|T|²) (800 MB at the paper's 10k-task scale). The solvers in this
// package work on any Costs; Greedy additionally exploits ColumnClassed
// structure when available.
package lsap

import (
	"fmt"
	"math"

	"github.com/htacs/ata/internal/par"
)

// Costs is a square matrix of assignment profits. Implementations must be
// safe for concurrent reads.
type Costs interface {
	// N is the dimension of the square matrix.
	N() int
	// At returns the profit of assigning row i to column j.
	At(i, j int) float64
}

// ColumnClassed is implemented by cost structures whose columns partition
// into classes with identical entries: At(i, j) depends only on
// (i, Class(j)). Greedy exploits this to sort n·numClasses candidates
// instead of n² edges.
type ColumnClassed interface {
	Costs
	// NumClasses is the number of distinct column classes.
	NumClasses() int
	// Class returns the class of column j, in [0, NumClasses()).
	Class(j int) int
	// AtClass returns the profit of assigning row i to any column of class c.
	AtClass(i, c int) float64
}

// Dense is a Costs backed by a flat row-major float64 slice.
type Dense struct {
	n int
	a []float64
}

// NewDense builds a Dense matrix from rows. All rows must have length
// len(rows).
func NewDense(rows [][]float64) *Dense {
	n := len(rows)
	d := &Dense{n: n, a: make([]float64, n*n)}
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("lsap: row %d has %d entries, want %d", i, len(r), n))
		}
		copy(d.a[i*n:(i+1)*n], r)
	}
	return d
}

// N implements Costs.
func (d *Dense) N() int { return d.n }

// At implements Costs.
func (d *Dense) At(i, j int) float64 { return d.a[i*d.n+j] }

// Set updates one entry.
func (d *Dense) Set(i, j int, v float64) { d.a[i*d.n+j] = v }

// Solution is an assignment of rows to columns.
type Solution struct {
	// RowToCol[i] is the column assigned to row i.
	RowToCol []int
	// Value is Σ_i At(i, RowToCol[i]).
	Value float64
}

// value recomputes the objective of a row→col assignment.
func value(c Costs, rowToCol []int) float64 {
	var v float64
	for i, j := range rowToCol {
		v += c.At(i, j)
	}
	return v
}

// Hungarian solves LSAP exactly, maximizing total profit, in O(n³) time and
// O(n) extra memory beyond the cost structure. It is the shortest
// augmenting path formulation of the Kuhn–Munkres algorithm (the same
// family as the Carpaneto–Toth code the paper adapted).
func Hungarian(c Costs) Solution {
	return HungarianWS(c, nil)
}

// HungarianWS is Hungarian drawing every scratch slice (and the returned
// RowToCol) from ws, so steady-state solves of same-sized problems allocate
// nothing. A nil ws uses a private workspace, which is exactly Hungarian.
func HungarianWS(c Costs, ws *Workspace) Solution {
	n := c.N()
	if n == 0 {
		return Solution{RowToCol: nil, Value: 0}
	}
	if ws == nil {
		ws = &Workspace{}
	}
	// The classic formulation minimizes; negate profits.
	const inf = math.MaxFloat64
	u := growFloats(&ws.u, n+1)
	v := growFloats(&ws.v, n+1)
	p := growInts(&ws.p, n+1)     // p[j]: row (1-based) matched to column j; p[0] is the row being inserted
	way := growInts(&ws.way, n+1) // way[j]: previous column on the shortest alternating path
	minv := growFloats(&ws.minv, n+1)
	used := growBools(&ws.used, n+1)
	for j := 0; j <= n; j++ {
		u[j], v[j], p[j] = 0, 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -c.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	rowToCol := growInts(&ws.rowToCol, n)
	for j := 1; j <= n; j++ {
		rowToCol[p[j]-1] = j - 1
	}
	return Solution{RowToCol: rowToCol, Value: value(c, rowToCol)}
}

// greedyEdge is one candidate assignment considered by Greedy.
type greedyEdge struct {
	w   float64
	row int32
	col int32 // column index, or column class when classed
}

// Greedy computes a ½-approximate solution to LSAP (maximization) by the
// GreedyMatching algorithm of the paper (Section IV-C): repeatedly take the
// heaviest remaining edge of the complete bipartite graph whose endpoints
// are both free. Because the graph is complete with an even number of
// vertices, the result is a perfect matching (Lemma 4), so every row is
// assigned. Profits must be non-negative for the guarantee to be
// meaningful.
//
// When c implements ColumnClassed, only n·NumClasses candidates are sorted
// and class capacities are respected, which is equivalent to greedy over
// the full edge set under a tie-break that prefers lower column indices
// within a class.
func Greedy(c Costs) Solution {
	return GreedyWS(c, 1, nil)
}

// GreedyP is Greedy with the candidate profit list built by p goroutines
// (p >= 1 literal, p <= 0 → runtime.NumCPU()) — the parallel construction
// of the auxiliary LSAP profit matrix in the HTA-GRE hot path. Each
// candidate is written to its position-determined slot, so the sorted order
// (decreasing w, then increasing (row, col)) and the returned solution are
// identical to Greedy's for any p. c must be safe for concurrent reads, as
// the Costs contract already requires.
func GreedyP(c Costs, p int) Solution {
	return GreedyWS(c, p, nil)
}

// GreedyWS is GreedyP drawing scratch (and the returned RowToCol) from ws;
// with p == 1 and a warm workspace it allocates nothing. A nil ws uses a
// private workspace.
func GreedyWS(c Costs, p int, ws *Workspace) Solution {
	if ws == nil {
		ws = &Workspace{}
	}
	if cc, ok := c.(ColumnClassed); ok {
		return greedyClassed(cc, p, ws)
	}
	return greedyDense(c, p, ws)
}

func greedyDense(c Costs, p int, ws *Workspace) Solution {
	n := c.N()
	edges := growEdges(&ws.edges, n*n)
	if p <= 1 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				edges[i*n+j] = greedyEdge{w: c.At(i, j), row: int32(i), col: int32(j)}
			}
		}
	} else {
		par.Do(n, p, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					edges[i*n+j] = greedyEdge{w: c.At(i, j), row: int32(i), col: int32(j)}
				}
			}
		})
	}
	sorted := ws.sortEdges(edges)
	rowToCol := growInts(&ws.rowToCol, n)
	for i := range rowToCol {
		rowToCol[i] = -1
	}
	colUsed := growBools(&ws.colUsed, n)
	for j := range colUsed {
		colUsed[j] = false
	}
	assigned := 0
	for _, e := range sorted {
		if assigned == n {
			break
		}
		if rowToCol[e.row] != -1 || colUsed[e.col] {
			continue
		}
		rowToCol[e.row] = int(e.col)
		colUsed[e.col] = true
		assigned++
	}
	return Solution{RowToCol: rowToCol, Value: value(c, rowToCol)}
}

func greedyClassed(c ColumnClassed, p int, ws *Workspace) Solution {
	n := c.N()
	nc := c.NumClasses()
	// Remaining capacity and, in cols, the columns of each class in
	// increasing index (class cl owns cols[colStart[cl]:colStart[cl+1]]).
	capacity := growInts(&ws.caps, nc)
	for cl := range capacity {
		capacity[cl] = 0
	}
	for j := 0; j < n; j++ {
		capacity[c.Class(j)]++
	}
	colStart := growInts(&ws.colStart, nc+1)
	colStart[0] = 0
	for cl := 0; cl < nc; cl++ {
		colStart[cl+1] = colStart[cl] + capacity[cl]
	}
	cols := growInts(&ws.cols, n)
	cursor := growInts(&ws.colNext, nc)
	copy(cursor, colStart[:nc])
	for j := 0; j < n; j++ {
		cl := c.Class(j)
		cols[cursor[cl]] = j
		cursor[cl]++
	}
	edges := growEdges(&ws.edges, n*nc)
	if p <= 1 {
		for i := 0; i < n; i++ {
			for cl := 0; cl < nc; cl++ {
				edges[i*nc+cl] = greedyEdge{w: c.AtClass(i, cl), row: int32(i), col: int32(cl)}
			}
		}
	} else {
		par.Do(n, p, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for cl := 0; cl < nc; cl++ {
					edges[i*nc+cl] = greedyEdge{w: c.AtClass(i, cl), row: int32(i), col: int32(cl)}
				}
			}
		})
	}
	sorted := ws.sortEdges(edges)
	rowToCol := growInts(&ws.rowToCol, n)
	for i := range rowToCol {
		rowToCol[i] = -1
	}
	assigned := 0
	for _, e := range sorted {
		if assigned == n {
			break
		}
		cl := int(e.col)
		if rowToCol[e.row] != -1 || capacity[cl] == 0 {
			continue
		}
		rowToCol[e.row] = cols[colStart[cl]+capacity[cl]-1]
		capacity[cl]--
		assigned++
	}
	return Solution{RowToCol: rowToCol, Value: value(c, rowToCol)}
}

// sortEdges orders candidates by decreasing weight, breaking ties by
// (row, col) so runs are deterministic. Both greedy variants fill edges in
// (row, col) order, so a stable sort on the weight alone gives that order.
// The result aliases workspace memory.
func (ws *Workspace) sortEdges(edges []greedyEdge) []greedyEdge {
	return ws.sorter.Desc(edges, func(e *greedyEdge) float64 { return e.w })
}

// BruteForce solves LSAP exactly by enumerating all n! permutations.
// It is only intended for cross-checking the other solvers in tests and
// panics for n > 10.
func BruteForce(c Costs) Solution {
	n := c.N()
	if n > 10 {
		panic(fmt.Sprintf("lsap: BruteForce limited to n <= 10, got %d", n))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := Solution{RowToCol: append([]int(nil), perm...), Value: value(c, perm)}
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			if v := value(c, perm); v > best.Value {
				best.Value = v
				copy(best.RowToCol, perm)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	return best
}
