// Class-collapsed exact LSAP (the PR-2 tentpole). The HTA auxiliary matrix
// f[k][l] = bM(t_k)·degA(l) + c[k][l] has only |W|+1 distinct column
// classes, so the n×n assignment problem collapses to a capacitated
// assignment on an n×(|W|+1) profit matrix: class l may receive at most
// cap[l] rows (Xmax per worker clique, n−|W|·Xmax for the isolated class).
// HungarianClassed solves that collapsed problem exactly by successive
// shortest augmenting paths over class nodes carrying multiplicity,
// dropping HTA-APP's Line-11 cost from O(|T|³) to O(|T|²·|W|); Auto
// dispatches between it and the dense Hungarian.
package lsap

import (
	"errors"
	"fmt"
	"math"

	"github.com/htacs/ata/internal/radix"
)

// Workspace holds the reusable scratch buffers of every solver in this
// package (Hungarian, HungarianClassed, Greedy and the Auto dispatcher).
// Passing the same Workspace to successive solves of same-sized problems
// eliminates all per-call allocations — the adaptive engine holds one
// across iterations for exactly that reason.
//
// A Workspace is not safe for concurrent use, and the RowToCol slice of a
// Solution returned by a *WS solver aliases workspace memory: it is valid
// only until the next solve through the same Workspace (copy it to retain).
// The zero value is ready to use.
type Workspace struct {
	// Shared float scratch: dual potentials and shortest-path labels.
	u, v, minv []float64
	// Dense Hungarian state.
	p, way []int
	used   []bool
	// Classed Hungarian state.
	wayClass, wayRow             []int
	occ, bucketStart, bucketRows []int
	rowSlot, rowClass, usedSeq   []int
	// Column-class census shared by greedyClassed, HungarianClassed and Auto.
	caps, colStart, colNext, cols []int
	autoCaps                      []int
	// Greedy state.
	edges   []greedyEdge
	sorter  radix.Sorter[greedyEdge]
	colUsed []bool
	// Result buffer returned (aliased) as Solution.RowToCol.
	rowToCol []int
}

// NewWorkspace returns an empty Workspace. Equivalent to &Workspace{};
// provided for discoverability.
func NewWorkspace() *Workspace { return &Workspace{} }

// growFloats returns *buf resized to length n, reallocating only when the
// capacity is insufficient. Contents are unspecified; callers initialize.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growEdges(buf *[]greedyEdge, n int) []greedyEdge {
	if cap(*buf) < n {
		*buf = make([]greedyEdge, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Block is an explicit ColumnClassed Costs: column j carries class
// classOf[j] and the profit of (row i, class c) is profit[i][c]. It is the
// reference implementation of the interface for tests and benchmarks; the
// solver package's auxiliary HTA costs implement the same shape implicitly.
type Block struct {
	n, nc   int
	classOf []int
	profit  []float64 // row-major n×nc
}

// NewBlock builds a Block over len(classOf) columns. Every class in
// classOf must lie in [0, nc) where nc = len(profits[0]), and profits must
// be an n×nc matrix.
func NewBlock(classOf []int, profits [][]float64) *Block {
	n := len(classOf)
	if len(profits) != n {
		panic(fmt.Sprintf("lsap: %d profit rows for %d columns", len(profits), n))
	}
	nc := 0
	if n > 0 {
		nc = len(profits[0])
	}
	b := &Block{n: n, nc: nc, classOf: append([]int(nil), classOf...), profit: make([]float64, n*nc)}
	for j, cl := range classOf {
		if cl < 0 || cl >= nc {
			panic(fmt.Sprintf("lsap: column %d has class %d, want [0,%d)", j, cl, nc))
		}
	}
	for i, row := range profits {
		if len(row) != nc {
			panic(fmt.Sprintf("lsap: profit row %d has %d entries, want %d", i, len(row), nc))
		}
		copy(b.profit[i*nc:(i+1)*nc], row)
	}
	return b
}

// N implements Costs.
func (b *Block) N() int { return b.n }

// At implements Costs.
func (b *Block) At(i, j int) float64 { return b.profit[i*b.nc+b.classOf[j]] }

// NumClasses implements ColumnClassed.
func (b *Block) NumClasses() int { return b.nc }

// Class implements ColumnClassed.
func (b *Block) Class(j int) int { return b.classOf[j] }

// AtClass implements ColumnClassed.
func (b *Block) AtClass(i, c int) float64 { return b.profit[i*b.nc+c] }

var _ ColumnClassed = (*Block)(nil)

// ErrBadCapacities wraps every capacity-vector validation failure returned
// by HungarianClassed: wrong length, negative entries, a class capacity
// exceeding its column count, or capacities not summing to N().
var ErrBadCapacities = errors.New("lsap: invalid class capacities")

// HungarianClassed solves the column-class-collapsed LSAP exactly
// (maximization): row i assigned to class Class(j) earns AtClass(i, Class(j)),
// and class l accepts at most capacities[l] rows. Capacities must match the
// column structure — capacities[l] ≤ #{j : Class(j) = l} with Σ capacities =
// N() (zero-capacity classes are fine) — or ErrBadCapacities is returned.
//
// The solver is the successive-shortest-augmenting-path Kuhn–Munkres of
// Hungarian run over class nodes carrying multiplicity: one dual per class,
// augmenting paths relax through every row matched to a saturated class.
// Each of the n row insertions costs O(n·numClasses), for O(n²·numClasses)
// total — at HTA's |W|+1 classes, an |T|/|W| speedup over the dense O(n³).
//
// The class-level optimum is expanded to concrete columns deterministically:
// rows in increasing index take the lowest unused column of their class, so
// equal inputs yield equal Solutions. The expansion never changes the value
// — all columns of a class are interchangeable by definition.
func HungarianClassed(c ColumnClassed, capacities []int) (Solution, error) {
	return HungarianClassedWS(c, capacities, nil)
}

// HungarianClassedWS is HungarianClassed drawing scratch (and the returned
// RowToCol) from ws; steady-state solves of same-shaped problems allocate
// nothing. A nil ws uses a private workspace. capacities is read-only.
func HungarianClassedWS(c ColumnClassed, capacities []int, ws *Workspace) (Solution, error) {
	n, nc := c.N(), c.NumClasses()
	if len(capacities) != nc {
		return Solution{}, fmt.Errorf("%w: %d entries for %d classes", ErrBadCapacities, len(capacities), nc)
	}
	if ws == nil {
		ws = &Workspace{}
	}
	// Census the columns per class and validate the capacity vector.
	count := growInts(&ws.colNext, nc)
	for cl := range count {
		count[cl] = 0
	}
	for j := 0; j < n; j++ {
		cl := c.Class(j)
		if cl < 0 || cl >= nc {
			return Solution{}, fmt.Errorf("lsap: column %d has class %d, want [0,%d)", j, cl, nc)
		}
		count[cl]++
	}
	sum := 0
	for cl, cp := range capacities {
		switch {
		case cp < 0:
			return Solution{}, fmt.Errorf("%w: class %d capacity %d < 0", ErrBadCapacities, cl, cp)
		case cp > count[cl]:
			return Solution{}, fmt.Errorf("%w: class %d capacity %d exceeds its %d columns",
				ErrBadCapacities, cl, cp, count[cl])
		}
		sum += cp
	}
	if sum != n {
		return Solution{}, fmt.Errorf("%w: capacities sum to %d, want %d", ErrBadCapacities, sum, n)
	}
	if n == 0 {
		return Solution{RowToCol: nil, Value: 0}, nil
	}

	// Minimize negated profits with dual potentials u (rows) and v (classes);
	// matched edges stay tight (cost − u − v = 0), unmatched stay ≥ 0.
	const inf = math.MaxFloat64
	u := growFloats(&ws.u, n)
	v := growFloats(&ws.v, nc)
	minv := growFloats(&ws.minv, nc)
	used := growBools(&ws.used, nc)
	wayClass := growInts(&ws.wayClass, nc) // previous class on the shortest alternating path (−1: the inserted row)
	wayRow := growInts(&ws.wayRow, nc)     // row traversed on the final edge into the class
	occ := growInts(&ws.occ, nc)           // rows currently matched to each class
	bucketStart := growInts(&ws.bucketStart, nc+1)
	bucketRows := growInts(&ws.bucketRows, n) // matched rows, bucketed per class
	rowSlot := growInts(&ws.rowSlot, n)       // index of each matched row inside bucketRows
	rowClass := growInts(&ws.rowClass, n)     // class each row is matched to
	usedSeq := growInts(&ws.usedSeq, nc)      // classes finalized this insertion, in order

	for i := 0; i < n; i++ {
		u[i] = 0
	}
	bucketStart[0] = 0
	for l := 0; l < nc; l++ {
		v[l], occ[l] = 0, 0
		bucketStart[l+1] = bucketStart[l] + capacities[l]
	}

	for r := 0; r < n; r++ {
		for l := 0; l < nc; l++ {
			minv[l] = inf
			used[l] = false
		}
		nUsed := 0
		j0 := -1 // −1 is the virtual source holding row r
		for {
			// Scan: relax the edges leaving the rows attached to j0. A used
			// class contributes all its matched rows; matched edges are tight
			// under the current duals, so traversing them backwards is free.
			if j0 < 0 {
				for l := 0; l < nc; l++ {
					if used[l] {
						continue
					}
					if cur := -c.AtClass(r, l) - u[r] - v[l]; cur < minv[l] {
						minv[l] = cur
						wayClass[l] = j0
						wayRow[l] = r
					}
				}
			} else {
				used[j0] = true
				usedSeq[nUsed] = j0
				nUsed++
				for s := bucketStart[j0]; s < bucketStart[j0]+occ[j0]; s++ {
					i := bucketRows[s]
					for l := 0; l < nc; l++ {
						if used[l] {
							continue
						}
						if cur := -c.AtClass(i, l) - u[i] - v[l]; cur < minv[l] {
							minv[l] = cur
							wayClass[l] = j0
							wayRow[l] = i
						}
					}
				}
			}
			delta := inf
			j1 := -1
			for l := 0; l < nc; l++ {
				if !used[l] && minv[l] < delta {
					delta = minv[l]
					j1 = l
				}
			}
			if j1 < 0 {
				// Unreachable once capacities validate: the used classes are
				// all saturated, so Σ capacities would undercount the rows.
				return Solution{}, errors.New("lsap: no augmenting path (inconsistent ColumnClassed)")
			}
			// Dual update keeping matched edges tight and shifting the
			// pending labels into the new dual frame.
			u[r] += delta
			for s := 0; s < nUsed; s++ {
				l := usedSeq[s]
				v[l] -= delta
				for t := bucketStart[l]; t < bucketStart[l]+occ[l]; t++ {
					u[bucketRows[t]] += delta
				}
			}
			for l := 0; l < nc; l++ {
				if !used[l] {
					minv[l] -= delta
				}
			}
			j0 = j1
			if occ[j0] < capacities[j0] {
				break
			}
		}
		// Augment along the way links: each traversed row leaves its class
		// for the next one on the path; the inserted row takes the first.
		for {
			i, prev := wayRow[j0], wayClass[j0]
			if prev >= 0 {
				s := rowSlot[i]
				last := bucketStart[prev] + occ[prev] - 1
				bucketRows[s] = bucketRows[last]
				rowSlot[bucketRows[s]] = s
				occ[prev]--
			}
			slot := bucketStart[j0] + occ[j0]
			bucketRows[slot] = i
			rowSlot[i] = slot
			rowClass[i] = j0
			occ[j0]++
			if prev < 0 {
				break
			}
			j0 = prev
		}
	}

	// Expand the class-level matching to concrete columns: rows in
	// increasing index take the lowest unused column of their class.
	colStart := growInts(&ws.colStart, nc+1)
	cols := growInts(&ws.cols, n)
	colStart[0] = 0
	for l := 0; l < nc; l++ {
		colStart[l+1] = colStart[l] + count[l]
	}
	cursor := count // count is no longer needed; reuse as the fill cursor
	copy(cursor, colStart[:nc])
	for j := 0; j < n; j++ {
		cl := c.Class(j)
		cols[cursor[cl]] = j
		cursor[cl]++
	}
	copy(cursor, colStart[:nc])
	rowToCol := growInts(&ws.rowToCol, n)
	for i := 0; i < n; i++ {
		cl := rowClass[i]
		rowToCol[i] = cols[cursor[cl]]
		cursor[cl]++
	}
	return Solution{RowToCol: rowToCol, Value: value(c, rowToCol)}, nil
}

// Auto solves LSAP exactly, dispatching on structure: costs exposing
// ColumnClassed with enough column duplication to pay off (2·NumClasses ≤ N)
// go through HungarianClassed on the collapsed n×NumClasses matrix with
// capacities derived from the column census; everything else falls back to
// the dense Hungarian. Both paths are exact, so the returned Value is the
// LSAP optimum either way — only tie-breaking among equal-value optima may
// differ. p is accepted for signature parity with GreedyP (the exact
// solvers are sequential; pipeline parallelism applies around them).
func Auto(c Costs, p int) Solution {
	return AutoWS(c, p, nil)
}

// AutoWS is Auto drawing scratch from ws (see HungarianClassedWS and
// HungarianWS for the aliasing contract). A nil ws uses a private workspace.
func AutoWS(c Costs, p int, ws *Workspace) Solution {
	_ = p
	if cc, ok := c.(ColumnClassed); ok {
		if n, nc := cc.N(), cc.NumClasses(); nc > 0 && 2*nc <= n {
			if ws == nil {
				ws = &Workspace{}
			}
			caps := growInts(&ws.autoCaps, nc)
			for l := range caps {
				caps[l] = 0
			}
			valid := true
			for j := 0; j < n; j++ {
				cl := cc.Class(j)
				if cl < 0 || cl >= nc {
					valid = false
					break
				}
				caps[cl]++
			}
			if valid {
				if sol, err := HungarianClassedWS(cc, caps, ws); err == nil {
					return sol
				}
			}
		}
	}
	return HungarianWS(c, ws)
}
