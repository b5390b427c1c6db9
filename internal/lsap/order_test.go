package lsap

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/htacs/ata/internal/radix/radixtest"
)

// cmpEdges is the comparator sortEdges sorted by before the radix sort:
// heavier first, ties by (row, col). It is the reference the radix order
// is checked against.
func cmpEdges(a, b greedyEdge) int {
	switch {
	case a.w > b.w:
		return -1
	case a.w < b.w:
		return 1
	case a.row != b.row:
		return int(a.row) - int(b.row)
	default:
		return int(a.col) - int(b.col)
	}
}

// refGreedyDense is the greedy LSAP over every (row, col) edge in cmpEdges
// order.
func refGreedyDense(c Costs) []int {
	n := c.N()
	var edges []greedyEdge
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			edges = append(edges, greedyEdge{w: c.At(i, j), row: int32(i), col: int32(j)})
		}
	}
	slices.SortFunc(edges, cmpEdges)
	rowToCol := make([]int, n)
	for i := range rowToCol {
		rowToCol[i] = -1
	}
	colUsed := make([]bool, n)
	for _, e := range edges {
		if rowToCol[e.row] == -1 && !colUsed[e.col] {
			rowToCol[e.row] = int(e.col)
			colUsed[e.col] = true
		}
	}
	return rowToCol
}

// TestSortEdgesMatchesComparator: on every weight distribution, negative
// profits included, the radix order of a (row, col)-ordered candidate list
// is the cmpEdges order, for dense (n×n) and classed (n×3) shapes, and the
// dense greedy assignment equals the reference one. One workspace serves
// every call, as in the adaptive loop.
func TestSortEdgesMatchesComparator(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	ws := NewWorkspace()
	for _, c := range radixtest.Cases {
		for _, n := range []int{0, 1, 2, 3, 12} {
			for _, cols := range []int{n, 3} {
				edges := make([]greedyEdge, 0, n*cols)
				for i := 0; i < n; i++ {
					for j := 0; j < cols; j++ {
						edges = append(edges, greedyEdge{w: c.Draw(r), row: int32(i), col: int32(j)})
					}
				}
				want := slices.Clone(edges)
				slices.SortFunc(want, cmpEdges)
				got := ws.sortEdges(edges)
				for k := range want {
					if got[k].row != want[k].row || got[k].col != want[k].col ||
						math.Float64bits(got[k].w) != math.Float64bits(want[k].w) {
						t.Fatalf("%s %d×%d: edge %d is %+v, want %+v", c.Name, n, cols, k, got[k], want[k])
					}
				}
			}
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, n)
				for j := range rows[i] {
					rows[i][j] = c.Draw(r)
				}
			}
			d := NewDense(rows)
			if got, want := GreedyWS(d, ws).RowToCol, refGreedyDense(d); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: GreedyWS %v, reference %v", c.Name, n, got, want)
			}
		}
	}
}
