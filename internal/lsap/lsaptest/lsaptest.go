// Package lsaptest keeps the reference solver of the parity tests of
// lsap.HungarianClassedWS: the class-collapsed Hungarian with its textbook
// inner loop, reading every profit through ColumnClassed.AtClass and
// relaxing every matched row of a saturated class. The production solver
// reads a materialized profit table and skips rows that repeat an earlier
// one; both must return the same RowToCol and a bitwise-equal Value.
package lsaptest

import (
	"errors"
	"fmt"
	"math"

	"github.com/htacs/ata/internal/lsap"
)

// HungarianClassed solves the column-class-collapsed LSAP exactly, with
// the contract of lsap.HungarianClassed: row i assigned to class Class(j)
// earns AtClass(i, Class(j)), class l accepts at most capacities[l] rows,
// and the class-level optimum is expanded to columns by giving rows in
// increasing index the lowest unused column of their class. Invalid
// capacities return an error wrapping lsap.ErrBadCapacities.
func HungarianClassed(c lsap.ColumnClassed, capacities []int) (lsap.Solution, error) {
	n, nc := c.N(), c.NumClasses()
	if len(capacities) != nc {
		return lsap.Solution{}, fmt.Errorf("%w: %d entries for %d classes", lsap.ErrBadCapacities, len(capacities), nc)
	}
	count := make([]int, nc)
	for j := 0; j < n; j++ {
		cl := c.Class(j)
		if cl < 0 || cl >= nc {
			return lsap.Solution{}, fmt.Errorf("lsaptest: column %d has class %d, want [0,%d)", j, cl, nc)
		}
		count[cl]++
	}
	sum := 0
	for cl, cp := range capacities {
		if cp < 0 || cp > count[cl] {
			return lsap.Solution{}, fmt.Errorf("%w: class %d capacity %d for %d columns",
				lsap.ErrBadCapacities, cl, cp, count[cl])
		}
		sum += cp
	}
	if sum != n {
		return lsap.Solution{}, fmt.Errorf("%w: capacities sum to %d, want %d", lsap.ErrBadCapacities, sum, n)
	}
	if n == 0 {
		return lsap.Solution{RowToCol: nil, Value: 0}, nil
	}

	// Minimize negated profits with dual potentials u (rows) and v (classes);
	// matched edges stay tight (cost − u − v = 0), unmatched stay ≥ 0.
	const inf = math.MaxFloat64
	u := make([]float64, n)
	v := make([]float64, nc)
	minv := make([]float64, nc)
	used := make([]bool, nc)
	wayClass := make([]int, nc) // previous class on the shortest alternating path (−1: the inserted row)
	wayRow := make([]int, nc)   // row traversed on the final edge into the class
	occ := make([]int, nc)      // rows currently matched to each class
	bucketStart := make([]int, nc+1)
	bucketRows := make([]int, n) // matched rows, bucketed per class
	rowSlot := make([]int, n)    // index of each matched row inside bucketRows
	rowClass := make([]int, n)   // class each row is matched to
	usedSeq := make([]int, nc)   // classes finalized this insertion, in order

	for l := 0; l < nc; l++ {
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
				return lsap.Solution{}, errors.New("lsaptest: no augmenting path (inconsistent ColumnClassed)")
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
	colStart := make([]int, nc+1)
	for l := 0; l < nc; l++ {
		colStart[l+1] = colStart[l] + count[l]
	}
	cols := make([]int, n)
	cursor := count
	copy(cursor, colStart[:nc])
	for j := 0; j < n; j++ {
		cl := c.Class(j)
		cols[cursor[cl]] = j
		cursor[cl]++
	}
	copy(cursor, colStart[:nc])
	rowToCol := make([]int, n)
	var value float64
	for i := 0; i < n; i++ {
		cl := rowClass[i]
		rowToCol[i] = cols[cursor[cl]]
		cursor[cl]++
		value += c.At(i, rowToCol[i])
	}
	return lsap.Solution{RowToCol: rowToCol, Value: value}, nil
}

// HungarianClassedCensus solves c, which must implement
// lsap.ColumnClassed, with HungarianClassed at the capacities lsap.Auto
// derives: each class takes as many rows as it has columns. It fits the
// Line-11 hook of solver.HTAWith and panics when c has no valid classes.
func HungarianClassedCensus(c lsap.Costs) lsap.Solution {
	cc, ok := c.(lsap.ColumnClassed)
	if !ok {
		panic("lsaptest: costs are not column-classed")
	}
	caps := make([]int, cc.NumClasses())
	for j := 0; j < cc.N(); j++ {
		if cl := cc.Class(j); cl >= 0 && cl < len(caps) {
			caps[cl]++
		}
	}
	sol, err := HungarianClassed(cc, caps)
	if err != nil {
		panic(err)
	}
	return sol
}
