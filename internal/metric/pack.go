package metric

import (
	"fmt"
	"math"

	"github.com/htacs/ata/internal/bitset"
)

// PackDistancer is implemented by distances that can score one set against
// every member of a bitset.Pack in a single flat-memory sweep. It is the
// row primitive behind the streaming engine's incremental gain cache: one
// DistancePack call prices a task against every keyword class of the
// buffer (or a worker's whole active set) without per-pair interface
// dispatch or pointer chasing.
//
// Implementations MUST produce bit-identical values to calling Distance
// against the *Set each member was appended from — the gain cache stores
// these rows and the cached-vs-recomputed equality property test holds the
// two paths to exact equality.
type PackDistancer interface {
	Distance
	// DistancePack stores d(from, pack[i]) into out[i] for every i.
	// len(out) must be >= pack.Len().
	DistancePack(from *bitset.Set, pack *bitset.Pack, out []float64)
}

// DistancePack implements PackDistancer: one flat intersection walk, then
// unions by the exact integer identity |a∪b| = |a|+|b|−|a∩b| over the
// pack's cached popcounts — the same integers the two-pass count
// produces, so the resulting floats are bit-identical to Distance.
func (Jaccard) DistancePack(from *bitset.Set, pack *bitset.Pack, out []float64) {
	pack.IntersectionCountsRow(from, out)
	fo := from.Count()
	for i, n := 0, pack.Len(); i < n; i++ {
		inter := int(out[i])
		union := fo + pack.OnesAt(i) - inter
		if union == 0 {
			out[i] = 0
			continue
		}
		out[i] = 1 - float64(inter)/float64(union)
	}
}

// DistancePack implements PackDistancer: symmetric differences via
// |a△b| = |a|+|b|−2|a∩b| over one intersection walk. Capacity mismatches
// panic exactly as the pairwise path does.
func (Hamming) DistancePack(from *bitset.Set, pack *bitset.Pack, out []float64) {
	n := from.Len()
	pack.IntersectionCountsRow(from, out)
	fo := from.Count()
	for i, m := 0, pack.Len(); i < m; i++ {
		if pack.LenAt(i) != n {
			panic(fmt.Sprintf("metric: Hamming over mismatched capacities %d and %d", pack.LenAt(i), n))
		}
		if n == 0 {
			out[i] = 0
			continue
		}
		out[i] = float64(fo+pack.OnesAt(i)-2*int(out[i])) / float64(n)
	}
}

// DistancePack implements PackDistancer. Capacity mismatches panic exactly
// as the pairwise path does.
func (e Euclidean) DistancePack(from *bitset.Set, pack *bitset.Pack, out []float64) {
	n := from.Len()
	pack.IntersectionCountsRow(from, out)
	fo := from.Count()
	for i, m := 0, pack.Len(); i < m; i++ {
		if pack.LenAt(i) != n {
			panic(fmt.Sprintf("metric: Euclidean over mismatched capacities %d and %d", pack.LenAt(i), n))
		}
		if n == 0 {
			out[i] = 0
			continue
		}
		out[i] = math.Sqrt(float64(fo+pack.OnesAt(i)-2*int(out[i])) / float64(n))
	}
}

// Row fills out[i] = d(from, pack[i]), preferring the PackDistancer kernel
// and falling back to pairwise Distance calls over sets(i) for distances
// without pack support (sets(i) must return the *Set member i was appended
// from). Both paths are bit-identical by contract, so callers may cache
// rows from either and interchange them with direct Distance calls.
func Row(d Distance, from *bitset.Set, pack *bitset.Pack, sets func(i int) *bitset.Set, out []float64) {
	if pd, ok := d.(PackDistancer); ok {
		pd.DistancePack(from, pack, out)
		return
	}
	for i, n := 0, pack.Len(); i < n; i++ {
		out[i] = d.Distance(from, sets(i))
	}
}
