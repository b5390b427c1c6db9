// Package metric provides the distance functions used to measure task
// diversity and task relevance (Section II of the paper).
//
// The paper's approximation guarantees require the pairwise task distance
// d(·,·) to be a metric — in particular to satisfy the triangle inequality
// (Section IV). Jaccard distance on keyword sets is the paper's default and
// is a metric; the package also offers normalized Hamming and Euclidean
// distances over indicator vectors, and (as a documented non-metric
// counterexample, useful for tests) the Dice distance. VerifyMetric can
// empirically check metric properties of any Distance on a sample.
package metric

import (
	"fmt"
	"math"

	"github.com/htacs/ata/internal/bitset"
)

// Distance measures dissimilarity between two keyword sets in [0, 1].
type Distance interface {
	// Distance returns d(a, b) ∈ [0, 1].
	Distance(a, b *bitset.Set) float64
	// Metric reports whether the function is a true metric (satisfies the
	// triangle inequality). The HTA approximation factors only hold for
	// metric distances; solvers consult this to warn callers.
	Metric() bool
	// Name identifies the distance for logs and experiment output.
	Name() string
}

// Jaccard is the paper's default distance: d(a,b) = 1 − |a∩b| / |a∪b|.
// Two empty sets are at distance 0 by convention. Jaccard distance is a
// metric (Besicovitch 1926, cited as [19] in the paper).
type Jaccard struct{}

// Distance implements Distance.
func (Jaccard) Distance(a, b *bitset.Set) float64 {
	union := a.UnionCount(b)
	if union == 0 {
		return 0
	}
	return 1 - float64(a.IntersectionCount(b))/float64(union)
}

// Metric implements Distance. Jaccard distance satisfies the triangle
// inequality, so this is true.
func (Jaccard) Metric() bool { return true }

// Name implements Distance.
func (Jaccard) Name() string { return "jaccard" }

// Hamming is the normalized Hamming distance |a △ b| / R over indicator
// vectors of capacity R. It is a metric (it is the L1 distance scaled by a
// constant). Sets must share the same capacity.
type Hamming struct{}

// Distance implements Distance.
func (Hamming) Distance(a, b *bitset.Set) float64 {
	n := a.Len()
	if b.Len() != n {
		panic(fmt.Sprintf("metric: Hamming over mismatched capacities %d and %d", n, b.Len()))
	}
	if n == 0 {
		return 0
	}
	return float64(a.SymmetricDifferenceCount(b)) / float64(n)
}

// Metric implements Distance.
func (Hamming) Metric() bool { return true }

// Name implements Distance.
func (Hamming) Name() string { return "hamming" }

// Euclidean is the normalized Euclidean distance between indicator vectors:
// sqrt(|a △ b|) / sqrt(R). For 0/1 vectors the squared L2 distance equals the
// Hamming distance, so this is sqrt(Hamming); it is a metric.
type Euclidean struct{}

// Distance implements Distance.
func (Euclidean) Distance(a, b *bitset.Set) float64 {
	n := a.Len()
	if b.Len() != n {
		panic(fmt.Sprintf("metric: Euclidean over mismatched capacities %d and %d", n, b.Len()))
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(float64(a.SymmetricDifferenceCount(b)) / float64(n))
}

// Metric implements Distance.
func (Euclidean) Metric() bool { return true }

// Name implements Distance.
func (Euclidean) Name() string { return "euclidean" }

// Dice is the Sørensen–Dice distance 1 − 2|a∩b| / (|a|+|b|). It is NOT a
// metric (it violates the triangle inequality), and is included to let tests
// and experiments demonstrate that the solvers detect non-metric distances.
type Dice struct{}

// Distance implements Distance.
func (Dice) Distance(a, b *bitset.Set) float64 {
	den := a.Count() + b.Count()
	if den == 0 {
		return 0
	}
	return 1 - 2*float64(a.IntersectionCount(b))/float64(den)
}

// Metric implements Distance. Dice distance violates the triangle
// inequality, so this is false.
func (Dice) Metric() bool { return false }

// Name implements Distance.
func (Dice) Name() string { return "dice" }

// ByName returns the built-in distance with the given Name.
func ByName(name string) (Distance, error) {
	switch name {
	case "jaccard":
		return Jaccard{}, nil
	case "hamming":
		return Hamming{}, nil
	case "euclidean":
		return Euclidean{}, nil
	case "dice":
		return Dice{}, nil
	case "cosine":
		return Cosine{}, nil
	}
	return nil, fmt.Errorf("metric: unknown distance %q", name)
}

// Violation describes a detected breach of a metric axiom.
type Violation struct {
	Axiom   string // "symmetry", "identity", "triangle", "range"
	Detail  string
	A, B, C int // indices into the sample that exhibit the breach (C = -1 if unused)
}

func (v Violation) String() string {
	return fmt.Sprintf("%s violated at (%d,%d,%d): %s", v.Axiom, v.A, v.B, v.C, v.Detail)
}

// VerifyMetric exhaustively checks the metric axioms of d over the sample:
// d ∈ [0,1], d(x,x) = 0, symmetry, and the triangle inequality, with
// tolerance eps for floating-point slack. It returns the first violation
// found, or nil if the sample exhibits none. Cost is O(n³) in the sample
// size; intended for tests and preflight validation of custom distances.
func VerifyMetric(d Distance, sample []*bitset.Set, eps float64) *Violation {
	n := len(sample)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = d.Distance(sample[i], sample[j])
		}
	}
	for i := 0; i < n; i++ {
		if dist[i][i] > eps {
			return &Violation{Axiom: "identity", Detail: fmt.Sprintf("d(x,x) = %g", dist[i][i]), A: i, B: i, C: -1}
		}
		for j := 0; j < n; j++ {
			if dist[i][j] < -eps || dist[i][j] > 1+eps {
				return &Violation{Axiom: "range", Detail: fmt.Sprintf("d = %g outside [0,1]", dist[i][j]), A: i, B: j, C: -1}
			}
			if math.Abs(dist[i][j]-dist[j][i]) > eps {
				return &Violation{Axiom: "symmetry", Detail: fmt.Sprintf("d(a,b)=%g d(b,a)=%g", dist[i][j], dist[j][i]), A: i, B: j, C: -1}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if dist[i][k] > dist[i][j]+dist[j][k]+eps {
					return &Violation{
						Axiom:  "triangle",
						Detail: fmt.Sprintf("d(i,k)=%g > d(i,j)+d(j,k)=%g", dist[i][k], dist[i][j]+dist[j][k]),
						A:      i, B: j, C: k,
					}
				}
			}
		}
	}
	return nil
}

// Relevance returns rel(t, w) = 1 − d(t, w): how well a task's keyword
// requirements match a worker's expressed interests (Section II).
func Relevance(d Distance, task, worker *bitset.Set) float64 {
	return 1 - d.Distance(task, worker)
}
