// Package qap implements the mapping between HTA and the Maximum Quadratic
// Assignment Problem (MAXQAP) described in Sections III-B and IV-A of the
// paper. The mapping is the backbone of both approximation algorithms and
// of the Max-SNP-hardness proof.
//
// Given an HTA instance with tasks T, workers W and capacity Xmax, define
// n = max(|T|, |W|·Xmax) vertices and three n×n matrices:
//
//   - A: adjacency matrix of |W| disjoint cliques of Xmax vertices each
//     (one clique per worker, edges weighted α_w) plus isolated vertices
//     (Equation 4);
//   - B: complete graph over tasks with edges weighted by pairwise task
//     diversity d(t_k, t_l) (Equation 5);
//   - C: linear profits c[k][l] = β_q·rel(w_q, t_k)·(Xmax−1) when column l
//     lies in worker q's clique, 0 otherwise (Equation 6; the paper's
//     "l ≤ |T|−|W|·Xmax" guard is a typo for "l ≤ |W|·Xmax", as Figure 1
//     and Example 1 show).
//
// A permutation π assigning task k to A-vertex π(k) then has MAXQAP
// objective Σ_{k≠l} a[π(k)][π(l)]·b[k][l] + Σ_k c[k][π(k)], which equals
// the HTA objective Σ_w motiv(T_w, w) of the induced assignment
// T_wq = {t_k : ⌈π(k)/Xmax⌉ = q} (Equations 7–8) whenever every worker
// receives exactly Xmax real tasks.
//
// When |T| < |W|·Xmax, Mapping pads the task side with virtual tasks at
// distance 0 from everything and relevance 0, so every solver works on a
// square problem; virtual tasks are dropped when translating back. Workers
// then receive fewer than Xmax real tasks and the equality of Equation 8
// becomes "MAXQAP objective ≥ HTA objective" because the mapping's linear
// term is normalized by (Xmax−1) while motiv uses (|T'|−1).
package qap

import (
	"fmt"

	"github.com/htacs/ata/internal/core"
)

// Mapping is the MAXQAP view of an HTA instance. It stores only O(|T| + |W|)
// state; the matrices A, B, C are exposed as functions computed on demand.
type Mapping struct {
	inst *core.Instance
	n    int // number of vertices = max(|T|, |W|·Xmax)
}

// NewMapping builds the MAXQAP view of an instance.
func NewMapping(in *core.Instance) *Mapping {
	n := in.NumTasks()
	if slots := in.NumWorkers() * in.Xmax; slots > n {
		n = slots
	}
	return &Mapping{inst: in, n: n}
}

// Instance returns the underlying HTA instance.
func (m *Mapping) Instance() *core.Instance { return m.inst }

// N returns the number of vertices of the padded square problem.
func (m *Mapping) N() int { return m.n }

// NumReal returns |T|, the number of real (non-virtual) tasks. Task indices
// ≥ NumReal() are padding.
func (m *Mapping) NumReal() int { return m.inst.NumTasks() }

// WorkerOf returns the worker owning A-vertex v, or -1 when v is isolated
// (beyond the |W|·Xmax clique block).
func (m *Mapping) WorkerOf(v int) int {
	q := v / m.inst.Xmax
	if q >= m.inst.NumWorkers() {
		return -1
	}
	return q
}

// NumClasses returns |W|+1: the A-side vertices fall into one equivalence
// class per worker clique plus one for the isolated (zero-degree) block.
// Vertices of a class are interchangeable in every solver-facing quantity
// (DegA, profits, assignment semantics), which is what lets the auxiliary
// LSAP collapse its columns — see lsap.ColumnClassed.
func (m *Mapping) NumClasses() int { return m.inst.NumWorkers() + 1 }

// ClassOf returns the column class of A-vertex v: its worker index, or
// NumWorkers for the isolated block (WorkerOf's -1).
func (m *Mapping) ClassOf(v int) int {
	if q := m.WorkerOf(v); q >= 0 {
		return q
	}
	return m.inst.NumWorkers()
}

// ClassCapacities returns the vertex count of each class — Xmax per worker
// clique and n − |W|·Xmax for the isolated block — i.e. the capacity vector
// the class-collapsed LSAP solver needs. The slice is freshly allocated.
func (m *Mapping) ClassCapacities() []int {
	numWorkers := m.inst.NumWorkers()
	caps := make([]int, numWorkers+1)
	for q := 0; q < numWorkers; q++ {
		caps[q] = m.inst.Xmax
	}
	caps[numWorkers] = m.n - numWorkers*m.inst.Xmax
	return caps
}

// A returns a[k][l] per Equation 4: α_q when k and l are distinct vertices
// of the same worker clique, 0 otherwise.
func (m *Mapping) A(k, l int) float64 {
	if k == l {
		return 0
	}
	q := m.WorkerOf(l)
	if q < 0 || m.WorkerOf(k) != q {
		return 0
	}
	return m.inst.Workers[q].Alpha
}

// B returns b[k][l] per Equation 5: the pairwise task diversity, with
// virtual (padding) tasks at distance 0 from everything.
func (m *Mapping) B(k, l int) float64 {
	real := m.NumReal()
	if k >= real || l >= real {
		return 0
	}
	return m.inst.Diversity(k, l)
}

// C returns c[k][l] per Equation 6: β_q·rel(w_q, t_k)·(Xmax−1) when column
// l belongs to worker q's clique, 0 otherwise (and 0 for virtual tasks k).
func (m *Mapping) C(k, l int) float64 {
	q := m.WorkerOf(l)
	if q < 0 || k >= m.NumReal() {
		return 0
	}
	w := m.inst.Workers[q]
	return w.Beta * m.inst.Relevance(q, k) * float64(m.inst.Xmax-1)
}

// DegA returns Σ_l a[v][l], the weighted degree of A-vertex v: for a clique
// vertex of worker q it is (Xmax−1)·α_q, for isolated vertices 0. HTA-APP
// uses it to build the auxiliary LSAP profits (Line 4 of Algorithm 1).
func (m *Mapping) DegA(v int) float64 {
	q := m.WorkerOf(v)
	if q < 0 {
		return 0
	}
	return float64(m.inst.Xmax-1) * m.inst.Workers[q].Alpha
}

// MatchedEdgeWeights returns bM, the matched-edge weight of every vertex of
// the padded problem: bM[k] = B(k, mate[k]) when real task k is matched in
// M_B, 0 for unmatched vertices and virtual padding. It is the per-task
// half of the auxiliary LSAP profits f[k][l] = bM(t_k)·degA(l) + c[k][l]
// (Lines 3–10 of Algorithm 1). mate may be shorter than N(); missing
// entries are treated as unmatched.
func (m *Mapping) MatchedEdgeWeights(mate []int) []float64 {
	bM := make([]float64, m.n)
	for k, mateK := range mate[:min(len(mate), m.NumReal())] {
		if mateK != -1 {
			bM[k] = m.inst.Diversity(k, mateK)
		}
	}
	return bM
}

// Objective evaluates the MAXQAP objective for permutation π, where π[k] is
// the A-vertex assigned to task k:
//
//	Σ_{k≠l} a[π(k)][π(l)]·b[k][l] + Σ_k c[k][π(k)]
//
// The quadratic term is accumulated per worker clique in O(|T| + Σ_q X²)
// instead of O(n²).
func (m *Mapping) Objective(perm []int) float64 {
	// Group real tasks by the worker of their assigned vertex.
	byWorker := make([][]int, m.inst.NumWorkers())
	var total float64
	for k, v := range perm {
		q := m.WorkerOf(v)
		if q < 0 {
			continue
		}
		if k < m.NumReal() {
			byWorker[q] = append(byWorker[q], k)
			total += m.C(k, v)
		}
	}
	for q, tasks := range byWorker {
		alpha := m.inst.Workers[q].Alpha
		for i := 1; i < len(tasks); i++ {
			for j := 0; j < i; j++ {
				// a[π(k)][π(l)]·b[k][l] counted for (k,l) and (l,k).
				total += 2 * alpha * m.inst.Diversity(tasks[i], tasks[j])
			}
		}
	}
	return total
}

// ObjectiveDense evaluates the MAXQAP objective by the literal double sum
// over all vertex pairs. O(n²); used by tests to validate Objective.
func (m *Mapping) ObjectiveDense(perm []int) float64 {
	var total float64
	for k := range perm {
		for l := range perm {
			if k != l {
				total += m.A(perm[k], perm[l]) * m.B(k, l)
			}
		}
		total += m.C(k, perm[k])
	}
	return total
}

// AssignmentFromPerm translates a permutation into an HTA assignment via
// Equation 7: worker q receives the real tasks whose assigned vertex lies
// in q's clique. perm must be a permutation of {0,…,N()−1} over task
// indices (π[k] = vertex of task k).
func (m *Mapping) AssignmentFromPerm(perm []int) *core.Assignment {
	a := core.NewAssignment(m.inst.NumWorkers())
	for k, v := range perm {
		if k >= m.NumReal() {
			continue
		}
		if q := m.WorkerOf(v); q >= 0 {
			a.Sets[q] = append(a.Sets[q], k)
		}
	}
	return a
}

// ExactSmall finds a permutation maximizing the MAXQAP objective by
// exhaustive enumeration over all N()! permutations. It exists to validate
// the Equation 8 equivalence against solver-side exact enumeration and
// panics for N() > 9.
func (m *Mapping) ExactSmall() ([]int, float64) {
	n := m.n
	if n > 9 {
		panic(fmt.Sprintf("qap: ExactSmall limited to N <= 9, got %d", n))
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := append([]int(nil), perm...)
	bestVal := m.Objective(perm)
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			if v := m.Objective(perm); v > bestVal {
				bestVal = v
				copy(best, perm)
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
	return best, bestVal
}

// PermFromAssignment builds a permutation consistent with Equation 7 from
// an assignment: each worker's tasks occupy that worker's clique vertices
// in order; unassigned and virtual tasks fill the remaining vertices. It is
// the inverse direction used by tests for the Equation 8 equivalence.
func (m *Mapping) PermFromAssignment(a *core.Assignment) []int {
	perm := make([]int, m.n)
	for i := range perm {
		perm[i] = -1
	}
	vertexUsed := make([]bool, m.n)
	for q, set := range a.Sets {
		base := q * m.inst.Xmax
		for i, k := range set {
			perm[k] = base + i
			vertexUsed[base+i] = true
		}
	}
	// Fill unassigned tasks (and virtual padding) with the free vertices.
	free := make([]int, 0, m.n)
	for v := 0; v < m.n; v++ {
		if !vertexUsed[v] {
			free = append(free, v)
		}
	}
	// Prefer isolated vertices for unassigned tasks so they do not leak
	// into worker cliques; isolated vertices sort last, so walk free from
	// the back.
	fi := len(free) - 1
	for k := range perm {
		if perm[k] == -1 {
			perm[k] = free[fi]
			fi--
		}
	}
	return perm
}
