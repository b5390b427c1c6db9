// Package core defines the data model of motivation-aware task assignment:
// tasks, workers, HTA problem instances, the motivation objective of
// Equation 3, and assignments with the paper's feasibility constraints
// C1 (per-worker capacity Xmax) and C2 (disjointness).
//
// An Instance is immutable once built; solvers read it concurrently.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/matching"
	"github.com/htacs/ata/internal/metric"
)

// Task is a unit of crowd work described by a Boolean keyword vector
// (Section II). Group links tasks crawled/generated from the same task
// group; Reward is the micro-payment in dollars. Deadline, when non-zero,
// is the absolute UnixNano instant after which the task is worthless:
// streaming buffers expire it rather than assign it. Zero means the task
// never expires (every pre-deadline workload). The engine only ever
// compares deadlines against a caller-supplied clock, so deterministic
// replays can drive time explicitly.
type Task struct {
	ID       string
	Group    string
	Reward   float64
	Keywords *bitset.Set
	Deadline int64
}

// Worker is a crowd worker with expressed keyword interests and motivation
// weights α (task diversity) and β (task relevance), α+β = 1 (Equation 3).
type Worker struct {
	ID       string
	Keywords *bitset.Set
	Alpha    float64
	Beta     float64
}

// NormalizeWeights clamps Alpha and Beta to [0,1] and rescales them to sum
// to 1. If both are zero it splits evenly, matching the neutral prior used
// by the adaptive engine before any observation.
func (w *Worker) NormalizeWeights() {
	a := math.Max(0, w.Alpha)
	b := math.Max(0, w.Beta)
	if a+b == 0 {
		w.Alpha, w.Beta = 0.5, 0.5
		return
	}
	w.Alpha, w.Beta = a/(a+b), b/(a+b)
}

// Instance is one HTA problem: the tasks and workers available at an
// iteration, the capacity Xmax, and the diversity distance.
//
// Under the paper's model (Equations 1–3) diversity and relevance depend
// only on keyword sets, and AMT-style corpora repeat one keyword set over a
// whole task group. So the instance numbers its tasks' keyword classes once
// and keeps every per-task quantity per class: a |W|×C relevance table and,
// when the classes pay for it, a packed C×C distance table.
type Instance struct {
	Tasks   []*Task
	Workers []*Worker
	Xmax    int
	Dist    metric.Distance

	class []int     // class[k]: the keyword class of task k
	nc    int       // number of classes C
	rel   []float64 // rel[q*nc+c] = rel(class c, w_q)
	// div[classPair(a, b)] = d(class a, class b), diagonal included; nil
	// when there is no distance table and Diversity computes on the fly.
	div   []float64
	divFn func(a, b int) float64 // oracle over classes (NewCustomInstance); nil → keyword bitsets
}

// classPair is the packed lower-triangular offset of class pair (a, b),
// diagonal included.
func classPair(a, b int) int {
	if a < b {
		a, b = b, a
	}
	return a*(a+1)/2 + b
}

// ErrNonMetric is wrapped into errors returned when a caller requests an
// approximation guarantee but the configured distance is not a metric.
var ErrNonMetric = errors.New("distance is not a metric; approximation factors do not hold")

// NewInstance validates and builds an Instance. It numbers the tasks'
// keyword classes and fills the |W|×C relevance table, one relevance per
// (worker, class). When the classes at least halve the task count and
// their C(C+1)/2 pairs fit matching.DefaultEdgeListLimit, it also fills
// the packed C×C distance table; otherwise diversities stay on demand (the
// |T|² matrix would not fit for the paper's 10k-task experiments).
func NewInstance(tasks []*Task, workers []*Worker, xmax int, dist metric.Distance) (*Instance, error) {
	if xmax < 1 {
		return nil, fmt.Errorf("core: Xmax = %d, must be >= 1", xmax)
	}
	if dist == nil {
		return nil, errors.New("core: nil distance")
	}
	for i, t := range tasks {
		if t == nil || t.Keywords == nil {
			return nil, fmt.Errorf("core: task %d is nil or has nil keywords", i)
		}
	}
	seen := make(map[string]bool, len(workers))
	for i, w := range workers {
		if w == nil || w.Keywords == nil {
			return nil, fmt.Errorf("core: worker %d is nil or has nil keywords", i)
		}
		if w.ID != "" && seen[w.ID] {
			return nil, fmt.Errorf("core: duplicate worker id %q", w.ID)
		}
		seen[w.ID] = true
		if err := checkWeights(w); err != nil {
			return nil, err
		}
	}
	class, reps := keywordClasses(tasks)
	nc := len(reps)
	rel := make([]float64, len(workers)*nc)
	for q, w := range workers {
		for c, s := range reps {
			rel[q*nc+c] = metric.Relevance(dist, s, w.Keywords)
		}
	}
	inst := &Instance{Tasks: tasks, Workers: workers, Xmax: xmax, Dist: dist, class: class, nc: nc, rel: rel}
	if nc <= len(tasks)/2 && nc*(nc+1)/2 <= matching.DefaultEdgeListLimit {
		inst.div = make([]float64, nc*(nc+1)/2)
		for a := range reps {
			for b := 0; b <= a; b++ {
				inst.div[classPair(a, b)] = dist.Distance(reps[a], reps[b])
			}
		}
	}
	return inst, nil
}

// keywordClasses numbers the tasks' keyword sets 0, 1, … by first
// appearance: tasks whose sets are equal, in bits and in capacity, share a
// class. It returns each task's class and each class's keyword set.
func keywordClasses(tasks []*Task) (class []int, reps []*bitset.Set) {
	class = make([]int, len(tasks))
	heads := make(map[uint64]int) // keyword hash → latest class with it
	var next []int                // next[c]: earlier class with c's hash, or -1
	for k, t := range tasks {
		s := t.Keywords
		h := s.Hash()
		head, ok := heads[h]
		if !ok {
			head = -1
		}
		c := head
		for c >= 0 && !(reps[c].Len() == s.Len() && reps[c].Equal(s)) {
			c = next[c]
		}
		if c < 0 {
			c = len(reps)
			reps = append(reps, s)
			next = append(next, head)
			heads[h] = c
		}
		class[k] = c
	}
	return class, reps
}

// checkWeights validates a worker's motivation weights. The paper's model
// fixes α+β = 1 (Equation 3), but its own worked example (Example 1 uses
// α=0.6, β=0.3 for w2) relaxes that, and nothing in the algorithms needs
// the equality — so we accept α, β ≥ 0 with α+β ∈ (0, 1].
func checkWeights(w *Worker) error {
	if w.Alpha < -1e-9 || w.Beta < -1e-9 || w.Alpha+w.Beta > 1+1e-6 || w.Alpha+w.Beta <= 0 {
		return fmt.Errorf("core: worker %q has invalid weights α=%g β=%g (need α,β ≥ 0, 0 < α+β ≤ 1)",
			w.ID, w.Alpha, w.Beta)
	}
	return nil
}

// NewCustomInstance builds an instance whose relevance and diversity come
// from explicit oracles instead of keyword vectors: rel[q][k] gives
// rel(t_k, w_q) and div(k, l) the pairwise diversity. It serves worked
// examples from the paper (Table I prescribes relevances directly) and
// platforms where these quantities are measured externally. div must be
// symmetric with div(k,k) = 0; if metricDiv is false the instance reports a
// non-metric distance and solvers lose their approximation guarantees.
// Each task is its own class, since the oracle may tell any two tasks
// apart, so the instance has no distance table.
func NewCustomInstance(numTasks int, workers []*Worker, xmax int, rel [][]float64, div func(k, l int) float64, metricDiv bool) (*Instance, error) {
	if xmax < 1 {
		return nil, fmt.Errorf("core: Xmax = %d, must be >= 1", xmax)
	}
	if numTasks < 0 {
		return nil, fmt.Errorf("core: numTasks = %d", numTasks)
	}
	if div == nil {
		return nil, errors.New("core: nil diversity oracle")
	}
	if len(rel) != len(workers) {
		return nil, fmt.Errorf("core: relevance table has %d rows for %d workers", len(rel), len(workers))
	}
	for q, w := range workers {
		if w == nil {
			return nil, fmt.Errorf("core: worker %d is nil", q)
		}
		if err := checkWeights(w); err != nil {
			return nil, err
		}
		if len(rel[q]) != numTasks {
			return nil, fmt.Errorf("core: relevance row %d has %d entries for %d tasks", q, len(rel[q]), numTasks)
		}
	}
	tasks := make([]*Task, numTasks)
	class := make([]int, numTasks)
	for k := range tasks {
		tasks[k] = &Task{ID: fmt.Sprintf("t%d", k)}
		class[k] = k
	}
	relTable := make([]float64, 0, len(rel)*numTasks)
	for _, row := range rel {
		relTable = append(relTable, row...)
	}
	return &Instance{
		Tasks:   tasks,
		Workers: workers,
		Xmax:    xmax,
		Dist:    oracleDistance{metric: metricDiv},
		class:   class,
		nc:      numTasks,
		rel:     relTable,
		divFn:   div,
	}, nil
}

// oracleDistance stands in for Instance.Dist when diversity comes from an
// explicit oracle; it only answers Metric() and Name().
type oracleDistance struct{ metric bool }

func (oracleDistance) Distance(a, b *bitset.Set) float64 {
	panic("core: oracle-backed instance has no keyword distance")
}
func (d oracleDistance) Metric() bool { return d.metric }
func (oracleDistance) Name() string   { return "oracle" }

// WithUniformWeights returns a copy of the instance whose workers all carry
// weights (alpha, beta), sharing everything else, the class tables
// included. It backs the paper's non-adaptive baselines HTA-GRE-DIV (α=1,
// β=0) and HTA-GRE-REL (α=0, β=1) from Section V-C.
func (in *Instance) WithUniformWeights(alpha, beta float64) (*Instance, error) {
	probe := &Worker{ID: "probe", Alpha: alpha, Beta: beta}
	if err := checkWeights(probe); err != nil {
		return nil, err
	}
	workers := make([]*Worker, len(in.Workers))
	for q, w := range in.Workers {
		clone := *w
		clone.Alpha, clone.Beta = alpha, beta
		workers[q] = &clone
	}
	out := *in
	out.Workers = workers
	return &out, nil
}

// Permuted returns a view of the instance whose task index i refers to the
// receiver's task perm[i]; workers, weights, Xmax and the class tables are
// shared, and only the class vector is permuted. Solvers use a random
// permutation to break ties: corpora contain many tasks with identical
// keyword vectors (AMT task groups), and with a deterministic index order
// the LSAP's tied profits pack same-group tasks into a single worker's
// clique, collapsing its diversity.
func (in *Instance) Permuted(perm []int) (*Instance, error) {
	n := in.NumTasks()
	if len(perm) != n {
		return nil, fmt.Errorf("core: permutation of length %d for %d tasks", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("core: invalid permutation")
		}
		seen[p] = true
	}
	out := *in
	out.Tasks = make([]*Task, n)
	out.class = make([]int, n)
	for i, p := range perm {
		out.Tasks[i] = in.Tasks[p]
		out.class[i] = in.class[p]
	}
	return &out, nil
}

// NumTasks returns |T^i|.
func (in *Instance) NumTasks() int { return len(in.Tasks) }

// NumWorkers returns |W^i|.
func (in *Instance) NumWorkers() int { return len(in.Workers) }

// Diversity returns the pairwise task diversity d(t_k, t_l): from the
// distance table when the instance has one, otherwise computed on demand
// from the diversity oracle or the keyword bitsets.
func (in *Instance) Diversity(k, l int) float64 {
	if k == l {
		return 0
	}
	if in.div != nil {
		return in.div[classPair(in.class[k], in.class[l])]
	}
	if in.divFn != nil {
		return in.divFn(in.class[k], in.class[l])
	}
	return in.Dist.Distance(in.Tasks[k].Keywords, in.Tasks[l].Keywords)
}

// TaskClasses returns each task's keyword class when the instance has a
// distance table, and nil otherwise: when the classes do not halve the
// task count, when their pairs exceed matching.DefaultEdgeListLimit, and
// for oracle-backed instances (NewCustomInstance), whose diversity oracle
// may tell any two tasks apart. Tasks whose keyword sets are equal, in bits
// and in capacity, share a class, so the diversity of two distinct tasks
// depends on their classes alone. Classes are numbered by first appearance
// in the instance NewInstance built; a Permuted view keeps those numbers.
// The returned slice is shared; callers must not modify it.
func (in *Instance) TaskClasses() []int {
	if in.div == nil {
		return nil
	}
	return in.class
}

// Relevance returns rel(t_k, w_q) from the relevance table.
func (in *Instance) Relevance(q, k int) float64 { return in.rel[q*in.nc+in.class[k]] }

// SetDiversity returns TD(T') = Σ_{k>l} d(t_k, t_l) over the given task
// indices (Equation 1).
func (in *Instance) SetDiversity(taskIdx []int) float64 {
	var td float64
	for i := 1; i < len(taskIdx); i++ {
		for j := 0; j < i; j++ {
			td += in.Diversity(taskIdx[i], taskIdx[j])
		}
	}
	return td
}

// SetRelevance returns TR(T', w_q) = Σ_{t∈T'} rel(t, w_q) (Equation 2).
func (in *Instance) SetRelevance(q int, taskIdx []int) float64 {
	var tr float64
	for _, k := range taskIdx {
		tr += in.Relevance(q, k)
	}
	return tr
}

// Motiv returns the expected motivation of worker q for the task set
// (Equation 3):
//
//	motiv(T', w) = 2·α_w·TD(T') + β_w·(|T'|−1)·TR(T', w)
//
// The factors 2 and (|T'|−1) normalize the quadratic and linear parts so
// that neither dominates purely by the number of terms.
func (in *Instance) Motiv(q int, taskIdx []int) float64 {
	if len(taskIdx) == 0 {
		return 0
	}
	w := in.Workers[q]
	return 2*w.Alpha*in.SetDiversity(taskIdx) +
		w.Beta*float64(len(taskIdx)-1)*in.SetRelevance(q, taskIdx)
}

// Assignment maps each worker index to the task indices assigned to it.
// Sets[q] lists the tasks of worker q; tasks absent from every set are
// unassigned (the problem allows |T| > |W|·Xmax).
type Assignment struct {
	Sets [][]int
}

// NewAssignment returns an Assignment with one empty set per worker.
func NewAssignment(numWorkers int) *Assignment {
	return &Assignment{Sets: make([][]int, numWorkers)}
}

// Validate checks the structural constraints of Problem 1 against the
// instance: one set per worker, task indices in range, C1 (|T_w| ≤ Xmax)
// and C2 (pairwise disjointness, each task at most once overall).
func (a *Assignment) Validate(in *Instance) error {
	if len(a.Sets) != in.NumWorkers() {
		return fmt.Errorf("core: assignment has %d sets for %d workers", len(a.Sets), in.NumWorkers())
	}
	used := make(map[int]int, in.NumTasks()) // task -> worker
	for q, set := range a.Sets {
		if len(set) > in.Xmax {
			return fmt.Errorf("core: C1 violated: worker %d has %d tasks > Xmax=%d", q, len(set), in.Xmax)
		}
		for _, k := range set {
			if k < 0 || k >= in.NumTasks() {
				return fmt.Errorf("core: task index %d out of range [0,%d)", k, in.NumTasks())
			}
			if prev, dup := used[k]; dup {
				return fmt.Errorf("core: C2 violated: task %d assigned to workers %d and %d", k, prev, q)
			}
			used[k] = q
		}
	}
	return nil
}

// Objective returns Σ_w motiv(T_w, w), the HTA objective (Problem 1).
func (in *Instance) Objective(a *Assignment) float64 {
	var total float64
	for q, set := range a.Sets {
		total += in.Motiv(q, set)
	}
	return total
}

// AssignedCount returns the total number of assigned tasks.
func (a *Assignment) AssignedCount() int {
	n := 0
	for _, s := range a.Sets {
		n += len(s)
	}
	return n
}

// Unassigned returns the indices of tasks not assigned to any worker,
// in increasing order.
func (a *Assignment) Unassigned(numTasks int) []int {
	used := make([]bool, numTasks)
	for _, s := range a.Sets {
		for _, k := range s {
			if k >= 0 && k < numTasks {
				used[k] = true
			}
		}
	}
	var out []int
	for k, u := range used {
		if !u {
			out = append(out, k)
		}
	}
	return out
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{Sets: make([][]int, len(a.Sets))}
	for q, s := range a.Sets {
		c.Sets[q] = append([]int(nil), s...)
	}
	return c
}
