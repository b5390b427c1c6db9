package qap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/metric"
)

// tableIInstance reproduces Example 1 of the paper: 2 workers, 8 tasks,
// Xmax = 3, α_w1 = 0.2, β_w1 = 0.8, α_w2 = 0.6, β_w2 = 0.3, and the
// relevance values of Table I. Diversities are only needed for Example 3
// and are prescribed there.
func tableIInstance(t *testing.T, div func(k, l int) float64) *core.Instance {
	t.Helper()
	if div == nil {
		div = func(k, l int) float64 { return 0 }
	}
	rel := [][]float64{
		{0.28, 0.25, 0.2, 0.43, 0.67, 0.4, 0, 0.4},
		{0.3, 0, 0.2, 0.25, 0.25, 0, 0, 0.4},
	}
	workers := []*core.Worker{
		{ID: "w1", Alpha: 0.2, Beta: 0.8},
		{ID: "w2", Alpha: 0.6, Beta: 0.3},
	}
	in, err := core.NewCustomInstance(8, workers, 3, rel, div, true)
	if err != nil {
		t.Fatalf("NewCustomInstance: %v", err)
	}
	return in
}

// TestTableIMatrices checks matrices A and C against Figure 1.
func TestTableIMatrices(t *testing.T) {
	in := tableIInstance(t, nil)
	m := NewMapping(in)
	if m.N() != 8 {
		t.Fatalf("N = %d, want 8 (|T| = 8 >= |W|·Xmax = 6)", m.N())
	}

	// Figure 1, matrix A: two 3×3 blocks with off-diagonal 0.2 and 0.6.
	for k := 0; k < 8; k++ {
		for l := 0; l < 8; l++ {
			var want float64
			switch {
			case k == l:
				want = 0
			case k < 3 && l < 3:
				want = 0.2
			case k >= 3 && k < 6 && l >= 3 && l < 6:
				want = 0.6
			}
			if got := m.A(k, l); math.Abs(got-want) > 1e-12 {
				t.Errorf("A[%d][%d] = %g, want %g", k, l, got, want)
			}
		}
	}

	// Figure 1, matrix C: first worker's columns carry 2·0.8·rel(w1,t_k),
	// second worker's 2·0.3·rel(w2,t_k), remaining columns 0. The paper
	// calls out c_{1,1} = (Xmax−1)·β_w1·rel(w1,t1) = 2×0.8×0.28.
	if got := m.C(0, 0); math.Abs(got-2*0.8*0.28) > 1e-12 {
		t.Errorf("C[0][0] = %g, want %g", got, 2*0.8*0.28)
	}
	for k := 0; k < 8; k++ {
		for l := 0; l < 8; l++ {
			var want float64
			switch {
			case l < 3:
				want = 2 * 0.8 * in.Relevance(0, k)
			case l < 6:
				want = 2 * 0.3 * in.Relevance(1, k)
			}
			if got := m.C(k, l); math.Abs(got-want) > 1e-12 {
				t.Errorf("C[%d][%d] = %g, want %g", k, l, got, want)
			}
		}
	}
}

// TestExample2Translation follows Example 2: π swaps tasks 1 and 4
// (1-based) and is identity elsewhere; worker w1 receives {t4, t2, t3},
// worker w2 {t1, t5, t6}, and t7, t8 stay unassigned.
func TestExample2Translation(t *testing.T) {
	in := tableIInstance(t, nil)
	m := NewMapping(in)
	perm := []int{3, 1, 2, 0, 4, 5, 6, 7} // 0-based: π(0)=3, π(3)=0, rest identity
	a := m.AssignmentFromPerm(perm)
	if err := a.Validate(in); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantW1 := map[int]bool{3: true, 1: true, 2: true}
	wantW2 := map[int]bool{0: true, 4: true, 5: true}
	if len(a.Sets[0]) != 3 || len(a.Sets[1]) != 3 {
		t.Fatalf("sets = %v", a.Sets)
	}
	for _, k := range a.Sets[0] {
		if !wantW1[k] {
			t.Errorf("w1 got unexpected task %d (sets %v)", k, a.Sets)
		}
	}
	for _, k := range a.Sets[1] {
		if !wantW2[k] {
			t.Errorf("w2 got unexpected task %d (sets %v)", k, a.Sets)
		}
	}
	un := a.Unassigned(8)
	if len(un) != 2 || un[0] != 6 || un[1] != 7 {
		t.Errorf("unassigned = %v, want [6 7]", un)
	}
}

func keywordInstance(t *testing.T, r *rand.Rand, numTasks, numWorkers, xmax, universe int) *core.Instance {
	t.Helper()
	tasks := make([]*core.Task, numTasks)
	for i := range tasks {
		kw := bitset.New(universe)
		for k := 0; k < universe; k++ {
			if r.Intn(4) == 0 {
				kw.Add(k)
			}
		}
		tasks[i] = &core.Task{ID: "t", Keywords: kw}
	}
	workers := make([]*core.Worker, numWorkers)
	for q := range workers {
		kw := bitset.New(universe)
		for k := 0; k < universe; k++ {
			if r.Intn(4) == 0 {
				kw.Add(k)
			}
		}
		alpha := r.Float64()
		workers[q] = &core.Worker{ID: "w" + string(rune('a'+q)), Alpha: alpha, Beta: 1 - alpha, Keywords: kw}
	}
	in, err := core.NewInstance(tasks, workers, xmax, metric.Jaccard{})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

// TestEquation8 verifies that the HTA objective of the translated
// assignment equals the MAXQAP objective of the permutation whenever every
// worker ends up with exactly Xmax tasks (|T| >= |W|·Xmax, full slots).
func TestEquation8(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		numWorkers := 1 + r.Intn(3)
		xmax := 2 + r.Intn(3)
		numTasks := numWorkers*xmax + r.Intn(4)
		in := keywordInstance(t, r, numTasks, numWorkers, xmax, 12)
		m := NewMapping(in)
		perm := r.Perm(m.N())
		hta := in.Objective(m.AssignmentFromPerm(perm))
		qapObj := m.Objective(perm)
		if math.Abs(hta-qapObj) > 1e-9 {
			t.Fatalf("trial %d: HTA objective %g != MAXQAP objective %g", trial, hta, qapObj)
		}
	}
}

// TestObjectiveMatchesDense cross-checks the clique-grouped objective
// against the literal O(n²) double sum.
func TestObjectiveMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		numWorkers := 1 + r.Intn(3)
		xmax := 2 + r.Intn(3)
		numTasks := 2 + r.Intn(numWorkers*xmax+4)
		in := keywordInstance(t, r, numTasks, numWorkers, xmax, 10)
		m := NewMapping(in)
		perm := r.Perm(m.N())
		fast, dense := m.Objective(perm), m.ObjectiveDense(perm)
		if math.Abs(fast-dense) > 1e-9 {
			t.Fatalf("trial %d: Objective %g != ObjectiveDense %g", trial, fast, dense)
		}
	}
}

// TestPaddingWhenFewTasks checks the virtual-task padding: with fewer tasks
// than slots, N() grows to |W|·Xmax, padding has zero B and C, and
// translated assignments never contain virtual tasks.
func TestPaddingWhenFewTasks(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := keywordInstance(t, r, 4, 2, 3, 10) // 4 tasks, 6 slots
	m := NewMapping(in)
	if m.N() != 6 {
		t.Fatalf("N = %d, want 6", m.N())
	}
	if m.NumReal() != 4 {
		t.Fatalf("NumReal = %d, want 4", m.NumReal())
	}
	for l := 0; l < 6; l++ {
		if m.B(4, l) != 0 || m.B(l, 5) != 0 {
			t.Fatalf("virtual task has nonzero diversity")
		}
		if m.C(5, l) != 0 {
			t.Fatalf("virtual task has nonzero relevance profit")
		}
	}
	perm := r.Perm(6)
	a := m.AssignmentFromPerm(perm)
	if err := a.Validate(in); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, set := range a.Sets {
		for _, k := range set {
			if k >= 4 {
				t.Fatalf("virtual task %d leaked into assignment %v", k, a.Sets)
			}
		}
	}
}

func TestWorkerOfAndDegA(t *testing.T) {
	in := tableIInstance(t, nil)
	m := NewMapping(in)
	cases := []struct {
		v, worker int
		degA      float64
	}{
		{0, 0, 2 * 0.2}, {2, 0, 2 * 0.2},
		{3, 1, 2 * 0.6}, {5, 1, 2 * 0.6},
		{6, -1, 0}, {7, -1, 0},
	}
	for _, c := range cases {
		if got := m.WorkerOf(c.v); got != c.worker {
			t.Errorf("WorkerOf(%d) = %d, want %d", c.v, got, c.worker)
		}
		if got := m.DegA(c.v); math.Abs(got-c.degA) > 1e-12 {
			t.Errorf("DegA(%d) = %g, want %g", c.v, got, c.degA)
		}
	}
}

// TestClassMetadata: the column-class view of the A side — one class per
// worker clique plus the isolated block — matches WorkerOf vertex by
// vertex, and the capacities are the class sizes the collapsed LSAP needs.
func TestClassMetadata(t *testing.T) {
	in := tableIInstance(t, nil)
	m := NewMapping(in) // 8 tasks, 2 workers × Xmax 3 → n = 8, isolated 2
	if got, want := m.NumClasses(), 3; got != want {
		t.Fatalf("NumClasses = %d, want %d", got, want)
	}
	caps := m.ClassCapacities()
	if len(caps) != 3 || caps[0] != 3 || caps[1] != 3 || caps[2] != 2 {
		t.Fatalf("ClassCapacities = %v, want [3 3 2]", caps)
	}
	sum := 0
	for v := 0; v < m.N(); v++ {
		cl := m.ClassOf(v)
		if w := m.WorkerOf(v); w >= 0 {
			if cl != w {
				t.Errorf("ClassOf(%d) = %d, want worker %d", v, cl, w)
			}
		} else if cl != in.NumWorkers() {
			t.Errorf("ClassOf(%d) = %d, want isolated class %d", v, cl, in.NumWorkers())
		}
	}
	counts := make([]int, m.NumClasses())
	for v := 0; v < m.N(); v++ {
		counts[m.ClassOf(v)]++
	}
	for l, c := range counts {
		if c != caps[l] {
			t.Errorf("class %d has %d vertices, capacity says %d", l, c, caps[l])
		}
		sum += c
	}
	if sum != m.N() {
		t.Errorf("class sizes sum to %d, want n = %d", sum, m.N())
	}
}

// TestPermRoundTrip: translating a full assignment to a permutation and
// back must reproduce the assignment (as sets).
func TestPermRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		numWorkers := 1 + r.Intn(3)
		xmax := 2 + r.Intn(3)
		numTasks := numWorkers*xmax + r.Intn(5)
		in := keywordInstance(t, r, numTasks, numWorkers, xmax, 10)
		m := NewMapping(in)
		// Build a full random assignment.
		perm := r.Perm(numTasks)
		a := core.NewAssignment(numWorkers)
		idx := 0
		for q := 0; q < numWorkers; q++ {
			for x := 0; x < xmax; x++ {
				a.Sets[q] = append(a.Sets[q], perm[idx])
				idx++
			}
		}
		back := m.AssignmentFromPerm(m.PermFromAssignment(a))
		for q := range a.Sets {
			if !sameSet(a.Sets[q], back.Sets[q]) {
				t.Fatalf("trial %d worker %d: %v -> %v", trial, q, a.Sets[q], back.Sets[q])
			}
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

// TestExactQAPEqualsExactHTA is the deepest Equation 8 check: for full
// instances (|T| = |W|·Xmax, every task assigned by an optimal solution),
// the optimal MAXQAP permutation value must equal the optimal HTA
// objective found by assignment-side enumeration.
func TestExactQAPEqualsExactHTA(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 15; trial++ {
		numWorkers := 1 + r.Intn(2)
		xmax := 2 + r.Intn(2)
		numTasks := numWorkers * xmax
		if numTasks > 8 {
			continue
		}
		in := keywordInstance(t, r, numTasks, numWorkers, xmax, 10)
		m := NewMapping(in)
		_, qapOpt := m.ExactSmall()

		// Assignment-side exhaustive optimum: every task to some worker or
		// unassigned, capacity-respecting.
		htaOpt := exactHTA(in)
		if math.Abs(qapOpt-htaOpt) > 1e-9 {
			t.Fatalf("trial %d: exact MAXQAP %g != exact HTA %g", trial, qapOpt, htaOpt)
		}
	}
}

// exactHTA enumerates assignments directly (the same search solver.Exact
// performs, re-implemented locally to keep this package free of a solver
// dependency).
func exactHTA(in *core.Instance) float64 {
	numTasks, numWorkers := in.NumTasks(), in.NumWorkers()
	choice := make([]int, numTasks)
	load := make([]int, numWorkers)
	best := math.Inf(-1)
	var recurse func(k int)
	recurse = func(k int) {
		if k == numTasks {
			a := core.NewAssignment(numWorkers)
			for t, q := range choice {
				if q < numWorkers {
					a.Sets[q] = append(a.Sets[q], t)
				}
			}
			if v := in.Objective(a); v > best {
				best = v
			}
			return
		}
		for q := 0; q <= numWorkers; q++ {
			if q < numWorkers {
				if load[q] == in.Xmax {
					continue
				}
				load[q]++
			}
			choice[k] = q
			recurse(k + 1)
			if q < numWorkers {
				load[q]--
			}
		}
	}
	recurse(0)
	return best
}

func TestExactSmallPanicsOnLargeN(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	in := keywordInstance(t, r, 12, 2, 5, 10)
	m := NewMapping(in)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ExactSmall()
}

// Property: the MAXQAP objective never changes when two tasks assigned to
// the same worker swap their A-vertices.
func TestQuickObjectiveSwapInvariantWithinClique(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numWorkers := 1 + r.Intn(2)
		xmax := 2 + r.Intn(2)
		numTasks := numWorkers*xmax + r.Intn(3)
		tsk := make([]*core.Task, numTasks)
		for i := range tsk {
			kw := bitset.New(8)
			for k := 0; k < 8; k++ {
				if r.Intn(2) == 0 {
					kw.Add(k)
				}
			}
			tsk[i] = &core.Task{Keywords: kw}
		}
		ws := make([]*core.Worker, numWorkers)
		for q := range ws {
			alpha := r.Float64()
			ws[q] = &core.Worker{Alpha: alpha, Beta: 1 - alpha, Keywords: bitset.FromIndices(8, 0)}
		}
		in, err := core.NewInstance(tsk, ws, xmax, metric.Jaccard{})
		if err != nil {
			return false
		}
		m := NewMapping(in)
		perm := r.Perm(m.N())
		before := m.Objective(perm)
		// Find two tasks in the same clique and swap their vertices.
		for k := 0; k < len(perm); k++ {
			for l := k + 1; l < len(perm); l++ {
				qk, ql := m.WorkerOf(perm[k]), m.WorkerOf(perm[l])
				if qk >= 0 && qk == ql {
					perm[k], perm[l] = perm[l], perm[k]
					after := m.Objective(perm)
					return math.Abs(before-after) < 1e-9
				}
			}
		}
		return true // no same-clique pair; vacuously fine
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchedEdgeWeights checks bM against its definition — B(k,
// mate[k]) for matched real tasks, 0 elsewhere — including mate slices
// shorter than N().
func TestMatchedEdgeWeights(t *testing.T) {
	div := func(k, l int) float64 {
		if k == l {
			return 0
		}
		return float64(k*7+l*3) / 100
	}
	in := tableIInstance(t, func(k, l int) float64 { return div(min(k, l), max(k, l)) })
	m := NewMapping(in)
	r := rand.New(rand.NewSource(101))

	for trial := 0; trial < 20; trial++ {
		mateLen := r.Intn(m.N() + 1)
		mate := make([]int, mateLen)
		for k := range mate {
			if r.Intn(3) == 0 {
				mate[k] = -1
			} else {
				mate[k] = r.Intn(m.NumReal())
			}
		}
		want := make([]float64, m.N())
		for k := 0; k < m.NumReal() && k < len(mate); k++ {
			if mate[k] != -1 {
				want[k] = m.Instance().Diversity(k, mate[k])
			}
		}
		got := m.MatchedEdgeWeights(mate)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: bM[%d] = %v, want %v", trial, k, got[k], want[k])
			}
		}
	}
}
