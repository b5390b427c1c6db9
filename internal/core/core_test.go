package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/metric"
)

func mkTask(id string, n int, kw ...int) *Task {
	return &Task{ID: id, Keywords: bitset.FromIndices(n, kw...)}
}

func mkWorker(id string, alpha float64, n int, kw ...int) *Worker {
	return &Worker{ID: id, Alpha: alpha, Beta: 1 - alpha, Keywords: bitset.FromIndices(n, kw...)}
}

func testInstance(t *testing.T) *Instance {
	t.Helper()
	tasks := []*Task{
		mkTask("t0", 8, 0, 1),
		mkTask("t1", 8, 2, 3),
		mkTask("t2", 8, 0, 2),
		mkTask("t3", 8, 4, 5),
	}
	workers := []*Worker{
		mkWorker("w0", 0.5, 8, 0, 1),
		mkWorker("w1", 1.0, 8, 4),
	}
	in, err := NewInstance(tasks, workers, 2, metric.Jaccard{})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	task := mkTask("t", 4, 0)
	worker := mkWorker("w", 0.3, 4, 0)
	cases := []struct {
		name    string
		tasks   []*Task
		workers []*Worker
		xmax    int
		dist    metric.Distance
		wantSub string
	}{
		{"zero xmax", []*Task{task}, []*Worker{worker}, 0, metric.Jaccard{}, "Xmax"},
		{"nil dist", []*Task{task}, []*Worker{worker}, 1, nil, "nil distance"},
		{"nil task", []*Task{nil}, []*Worker{worker}, 1, metric.Jaccard{}, "task 0"},
		{"nil worker kw", []*Task{task}, []*Worker{{ID: "x", Alpha: 0.5, Beta: 0.5}}, 1, metric.Jaccard{}, "worker 0"},
		{"bad weights", []*Task{task}, []*Worker{{ID: "x", Alpha: 0.9, Beta: 0.9, Keywords: bitset.New(4)}}, 1, metric.Jaccard{}, "invalid weights"},
		{"dup ids", []*Task{task}, []*Worker{worker, mkWorker("w", 0.3, 4, 1)}, 1, metric.Jaccard{}, "duplicate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := NewInstance(c.tasks, c.workers, c.xmax, c.dist)
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestNormalizeWeights(t *testing.T) {
	w := &Worker{Alpha: 3, Beta: 1}
	w.NormalizeWeights()
	if math.Abs(w.Alpha-0.75) > 1e-12 || math.Abs(w.Beta-0.25) > 1e-12 {
		t.Errorf("weights = (%g,%g), want (0.75,0.25)", w.Alpha, w.Beta)
	}
	w = &Worker{Alpha: 0, Beta: 0}
	w.NormalizeWeights()
	if w.Alpha != 0.5 || w.Beta != 0.5 {
		t.Errorf("zero weights normalize to (%g,%g), want (0.5,0.5)", w.Alpha, w.Beta)
	}
	w = &Worker{Alpha: -0.2, Beta: 0.4}
	w.NormalizeWeights()
	if w.Alpha != 0 || w.Beta != 1 {
		t.Errorf("negative alpha normalizes to (%g,%g), want (0,1)", w.Alpha, w.Beta)
	}
}

func TestDiversityAndRelevance(t *testing.T) {
	in := testInstance(t)
	// t0={0,1}, t2={0,2}: |∩|=1, |∪|=3 → d = 2/3.
	if got := in.Diversity(0, 2); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("Diversity(0,2) = %g, want 2/3", got)
	}
	if got := in.Diversity(1, 1); got != 0 {
		t.Errorf("Diversity(k,k) = %g, want 0", got)
	}
	// w0={0,1} vs t0={0,1}: rel = 1.
	if got := in.Relevance(0, 0); got != 1 {
		t.Errorf("Relevance(w0,t0) = %g, want 1", got)
	}
	// w1={4} vs t3={4,5}: Jaccard = 1 - 1/2 → rel = 0.5.
	if got := in.Relevance(1, 3); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Relevance(w1,t3) = %g, want 0.5", got)
	}
}

func TestSetAggregates(t *testing.T) {
	in := testInstance(t)
	set := []int{0, 1, 2}
	wantTD := in.Diversity(0, 1) + in.Diversity(0, 2) + in.Diversity(1, 2)
	if got := in.SetDiversity(set); math.Abs(got-wantTD) > 1e-12 {
		t.Errorf("SetDiversity = %g, want %g", got, wantTD)
	}
	wantTR := in.Relevance(0, 0) + in.Relevance(0, 1) + in.Relevance(0, 2)
	if got := in.SetRelevance(0, set); math.Abs(got-wantTR) > 1e-12 {
		t.Errorf("SetRelevance = %g, want %g", got, wantTR)
	}
}

func TestMotivEquation3(t *testing.T) {
	in := testInstance(t)
	set := []int{0, 1}
	w := in.Workers[0]
	want := 2*w.Alpha*in.SetDiversity(set) + w.Beta*float64(len(set)-1)*in.SetRelevance(0, set)
	if got := in.Motiv(0, set); math.Abs(got-want) > 1e-12 {
		t.Errorf("Motiv = %g, want %g", got, want)
	}
	if got := in.Motiv(0, nil); got != 0 {
		t.Errorf("Motiv(empty) = %g, want 0", got)
	}
	// Singleton: TD = 0 and |T'|−1 = 0 → motiv = 0.
	if got := in.Motiv(0, []int{0}); got != 0 {
		t.Errorf("Motiv(singleton) = %g, want 0", got)
	}
}

func TestAssignmentValidate(t *testing.T) {
	in := testInstance(t)
	ok := &Assignment{Sets: [][]int{{0, 1}, {2, 3}}}
	if err := ok.Validate(in); err != nil {
		t.Fatalf("valid assignment rejected: %v", err)
	}
	cases := []struct {
		name string
		a    *Assignment
		sub  string
	}{
		{"wrong set count", &Assignment{Sets: [][]int{{0}}}, "sets for"},
		{"over capacity", &Assignment{Sets: [][]int{{0, 1, 2}, nil}}, "C1"},
		{"duplicate across workers", &Assignment{Sets: [][]int{{0, 1}, {1}}}, "C2"},
		{"duplicate same worker", &Assignment{Sets: [][]int{{0, 0}, nil}}, "C2"},
		{"out of range", &Assignment{Sets: [][]int{{9}, nil}}, "out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.a.Validate(in)
			if err == nil || !strings.Contains(err.Error(), c.sub) {
				t.Fatalf("err = %v, want substring %q", err, c.sub)
			}
		})
	}
}

func TestObjectiveSumsPerWorkerMotiv(t *testing.T) {
	in := testInstance(t)
	a := &Assignment{Sets: [][]int{{0, 2}, {1, 3}}}
	want := in.Motiv(0, []int{0, 2}) + in.Motiv(1, []int{1, 3})
	if got := in.Objective(a); math.Abs(got-want) > 1e-12 {
		t.Errorf("Objective = %g, want %g", got, want)
	}
}

func TestUnassignedAndCounts(t *testing.T) {
	a := &Assignment{Sets: [][]int{{0, 2}, {3}}}
	if got := a.AssignedCount(); got != 3 {
		t.Errorf("AssignedCount = %d, want 3", got)
	}
	un := a.Unassigned(5)
	if len(un) != 2 || un[0] != 1 || un[1] != 4 {
		t.Errorf("Unassigned = %v, want [1 4]", un)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := &Assignment{Sets: [][]int{{0, 1}, {2}}}
	c := a.Clone()
	c.Sets[0][0] = 9
	if a.Sets[0][0] == 9 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestNewAssignment(t *testing.T) {
	a := NewAssignment(3)
	if len(a.Sets) != 3 || a.AssignedCount() != 0 {
		t.Fatalf("NewAssignment = %+v", a)
	}
}

func TestNewCustomInstanceValidation(t *testing.T) {
	div := func(k, l int) float64 { return 0 }
	w := &Worker{ID: "w", Alpha: 0.5, Beta: 0.5}
	cases := []struct {
		name string
		call func() error
	}{
		{"zero xmax", func() error {
			_, err := NewCustomInstance(2, []*Worker{w}, 0, [][]float64{{0, 0}}, div, true)
			return err
		}},
		{"negative tasks", func() error {
			_, err := NewCustomInstance(-1, []*Worker{w}, 1, [][]float64{{}}, div, true)
			return err
		}},
		{"nil div", func() error {
			_, err := NewCustomInstance(2, []*Worker{w}, 1, [][]float64{{0, 0}}, nil, true)
			return err
		}},
		{"row count", func() error {
			_, err := NewCustomInstance(2, []*Worker{w}, 1, nil, div, true)
			return err
		}},
		{"row length", func() error {
			_, err := NewCustomInstance(2, []*Worker{w}, 1, [][]float64{{0}}, div, true)
			return err
		}},
		{"nil worker", func() error {
			_, err := NewCustomInstance(2, []*Worker{nil}, 1, [][]float64{{0, 0}}, div, true)
			return err
		}},
		{"bad weights", func() error {
			bad := &Worker{ID: "b", Alpha: 2, Beta: 2}
			_, err := NewCustomInstance(2, []*Worker{bad}, 1, [][]float64{{0, 0}}, div, true)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.call() == nil {
				t.Fatal("invalid input accepted")
			}
		})
	}
}

func TestOracleDistanceBehaviour(t *testing.T) {
	in, err := NewCustomInstance(2, []*Worker{{ID: "w", Alpha: 0.5, Beta: 0.5}}, 1,
		[][]float64{{0.1, 0.2}}, func(k, l int) float64 { return 0.5 }, false)
	if err != nil {
		t.Fatal(err)
	}
	if in.Dist.Metric() {
		t.Error("non-metric oracle reported as metric")
	}
	if in.Dist.Name() != "oracle" {
		t.Errorf("Name = %q", in.Dist.Name())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oracle Distance should panic")
		}
	}()
	in.Dist.Distance(nil, nil)
}

func TestWithUniformWeights(t *testing.T) {
	in := testInstance(t)
	div, err := in.WithUniformWeights(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for q, w := range div.Workers {
		if w.Alpha != 1 || w.Beta != 0 {
			t.Fatalf("worker %d weights (%g,%g)", q, w.Alpha, w.Beta)
		}
		// Relevance matrix is shared; values unchanged.
		if div.Relevance(q, 0) != in.Relevance(q, 0) {
			t.Fatal("relevance not shared")
		}
	}
	// The original workers are untouched.
	if in.Workers[0].Alpha == 1 && in.Workers[1].Alpha == 1 {
		t.Fatal("WithUniformWeights mutated the original")
	}
	if _, err := in.WithUniformWeights(3, 3); err == nil {
		t.Error("invalid uniform weights accepted")
	}
}

func TestPermutedValidation(t *testing.T) {
	in := testInstance(t)
	if _, err := in.Permuted([]int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := in.Permuted([]int{0, 0, 1, 2}); err == nil {
		t.Error("repeated index accepted")
	}
	if _, err := in.Permuted([]int{0, 1, 2, 9}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// TestPermutedPreservesSemantics: diversity, relevance and objectives on
// the permuted view must equal the originals under index translation.
func TestPermutedPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		in := testInstance(t)
		perm := r.Perm(in.NumTasks())
		view, err := in.Permuted(perm)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < in.NumTasks(); k++ {
			for l := 0; l < in.NumTasks(); l++ {
				if got, want := view.Diversity(k, l), in.Diversity(perm[k], perm[l]); math.Abs(got-want) > 1e-12 {
					t.Fatalf("Diversity(%d,%d) = %g, want %g", k, l, got, want)
				}
			}
			for q := range in.Workers {
				if got, want := view.Relevance(q, k), in.Relevance(q, perm[k]); got != want {
					t.Fatalf("Relevance(%d,%d) = %g, want %g", q, k, got, want)
				}
			}
		}
		// An assignment in view-coordinates maps to the same objective in
		// original coordinates.
		a := &Assignment{Sets: [][]int{{0, 1}, {2, 3}}}
		mapped := &Assignment{Sets: [][]int{
			{perm[0], perm[1]}, {perm[2], perm[3]},
		}}
		if got, want := view.Objective(a), in.Objective(mapped); math.Abs(got-want) > 1e-12 {
			t.Fatalf("objective %g != %g", got, want)
		}
	}
}

// TestPermutedOracleInstance: the permuted view of a custom-oracle
// instance must remap the diversity oracle too.
func TestPermutedOracleInstance(t *testing.T) {
	rel := [][]float64{{0.1, 0.2, 0.3}}
	div := func(k, l int) float64 {
		if k == l {
			return 0
		}
		return float64(k+l) / 10
	}
	in, err := NewCustomInstance(3, []*Worker{{ID: "w", Alpha: 0.5, Beta: 0.5}}, 2, rel, div, true)
	if err != nil {
		t.Fatal(err)
	}
	view, err := in.Permuted([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := view.Diversity(0, 1); got != div(2, 0) {
		t.Fatalf("oracle diversity = %g, want %g", got, div(2, 0))
	}
	if got := view.Relevance(0, 0); got != 0.3 {
		t.Fatalf("oracle relevance = %g, want 0.3", got)
	}
	if view.TaskClasses() != nil || in.TaskClasses() != nil {
		t.Fatal("oracle-backed instance reports task classes")
	}
}

func TestTaskClasses(t *testing.T) {
	tasks := []*Task{
		mkTask("t0", 100, 3, 70),
		mkTask("t1", 100, 1),
		mkTask("t2", 100, 70, 3), // t0's set
		mkTask("t3", 128, 3, 70), // t0's bits, another capacity
		mkTask("t4", 100),        // empty
		mkTask("t5", 100, 1),     // t1's set
		mkTask("t6", 100),        // empty
		mkTask("t7", 128, 70, 3), // t3's set
		mkTask("t8", 100, 3, 70, 99),
		mkTask("t9", 100, 99, 3, 70), // t8's set
	}
	in, err := NewInstance(tasks, []*Worker{mkWorker("w", 0.5, 100, 1)}, 2, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0, 2, 3, 1, 3, 2, 4, 4}
	got := in.TaskClasses()
	if len(got) != len(want) {
		t.Fatalf("TaskClasses = %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("TaskClasses = %v, want %v", got, want)
		}
	}
	// Tasks of one class are equally diverse from every other task.
	for k := range tasks {
		for l := range tasks {
			for m := range tasks {
				if got[k] == got[l] && m != k && m != l && in.Diversity(k, m) != in.Diversity(l, m) {
					t.Fatalf("tasks %d and %d share a class but d(·, %d) differs", k, l, m)
				}
			}
		}
	}
	perm := []int{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}
	view, err := in.Permuted(perm)
	if err != nil {
		t.Fatal(err)
	}
	vc := view.TaskClasses()
	for i := range perm {
		for j := range perm {
			if (vc[i] == vc[j]) != (got[perm[i]] == got[perm[j]]) {
				t.Fatalf("permuted view classes %v disagree with %v", vc, got)
			}
		}
	}
	if empty, _ := NewInstance(nil, nil, 1, metric.Jaccard{}); len(empty.TaskClasses()) != 0 {
		t.Fatal("instance without tasks reports classes")
	}
	// Five classes over nine tasks do not halve the task count: no
	// distance table, so no classes.
	if few, _ := NewInstance(tasks[:9], nil, 1, metric.Jaccard{}); few.TaskClasses() != nil {
		t.Fatal("instance whose classes do not halve its tasks reports classes")
	}
}

// Property: motivation is monotone under adding a task for an α=1 worker
// when every pairwise distance is positive.
func TestQuickMotivMonotoneDiversity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		tasks := make([]*Task, n)
		for i := range tasks {
			// Unique singleton keyword per task → all pairwise distances 1.
			tasks[i] = mkTask("t", n, i)
		}
		w := mkWorker("w", 1, n)
		in, err := NewInstance(tasks, []*Worker{w}, n, metric.Jaccard{})
		if err != nil {
			return false
		}
		var prev float64
		for size := 1; size <= n; size++ {
			set := make([]int, size)
			for i := range set {
				set[i] = i
			}
			m := in.Motiv(0, set)
			if m < prev {
				return false
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the objective is invariant to permuting tasks inside a set.
func TestQuickMotivOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		tasks := make([]*Task, n)
		for i := range tasks {
			kw := []int{}
			for k := 0; k < n; k++ {
				if r.Intn(2) == 0 {
					kw = append(kw, k)
				}
			}
			tasks[i] = mkTask("t", n, kw...)
		}
		w := mkWorker("w", r.Float64(), n, 0)
		in, err := NewInstance(tasks, []*Worker{w}, n, metric.Jaccard{})
		if err != nil {
			return false
		}
		set := r.Perm(n)[:2+r.Intn(n-2)]
		m1 := in.Motiv(0, set)
		shuffled := append([]int(nil), set...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m2 := in.Motiv(0, shuffled)
		return math.Abs(m1-m2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
