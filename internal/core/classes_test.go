package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/metric"
)

var classTestDists = []metric.Distance{metric.Jaccard{}, metric.Hamming{}, metric.Euclidean{}, metric.Dice{}}

// randSet returns a random keyword set over the universe.
func randSet(r *rand.Rand, universe int) *bitset.Set {
	s := bitset.New(universe)
	for k := 0; k < universe; k++ {
		if r.Intn(3) == 0 {
			s.Add(k)
		}
	}
	return s
}

// classTasks returns numTasks tasks, each a fresh copy of one of the
// templates, or, with probability freshPct/100, a fresh random set.
func classTasks(r *rand.Rand, numTasks, templates, freshPct, universe int) []*Task {
	tmpl := make([]*bitset.Set, templates)
	for i := range tmpl {
		tmpl[i] = randSet(r, universe)
	}
	tasks := make([]*Task, numTasks)
	for k := range tasks {
		kw := randSet(r, universe)
		if r.Intn(100) >= freshPct {
			kw = tmpl[r.Intn(templates)].Clone()
		}
		tasks[k] = &Task{ID: fmt.Sprintf("t%d", k), Keywords: kw}
	}
	return tasks
}

func classWorkers(r *rand.Rand, numWorkers, universe int) []*Worker {
	workers := make([]*Worker, numWorkers)
	for q := range workers {
		a := r.Float64()
		workers[q] = &Worker{ID: fmt.Sprintf("w%d", q), Alpha: a, Beta: 1 - a, Keywords: randSet(r, universe)}
	}
	return workers
}

// numKeywordClasses counts the distinct keyword sets among the tasks.
func numKeywordClasses(tasks []*Task) int {
	seen := map[string]bool{}
	for _, t := range tasks {
		seen[fmt.Sprint(t.Keywords.Len(), t.Keywords.Indices())] = true
	}
	return len(seen)
}

// reference gives the values an instance must return: the diversity and
// relevance of its task indices computed directly.
type reference struct {
	div func(k, l int) float64
	rel func(q, k int) float64
}

// keywordReference computes straight from the instance's keyword sets.
func keywordReference(in *Instance) reference {
	return reference{
		div: func(k, l int) float64 {
			if k == l {
				return 0
			}
			return in.Dist.Distance(in.Tasks[k].Keywords, in.Tasks[l].Keywords)
		},
		rel: func(q, k int) float64 {
			return metric.Relevance(in.Dist, in.Tasks[k].Keywords, in.Workers[q].Keywords)
		},
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkReads compares Diversity, Relevance, SetDiversity and Motiv against
// the reference, bit for bit, on every pair, worker and some task sets.
func checkReads(t *testing.T, name string, r *rand.Rand, in *Instance, want reference) {
	t.Helper()
	n := in.NumTasks()
	for k := 0; k < n; k++ {
		for l := 0; l < n; l++ {
			if got, w := in.Diversity(k, l), want.div(k, l); !sameFloat(got, w) {
				t.Fatalf("%s: Diversity(%d,%d) = %v, want %v", name, k, l, got, w)
			}
		}
		for q := range in.Workers {
			if got, w := in.Relevance(q, k), want.rel(q, k); !sameFloat(got, w) {
				t.Fatalf("%s: Relevance(%d,%d) = %v, want %v", name, q, k, got, w)
			}
		}
	}
	for trial := 0; trial < 8 && n > 0; trial++ {
		set := make([]int, r.Intn(6))
		for i := range set {
			set[i] = r.Intn(n) // repeats included: d(t, t) = 0
		}
		var td float64
		for i := 1; i < len(set); i++ {
			for j := 0; j < i; j++ {
				td += want.div(set[i], set[j])
			}
		}
		if got := in.SetDiversity(set); !sameFloat(got, td) {
			t.Fatalf("%s: SetDiversity(%v) = %v, want %v", name, set, got, td)
		}
		for q, w := range in.Workers {
			var tr float64
			for _, k := range set {
				tr += want.rel(q, k)
			}
			if got := in.SetRelevance(q, set); !sameFloat(got, tr) {
				t.Fatalf("%s: SetRelevance(%d, %v) = %v, want %v", name, q, set, got, tr)
			}
			motiv := 0.0
			if len(set) > 0 {
				motiv = 2*w.Alpha*td + w.Beta*float64(len(set)-1)*tr
			}
			if got := in.Motiv(q, set); !sameFloat(got, motiv) {
				t.Fatalf("%s: Motiv(%d, %v) = %v, want %v", name, q, set, got, motiv)
			}
		}
	}
}

// checkClasses checks TaskClasses: equal classes exactly for equal keyword
// sets when the instance has a table, nil when it has none.
func checkClasses(t *testing.T, name string, in *Instance, wantTable bool) {
	t.Helper()
	classes := in.TaskClasses()
	if (classes != nil) != wantTable {
		t.Fatalf("%s: TaskClasses = %v, want a class vector = %v", name, classes, wantTable)
	}
	if classes == nil {
		return
	}
	if len(classes) != in.NumTasks() {
		t.Fatalf("%s: %d classes for %d tasks", name, len(classes), in.NumTasks())
	}
	for k := range classes {
		for l := range classes {
			a, b := in.Tasks[k].Keywords, in.Tasks[l].Keywords
			if same := a.Len() == b.Len() && a.Equal(b); (classes[k] == classes[l]) != same {
				t.Fatalf("%s: tasks %d and %d: same class %v, equal keywords %v", name, k, l, classes[k] == classes[l], same)
			}
		}
	}
}

// checkInstanceViews checks a keyword instance, its twice-nested permuted
// view and its uniform-weights copy.
func checkInstanceViews(t *testing.T, name string, r *rand.Rand, in *Instance, wantTable bool) {
	t.Helper()
	checkClasses(t, name, in, wantTable)
	checkReads(t, name, r, in, keywordReference(in))
	n := in.NumTasks()
	view, err := in.Permuted(r.Perm(n))
	if err != nil {
		t.Fatal(err)
	}
	view, err = view.Permuted(r.Perm(n))
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, name+"/permuted", view, wantTable)
	checkReads(t, name+"/permuted", r, view, keywordReference(view))
	uniform, err := view.WithUniformWeights(0.3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	checkClasses(t, name+"/uniform", uniform, wantTable)
	checkReads(t, name+"/uniform", r, uniform, keywordReference(uniform))
}

// checkCustomInstance checks an oracle instance with n tasks and its
// nested permuted views against the oracle and the relevance rows.
func checkCustomInstance(t *testing.T, r *rand.Rand, n int) {
	t.Helper()
	div := func(k, l int) float64 {
		if k == l {
			return 0
		}
		return float64((k+1)*(l+1)%7) / 7
	}
	workers := classWorkers(r, 2, 4)
	rel := make([][]float64, len(workers))
	want := make([][]float64, len(workers))
	for q := range rel {
		rel[q] = make([]float64, n)
		for k := range rel[q] {
			rel[q][k] = r.Float64()
		}
		want[q] = append([]float64(nil), rel[q]...)
	}
	in, err := NewCustomInstance(n, workers, 2, rel, div, true)
	if err != nil {
		t.Fatal(err)
	}
	for q := range rel {
		for k := range rel[q] {
			rel[q][k] = -1 // the instance keeps its own copy
		}
	}
	orig := make([]int, n) // task index of the view → the oracle's index
	for k := range orig {
		orig[k] = k
	}
	for depth := 0; depth < 3; depth++ {
		name := fmt.Sprintf("oracle n=%d depth=%d", n, depth)
		if in.TaskClasses() != nil {
			t.Fatalf("%s: oracle instance reports task classes", name)
		}
		o := orig
		checkReads(t, name, r, in, reference{
			div: func(k, l int) float64 { return div(o[k], o[l]) },
			rel: func(q, k int) float64 { return want[q][o[k]] },
		})
		perm := r.Perm(n)
		next := make([]int, n)
		for i, p := range perm {
			next[i] = orig[p]
		}
		if in, err = in.Permuted(perm); err != nil {
			t.Fatal(err)
		}
		orig = next
	}
}

// checkClassInstances builds instances from one draw of templates and
// checks them all: the draw as is; 2C tasks over C classes, the most that
// still gets a distance table; and 2C−1 tasks, just past the halving rule,
// which gets none.
func checkClassInstances(t *testing.T, r *rand.Rand, dist metric.Distance, numTasks, templates, freshPct, universe int) {
	t.Helper()
	tasks := classTasks(r, numTasks, templates, freshPct, universe)
	workers := classWorkers(r, 1+r.Intn(3), universe)
	name := fmt.Sprintf("%s n=%d templates=%d fresh=%d%% universe=%d", dist.Name(), numTasks, templates, freshPct, universe)
	in, err := NewInstance(tasks, workers, 2, dist)
	if err != nil {
		t.Fatal(err)
	}
	nc := numKeywordClasses(tasks)
	checkInstanceViews(t, name, r, in, nc <= numTasks/2)

	// One member of every class, then copies of the first class's set.
	var distinct []*Task
	seen := map[string]bool{}
	for _, t := range tasks {
		if key := fmt.Sprint(t.Keywords.Indices()); !seen[key] {
			seen[key] = true
			distinct = append(distinct, t)
		}
	}
	if len(distinct) == 0 {
		return
	}
	edge := append([]*Task(nil), distinct...)
	for len(edge) < 2*len(distinct) {
		edge = append(edge, &Task{Keywords: distinct[0].Keywords.Clone()})
	}
	for _, c := range []struct {
		tasks []*Task
		table bool
	}{{edge, true}, {edge[:len(edge)-1], false}} {
		in, err := NewInstance(c.tasks, workers, 2, dist)
		if err != nil {
			t.Fatal(err)
		}
		checkInstanceViews(t, fmt.Sprintf("%s tasks=%d classes=%d", name, len(c.tasks), len(distinct)), r, in, c.table)
	}
}

// TestInstanceClassTables: every read of an instance — Diversity,
// Relevance, SetDiversity, SetRelevance and Motiv — equals, bit for bit,
// the value computed straight from Dist.Distance and metric.Relevance, on
// instances with and without a distance table, on their nested permuted
// views and uniform-weights copies, and on oracle instances.
func TestInstanceClassTables(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dist := range classTestDists {
		for templates := 1; templates <= 6; templates++ {
			for _, numTasks := range []int{0, 1, 2, 7, 24, 60} {
				for _, freshPct := range []int{0, 10, 50} {
					checkClassInstances(t, r, dist, numTasks, templates, freshPct, 1+r.Intn(70))
				}
			}
		}
	}
	for _, n := range []int{0, 1, 2, 9} {
		checkCustomInstance(t, r, n)
	}
}

// TestPrecomputeBitIdentical: the distance table NewInstance precomputes
// over keyword classes holds, for every pair of tasks, the exact float64
// Dist.Distance returns for their keyword sets, and Diversity returns it.
func TestPrecomputeBitIdentical(t *testing.T) {
	for _, dist := range classTestDists {
		r := rand.New(rand.NewSource(11))
		in, err := NewInstance(classTasks(r, 40, 5, 0, 32), classWorkers(r, 1, 32), 2, dist)
		if err != nil {
			t.Fatal(err)
		}
		if in.TaskClasses() == nil {
			t.Fatalf("%T: five templates over 40 tasks: no distance table", dist)
		}
		for k := 0; k < 40; k++ {
			for l := 0; l < 40; l++ {
				want := 0.0
				if k != l {
					want = dist.Distance(in.Tasks[k].Keywords, in.Tasks[l].Keywords)
				}
				if got := in.Diversity(k, l); !sameFloat(got, want) {
					t.Fatalf("%T: Diversity(%d,%d) = %v, want %v", dist, k, l, got, want)
				}
			}
		}
	}
}

// TestPrecomputeOracleInstance: a custom (oracle-backed) instance has no
// keyword classes and serves its oracle's values, zero on the diagonal.
func TestPrecomputeOracleInstance(t *testing.T) {
	div := func(k, l int) float64 { return float64(k+l) / 10 }
	workers := []*Worker{mkWorker("w0", 0.5, 4, 0)}
	in, err := NewCustomInstance(6, workers, 2, [][]float64{{0, 0, 0, 0, 0, 0}}, div, false)
	if err != nil {
		t.Fatal(err)
	}
	if in.TaskClasses() != nil {
		t.Fatal("oracle instance reports task classes")
	}
	for k := 0; k < 6; k++ {
		for l := 0; l < 6; l++ {
			want := div(k, l)
			if k == l {
				want = 0
			}
			if got := in.Diversity(k, l); got != want {
				t.Fatalf("Diversity(%d,%d) = %v, want %v", k, l, got, want)
			}
		}
	}
}

// TestPermutedReadsThroughCache: a permuted view shares its base's class
// tables, and serves the base's values through the permutation.
func TestPermutedReadsThroughCache(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in, err := NewInstance(classTasks(r, 20, 4, 0, 24), classWorkers(r, 2, 24), 2, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	perm := r.Perm(20)
	view, err := in.Permuted(perm)
	if err != nil {
		t.Fatal(err)
	}
	classes, viewClasses := in.TaskClasses(), view.TaskClasses()
	if classes == nil || viewClasses == nil {
		t.Fatal("four templates over 20 tasks: no distance table")
	}
	if &view.div[0] != &in.div[0] || &view.rel[0] != &in.rel[0] {
		t.Fatal("permuted view copied the class tables")
	}
	for k := 0; k < 20; k++ {
		if viewClasses[k] != classes[perm[k]] {
			t.Fatalf("view class of task %d = %d, want base class %d", k, viewClasses[k], classes[perm[k]])
		}
		for l := 0; l < 20; l++ {
			if got, want := view.Diversity(k, l), in.Diversity(perm[k], perm[l]); got != want {
				t.Fatalf("view.Diversity(%d,%d) = %v, want base(%d,%d) = %v",
					k, l, got, perm[k], perm[l], want)
			}
		}
		if got, want := view.Relevance(1, k), in.Relevance(1, perm[k]); got != want {
			t.Fatalf("view.Relevance(1,%d) = %v, want base(1,%d) = %v", k, got, perm[k], want)
		}
	}
}

// TestSetDiversityCachedMatchesUncached: SetDiversity read from the
// distance table sums the same values in the same order as an instance
// that computes every distance on demand.
func TestSetDiversityCachedMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	tasks := classTasks(r, 30, 5, 0, 24)
	in, err := NewInstance(tasks, nil, 2, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	if in.TaskClasses() == nil {
		t.Fatal("five templates over 30 tasks: no distance table")
	}
	onDemand, err := NewCustomInstance(30, nil, 2, nil, func(k, l int) float64 {
		return metric.Jaccard{}.Distance(tasks[k].Keywords, tasks[l].Keywords)
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		set := r.Perm(30)[:2+r.Intn(6)]
		if got, want := in.SetDiversity(set), onDemand.SetDiversity(set); got != want {
			t.Fatalf("set %v: table SetDiversity %v != on-demand %v", set, got, want)
		}
	}
}

// TestUniformWeightsSharesCache: the WithUniformWeights copy used by the
// DIV/REL strategies shares the base instance's class tables.
func TestUniformWeightsSharesCache(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	in, err := NewInstance(classTasks(r, 15, 3, 0, 24), classWorkers(r, 2, 24), 2, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := in.WithUniformWeights(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.div == nil || &out.div[0] != &in.div[0] || &out.rel[0] != &in.rel[0] || &out.class[0] != &in.class[0] {
		t.Fatal("uniform-weights copy does not share the base's class tables")
	}
	for k := 0; k < 15; k++ {
		for l := 0; l < 15; l++ {
			if got, want := out.Diversity(k, l), in.Diversity(k, l); got != want {
				t.Fatalf("copy.Diversity(%d,%d) = %v, want %v", k, l, got, want)
			}
		}
	}
}

// FuzzInstanceClasses runs TestInstanceClassTables' checks on fuzzed
// draws: the metric, the task count, 1–6 templates, the share of fresh
// sets and the universe.
func FuzzInstanceClasses(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(40), uint8(3), uint8(10), uint8(30))
	f.Add(int64(2), uint8(1), uint8(9), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(2), uint8(64), uint8(6), uint8(60), uint8(90))
	f.Add(int64(4), uint8(3), uint8(17), uint8(2), uint8(25), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, dist, numTasks, templates, freshPct, universe uint8) {
		r := rand.New(rand.NewSource(seed))
		checkClassInstances(t, r, classTestDists[int(dist)%len(classTestDists)],
			int(numTasks)%80, 1+int(templates)%6, int(freshPct)%101, 1+int(universe)%100)
	})
}
