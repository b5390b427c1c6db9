package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// tableWeights builds a WeightFunc from a symmetric upper-triangular map.
func tableWeights(n int, entries map[[2]int]float64) WeightFunc {
	return func(i, j int) float64 {
		if i > j {
			i, j = j, i
		}
		return entries[[2]int{i, j}]
	}
}

func randWeights(r *rand.Rand, n int) WeightFunc {
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := r.Float64()
			w[i*n+j], w[j*n+i] = v, v
		}
	}
	return func(i, j int) float64 { return w[i*n+j] }
}

// discreteWeights creates many ties to stress tie-breaking.
func discreteWeights(r *rand.Rand, n, levels int) WeightFunc {
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(r.Intn(levels)) / float64(levels)
			w[i*n+j], w[j*n+i] = v, v
		}
	}
	return func(i, j int) float64 { return w[i*n+j] }
}

func TestGreedySortKnown(t *testing.T) {
	// Path graph weights: 0-1: 3, 1-2: 4, 2-3: 3. Greedy takes (1,2) then
	// nothing else with positive weight except... (0,3)=0. Max matching is
	// {0-1, 2-3} = 6; greedy gets 4 + w(0,3).
	w := tableWeights(4, map[[2]int]float64{{0, 1}: 3, {1, 2}: 4, {2, 3}: 3})
	g := GreedySort(4, w)
	if g.Mate[1] != 2 || g.Mate[2] != 1 {
		t.Fatalf("greedy should match heaviest edge (1,2): %v", g.Mate)
	}
	opt := ExactSmall(4, w)
	if opt.Weight != 6 {
		t.Fatalf("exact weight = %g, want 6", opt.Weight)
	}
	if g.Weight < opt.Weight/2 {
		t.Fatalf("greedy %g below half of optimum %g", g.Weight, opt.Weight)
	}
}

func TestGreedySortCompleteLeavesAtMostOneUnmatched(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 4, 7, 10, 15} {
		m := GreedySort(n, randWeights(r, n))
		unmatched := 0
		for _, mate := range m.Mate {
			if mate == -1 {
				unmatched++
			}
		}
		if unmatched != n%2 {
			t.Fatalf("n=%d: %d unmatched vertices, want %d", n, unmatched, n%2)
		}
	}
}

func TestGreedyHalfApproximation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(11)
		w := randWeights(r, n)
		g, opt := GreedySort(n, w), ExactSmall(n, w)
		if g.Weight < opt.Weight/2-1e-9 {
			t.Fatalf("trial %d n=%d: greedy %g < half of optimum %g", trial, n, g.Weight, opt.Weight)
		}
		if g.Weight > opt.Weight+1e-9 {
			t.Fatalf("trial %d: greedy %g exceeds optimum %g", trial, g.Weight, opt.Weight)
		}
		if err := g.Validate(w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSuitorEqualsGreedySort(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(14)
		var w WeightFunc
		if trial%2 == 0 {
			w = randWeights(r, n)
		} else {
			w = discreteWeights(r, n, 3) // heavy ties
		}
		g, s := GreedySort(n, w), Suitor(n, w)
		if math.Abs(g.Weight-s.Weight) > 1e-9 {
			t.Fatalf("trial %d n=%d: greedy %g != suitor %g", trial, n, g.Weight, s.Weight)
		}
		for v := range g.Mate {
			if g.Mate[v] != s.Mate[v] {
				t.Fatalf("trial %d n=%d: mate mismatch at %d: greedy %v suitor %v",
					trial, n, v, g.Mate, s.Mate)
			}
		}
		if err := s.Validate(w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSuitorAllZeroWeights(t *testing.T) {
	w := func(i, j int) float64 { return 0 }
	m := Suitor(6, w)
	if err := m.Validate(w); err != nil {
		t.Fatal(err)
	}
	// Zero-weight edges are still edges; greedy matches them maximally.
	if m.Size() != 3 {
		t.Fatalf("size = %d, want 3", m.Size())
	}
}

func TestExactSmallKnown(t *testing.T) {
	// Triangle with weights 5, 4, 3: matching can take only one edge → 5.
	w := tableWeights(3, map[[2]int]float64{{0, 1}: 5, {1, 2}: 4, {0, 2}: 3})
	m := ExactSmall(3, w)
	if m.Weight != 5 || m.Mate[0] != 1 {
		t.Fatalf("exact = %+v, want edge (0,1) of weight 5", m)
	}
}

func TestExactSmallPanicsOnLargeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ExactSmall(19, func(i, j int) float64 { return 1 })
}

func TestAutoDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 9
	w := randWeights(r, n)
	a, g := Auto(n, w), GreedySort(n, w)
	if math.Abs(a.Weight-g.Weight) > 1e-12 {
		t.Fatalf("Auto %g != GreedySort %g", a.Weight, g.Weight)
	}
}

func TestEdgesAndSize(t *testing.T) {
	w := tableWeights(4, map[[2]int]float64{{0, 1}: 3, {2, 3}: 2})
	m := GreedySort(4, w)
	if m.Size() != 2 {
		t.Fatalf("Size = %d, want 2", m.Size())
	}
	edges := m.Edges()
	if len(edges) != 2 {
		t.Fatalf("Edges = %v", edges)
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not ordered", e)
		}
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	w := func(i, j int) float64 { return 1 }
	m := Matching{Mate: []int{1, 0, -1}, Weight: 1}
	if err := m.Validate(w); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	bad := Matching{Mate: []int{1, 2, 0}, Weight: 1}
	if err := bad.Validate(w); err == nil {
		t.Fatal("non-involution accepted")
	}
	badW := Matching{Mate: []int{1, 0, -1}, Weight: 7}
	if err := badW.Validate(w); err == nil {
		t.Fatal("wrong weight accepted")
	}
}

func TestQuickGreedyLocalDomination(t *testing.T) {
	// Property behind the paper's Equations 9–10: for any non-matching edge
	// (u,v) whose endpoints are matched, w(u,v) <= w(u,mate(u)) + w(v,mate(v)).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		w := randWeights(r, n)
		m := GreedySort(n, w)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if m.Mate[u] == v {
					continue
				}
				var bound float64
				if m.Mate[u] != -1 {
					bound += w(u, m.Mate[u])
				}
				if m.Mate[v] != -1 {
					bound += w(v, m.Mate[v])
				}
				if m.Mate[u] == -1 && m.Mate[v] == -1 {
					continue // cannot happen on complete graphs except odd leftover
				}
				if w(u, v) > bound+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkGreedySort's n1000-ties6 case has the shape of the layered
// benchmark's batch-solve matching seen as a flat edge list: 1000 tasks
// whose 499,500 diversity edges take only six distinct weights. In
// batch-solve those tasks come in 20 groups of 50 with equal keyword sets,
// so the solver hands AutoP their classes: n1000-classes20 is that case,
// 20 shuffled classes of 50 whose 210 class pairs take six weights.
func BenchmarkGreedySort(b *testing.B) {
	cases := []struct {
		name    string
		n       int
		w       func(r *rand.Rand, n int) WeightFunc
		classes func(r *rand.Rand, n int) []int
	}{
		{"n400-rand", 400, randWeights, nil},
		{"n1000-ties6", 1000, func(r *rand.Rand, n int) WeightFunc { return discreteWeights(r, n, 6) }, nil},
		{"n1000-classes20", 1000, nil, func(r *rand.Rand, n int) []int {
			classes := r.Perm(n)
			for v := range classes {
				classes[v] %= 20
			}
			return classes
		}},
	}
	for _, c := range cases {
		r := rand.New(rand.NewSource(4))
		var w WeightFunc
		var classes []int
		if c.classes != nil {
			classes = c.classes(r, c.n)
			w = classWeights(classes, func() float64 { return float64(r.Intn(6)) / 6 })
		} else {
			w = c.w(r, c.n)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if classes != nil {
					AutoP(c.n, w, classes)
				} else {
					GreedySort(c.n, w)
				}
			}
		})
	}
}

func BenchmarkSuitor(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	n := 400
	w := randWeights(r, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Suitor(n, w)
	}
}
