package matching

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// classWeights returns the weight function w(i, j) = tab(class[i],
// class[j]) for a symmetric table over class ids in [0, n), drawing each
// class pair's weight, the diagonal included, once.
func classWeights(class []int, draw func() float64) WeightFunc {
	n := len(class)
	tab := make([]float64, n*n)
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			tab[a*n+b] = draw()
			tab[b*n+a] = tab[a*n+b]
		}
	}
	return func(i, j int) float64 { return tab[class[i]*n+class[j]] }
}

// randomClasses puts n vertices into numClasses non-empty classes, with
// ids drawn from [0, n) in a random numbering.
func randomClasses(r *rand.Rand, n, numClasses int) []int {
	ids := r.Perm(n)[:numClasses]
	class := make([]int, n)
	for v := range class {
		class[v] = ids[r.Intn(numClasses)]
	}
	for k, v := range r.Perm(n)[:numClasses] { // every class gets a member
		class[v] = ids[k]
	}
	return class
}

// classedGreedy runs the class path whatever the class count.
func classedGreedy(n int, w WeightFunc, classes []int) Matching {
	class, numClasses := denseClasses(classes)
	return greedyClasses(n, w, class, numClasses)
}

// TestGreedyClassesMatchesReference: on random class structures, from one
// class to all singletons, with tied, random and special weights, the
// class path returns the reference greedy's Mate and Weight bit for bit.
func TestGreedyClassesMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1),
		math.SmallestNonzeroFloat64, 1e-310, 0.5}
	draws := map[string]func() float64{
		"rand":     r.Float64,
		"specials": func() float64 { return specials[r.Intn(len(specials))] },
	}
	for levels := 1; levels <= 6; levels++ {
		draws[fmt.Sprintf("ties%d", levels)] = func() float64 {
			return float64(r.Intn(levels)) / float64(levels)
		}
	}
	for name, draw := range draws {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 13, 30, 61} {
			for trial := 0; trial < 12; trial++ {
				numClasses := 0
				if n > 0 {
					numClasses = 1 + r.Intn(n)
				}
				classes := randomClasses(r, n, numClasses)
				w := classWeights(classes, draw)
				want := refGreedy(n, w)
				if got := classedGreedy(n, w, classes); !sameMatching(got, want) {
					t.Fatalf("%s n=%d classes=%v: class path %v (%g), reference %v (%g)",
						name, n, classes, got.Mate, got.Weight, want.Mate, want.Weight)
				}
				if got := AutoP(n, w, classes); !sameMatching(got, want) {
					t.Fatalf("%s n=%d classes=%v: AutoP %v (%g), reference %v (%g)",
						name, n, classes, got.Mate, got.Weight, want.Mate, want.Weight)
				}
			}
		}
	}
}

// TestAutoPClassDispatch: AutoP takes the class path whenever it is given
// classes, whether or not they halve the vertex count (core only hands out
// classes that do). A weight function that breaks the class contract tells
// the two paths apart.
func TestAutoPClassDispatch(t *testing.T) {
	n := 6
	// Vertices 0 and 1 share a class but w(0, 2) ≠ w(1, 2): only the flat
	// path sees the difference.
	w := tableWeights(n, map[[2]int]float64{{0, 2}: 1, {1, 2}: 2})
	flat := GreedySort(n, w)
	for _, c := range []struct {
		classes []int
		classed bool
	}{
		{[]int{0, 0, 1, 1, 2, 2}, true},
		{[]int{0, 0, 1, 2, 3, 4}, true},
		{nil, false},
	} {
		got := AutoP(n, w, c.classes)
		if sameMatching(got, flat) == c.classed {
			t.Errorf("classes %v: AutoP took the class path = %v, want %v", c.classes, !c.classed, c.classed)
		}
	}
}

// TestAutoPParity: AutoP without classes is Auto, and with every vertex in
// its own class the class path returns the same matching.
func TestAutoPParity(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	n := 60
	w := randWeights(r, n)
	want := Auto(n, w)
	singletons := make([]int, n)
	for v := range singletons {
		singletons[v] = v
	}
	for _, classes := range [][]int{nil, singletons} {
		if got := AutoP(n, w, classes); !sameMatching(got, want) {
			t.Fatalf("classes %v: AutoP diverges from Auto", classes)
		}
	}
}

func TestAutoPRejectsBadClasses(t *testing.T) {
	for _, classes := range [][]int{{0, 1}, {0, 3, 1}, {-1, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("classes %v: expected panic", classes)
				}
			}()
			AutoP(3, func(i, j int) float64 { return 1 }, classes)
		}()
	}
}

// fuzzClasses decodes data into a vertex count, a class vector and a
// class-pair weight table: data[0] picks n, the next n bytes the vertices'
// classes (mod n), and the rest the table's upper triangle, diagonal
// included, as fuzzDraw decodes it.
func fuzzClasses(data []byte) (int, []int, WeightFunc) {
	n := 0
	if len(data) > 0 {
		n = int(data[0]) % 33
		data = data[1:]
	}
	classes := make([]int, n)
	for v := range classes {
		if len(data) > 0 {
			classes[v] = int(data[0]) % n
			data = data[1:]
		}
	}
	return n, classes, classWeights(classes, fuzzDraw(data))
}

// FuzzGreedyClasses: whenever the weight depends only on the vertices'
// classes, the class path returns the reference greedy's matching and
// weight, bit for bit.
func FuzzGreedyClasses(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add([]byte{2, 1, 1, 9})
	f.Add([]byte{3, 0, 1, 0, 1, 0, 2})
	f.Add([]byte{6, 5, 5, 0, 0, 3, 3, 200, 200, 1, 0, 7, 2})
	f.Add([]byte{9, 0, 1, 2, 0, 1, 2, 0, 1, 2, 9, 9, 9, 9, 2, 2, 5, 6, 255, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, classes, w := fuzzClasses(data)
		want := refGreedy(n, w)
		if got := classedGreedy(n, w, classes); !sameMatching(got, want) {
			t.Fatalf("n=%d classes=%v: class path %v (%g), reference %v (%g)",
				n, classes, got.Mate, got.Weight, want.Mate, want.Weight)
		}
	})
}
