package matching

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/htacs/ata/internal/radix/radixtest"
)

// edgeLess is the comparison order GreedySort sorted its edges by before
// the radix sort: lighter first, ties broken by higher endpoint indices, so
// that the reverse order is "heavier first, then lower (i, j)". It is the
// reference the radix order is checked against.
func edgeLess(a, b edge) bool {
	if a.w != b.w {
		return a.w < b.w
	}
	if a.i != b.i {
		return a.i > b.i
	}
	return a.j > b.j
}

// refSortedEdges is sortedEdges with the comparison sort.
func refSortedEdges(n int, w WeightFunc) []edge {
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, edge{w: w(i, j), i: int32(i), j: int32(j)})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return edgeLess(edges[b], edges[a]) })
	return edges
}

// refGreedy is GreedySort over refSortedEdges.
func refGreedy(n int, w WeightFunc) Matching {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	var total float64
	for _, e := range refSortedEdges(n, w) {
		if mate[e.i] == -1 && mate[e.j] == -1 {
			mate[e.i], mate[e.j] = int(e.j), int(e.i)
			total += e.w
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// symmetricTable draws the upper triangle of an n×n weight table.
func symmetricTable(n int, draw func() float64) WeightFunc {
	w := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w[i*n+j] = draw()
			w[j*n+i] = w[i*n+j]
		}
	}
	return func(i, j int) float64 { return w[i*n+j] }
}

func sameMatching(a, b Matching) bool {
	if len(a.Mate) != len(b.Mate) || math.Float64bits(a.Weight) != math.Float64bits(b.Weight) {
		return false
	}
	for v := range a.Mate {
		if a.Mate[v] != b.Mate[v] {
			return false
		}
	}
	return true
}

// TestSortedEdgesMatchesEdgeLess: the radix-sorted edge list is the
// edgeLess order, edge for edge, serial and parallel, on every weight
// distribution, and the greedy matchings over the two agree.
func TestSortedEdgesMatchesEdgeLess(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var sc greedyScratch // reused from larger n to smaller, as greedyPool does
	for _, c := range radixtest.Cases {
		for _, n := range []int{0, 1, 2, 3, 4, 9, 40} {
			w := symmetricTable(n, func() float64 { return c.Draw(r) })
			want := refSortedEdges(n, w)
			for _, p := range []int{1, 3} {
				got := sc.sortedEdges(n, w, p)
				if len(got) != len(want) {
					t.Fatalf("%s n=%d p=%d: %d edges, want %d", c.Name, n, p, len(got), len(want))
				}
				for k := range got {
					if got[k].i != want[k].i || got[k].j != want[k].j || math.Float64bits(got[k].w) != math.Float64bits(want[k].w) {
						t.Fatalf("%s n=%d p=%d: edge %d is %+v, want %+v", c.Name, n, p, k, got[k], want[k])
					}
				}
			}
			if g, ref := GreedySort(n, w), refGreedy(n, w); !sameMatching(g, ref) {
				t.Fatalf("%s n=%d: GreedySort %v (%g), reference %v (%g)", c.Name, n, g.Mate, g.Weight, ref.Mate, ref.Weight)
			}
		}
	}
}

// TestGreedySortConcurrentCalls: solves running at once each take their
// own scratch from greedyPool, so each returns the reference matching.
func TestGreedySortConcurrentCalls(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	sizes := []int{5, 40, 90, 200}
	ws := make([]WeightFunc, len(sizes))
	want := make([]Matching, len(sizes))
	for k, n := range sizes {
		ws[k] = symmetricTable(n, r.Float64)
		want[k] = refGreedy(n, ws[k])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				k := (g + it) % len(sizes)
				if got := GreedySortP(sizes[k], ws[k], 1+it%2); !sameMatching(got, want[k]) {
					t.Errorf("goroutine %d, n=%d: matching differs from the reference", g, sizes[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzWeights decodes data into a vertex count and a symmetric weight
// table: data[0] picks n, and each following byte one upper-triangle
// weight in row-major order (0 once data runs out). Low bytes pick the
// values a radix key could get wrong; the rest give up to 248 tied levels.
func fuzzWeights(data []byte) (int, WeightFunc) {
	specials := [...]float64{0, math.Copysign(0, -1), math.Inf(1), math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 1}
	n := 0
	if len(data) > 0 {
		n = int(data[0]) % 33
		data = data[1:]
	}
	return n, symmetricTable(n, func() float64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		if int(b) < len(specials) {
			return specials[b]
		}
		return float64(b) / 255
	})
}

// FuzzGreedySortOrder: on any weight table, GreedySort's matching and its
// weight equal those of the greedy over the edgeLess comparison sort.
func FuzzGreedySortOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 1})
	f.Add([]byte{3, 0, 1, 0})
	f.Add([]byte{4, 2, 2, 3, 4, 5, 6})
	f.Add([]byte{8, 200, 200, 100, 100, 1, 0, 7, 200, 9, 9, 9, 9, 2, 2, 5, 6, 255, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, w := fuzzWeights(data)
		if g, ref := GreedySort(n, w), refGreedy(n, w); !sameMatching(g, ref) {
			t.Fatalf("n=%d: GreedySort %v (%g), reference %v (%g)", n, g.Mate, g.Weight, ref.Mate, ref.Weight)
		}
	})
}
