package matching

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestGreedySortPParity: the parallel edge-list fill must yield exactly the
// serial matching for any p, including p > n.
func TestGreedySortPParity(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := r.Intn(40)
		w := randWeights(r, n)
		serial := GreedySort(n, w)
		for _, p := range []int{2, 4, 9, n + 3} {
			got := GreedySortP(n, w, p)
			if !reflect.DeepEqual(got.Mate, serial.Mate) || got.Weight != serial.Weight {
				t.Fatalf("trial %d n=%d p=%d: parallel matching diverges from serial", trial, n, p)
			}
		}
	}
}

// TestBlossomPParity: the parallel sparse-edge construction must preserve
// Blossom's edge order and therefore its matching.
func TestBlossomPParity(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(24)
		w := randWeights(r, n)
		serial := Blossom(n, w)
		for _, p := range []int{2, 5, n + 1} {
			got := BlossomP(n, w, p)
			if !reflect.DeepEqual(got.Mate, serial.Mate) || got.Weight != serial.Weight {
				t.Fatalf("trial %d n=%d p=%d: parallel blossom diverges from serial", trial, n, p)
			}
		}
	}
}

// TestAutoPParity: AutoP must agree with Auto at every parallelism level.
func TestAutoPParity(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	n := 60
	w := randWeights(r, n)
	serial := Auto(n, w)
	for _, p := range []int{1, 3, 8} {
		got := AutoP(n, w, nil, p)
		if !reflect.DeepEqual(got.Mate, serial.Mate) || got.Weight != serial.Weight {
			t.Fatalf("p=%d: AutoP diverges from Auto", p)
		}
	}
}
