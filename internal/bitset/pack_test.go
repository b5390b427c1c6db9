package bitset

import (
	"math/rand"
	"testing"
)

func randSet(rng *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			s.Add(i)
		}
	}
	return s
}

// The pack's aggregates must be bit-identical to the *Set path for every
// member, including mixed capacities (zero padding) after repacks.
func TestPackCountsMatchSets(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p Pack
	var members []*Set
	for _, n := range []int{8, 64, 65, 130, 1, 200, 64} {
		s := randSet(rng, n)
		members = append(members, s)
		p.Append(s)
	}
	if p.Len() != len(members) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(members))
	}
	probe := randSet(rng, 100)
	for i, m := range members {
		if p.LenAt(i) != m.Len() {
			t.Fatalf("LenAt(%d) = %d, want %d", i, p.LenAt(i), m.Len())
		}
		gi, gu := p.IntersectionUnionCountAt(i, probe)
		wi, wu := m.IntersectionUnionCount(probe)
		if gi != wi || gu != wu {
			t.Fatalf("member %d: inter/union (%d,%d), want (%d,%d)", i, gi, gu, wi, wu)
		}
		if gs, ws := p.SymmetricDifferenceCountAt(i, probe), m.SymmetricDifferenceCount(probe); gs != ws {
			t.Fatalf("member %d: symdiff %d, want %d", i, gs, ws)
		}
	}
}

// SwapRemove and RemoveAt must mirror the equivalent slice moves.
func TestPackRemovalMirrorsSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var p Pack
	var ref []*Set
	add := func(k int) {
		for i := 0; i < k; i++ {
			s := randSet(rng, 48+rng.Intn(80))
			ref = append(ref, s)
			p.Append(s)
		}
	}
	verify := func(what string) {
		t.Helper()
		if p.Len() != len(ref) {
			t.Fatalf("%s: Len %d, want %d", what, p.Len(), len(ref))
		}
		probe := randSet(rng, 96)
		for i, m := range ref {
			gi, gu := p.IntersectionUnionCountAt(i, probe)
			wi, wu := m.IntersectionUnionCount(probe)
			if gi != wi || gu != wu {
				t.Fatalf("%s: member %d diverged", what, i)
			}
		}
	}
	add(9)
	// Swap-remove from the middle: last member moves into the hole.
	p.SwapRemove(3)
	ref[3] = ref[len(ref)-1]
	ref = ref[:len(ref)-1]
	verify("SwapRemove(3)")
	p.SwapRemove(p.Len() - 1)
	ref = ref[:len(ref)-1]
	verify("SwapRemove(last)")
	// Order-preserving removal.
	p.RemoveAt(1)
	ref = append(ref[:1], ref[2:]...)
	verify("RemoveAt(1)")
	add(3)
	verify("append after removals")
	p.Clear()
	ref = ref[:0]
	verify("Clear")
	add(2)
	verify("append after Clear")
}
