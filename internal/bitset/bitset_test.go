package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
	for i := 0; i < 100; i++ {
		if s.Contains(i) {
			t.Fatalf("empty set contains %d", i)
		}
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Add(63) // idempotent
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() after duplicate Add = %d, want 8", got)
	}
	s.Remove(63)
	if s.Contains(63) {
		t.Fatal("Contains(63) = true after Remove")
	}
	s.Remove(63) // idempotent
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestFromIndices(t *testing.T) {
	s := FromIndices(10, 1, 3, 5)
	want := []int{1, 3, 5}
	got := s.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices() = %v, want %v", got, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Add":      func() { New(4).Add(4) },
		"Negative": func() { New(4).Contains(-1) },
		"Remove":   func() { New(4).Remove(100) },
		"NewNeg":   func() { New(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		})
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(200, 0, 5, 70, 199)
	b := FromIndices(200, 5, 6, 70, 150)
	if got := a.IntersectionCount(b); got != 2 {
		t.Errorf("IntersectionCount = %d, want 2", got)
	}
	if got := a.UnionCount(b); got != 6 {
		t.Errorf("UnionCount = %d, want 6", got)
	}
	if got := a.SymmetricDifferenceCount(b); got != 4 {
		t.Errorf("SymmetricDifferenceCount = %d, want 4", got)
	}
}

func TestMixedCapacities(t *testing.T) {
	a := FromIndices(64, 0, 63)
	b := FromIndices(256, 0, 200)
	if got := a.IntersectionCount(b); got != 1 {
		t.Errorf("IntersectionCount = %d, want 1", got)
	}
	if got := a.UnionCount(b); got != 3 {
		t.Errorf("UnionCount = %d, want 3", got)
	}
	if got := b.UnionCount(a); got != 3 {
		t.Errorf("UnionCount (swapped) = %d, want 3", got)
	}
	if got := a.SymmetricDifferenceCount(b); got != 2 {
		t.Errorf("SymmetricDifferenceCount = %d, want 2", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(64, 1, 2, 3)
	c := a.Clone()
	c.Add(10)
	if a.Contains(10) {
		t.Fatal("Clone is not independent")
	}
	if !c.Contains(1) || c.Count() != 4 {
		t.Fatal("Clone missing original bits")
	}
}

func TestUnionWith(t *testing.T) {
	a := FromIndices(128, 1)
	b := FromIndices(64, 2, 63)
	a.UnionWith(b)
	if a.Count() != 3 || !a.Contains(63) {
		t.Fatalf("UnionWith result %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for larger-capacity argument")
		}
	}()
	b.UnionWith(a)
}

func TestClear(t *testing.T) {
	a := FromIndices(64, 1, 2, 3)
	a.Clear()
	if a.Count() != 0 {
		t.Fatalf("Count after Clear = %d", a.Count())
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(64, 1, 2)
	b := FromIndices(256, 1, 2)
	if !a.Equal(b) {
		t.Error("sets with same elements, different capacity should be Equal")
	}
	b.Add(200)
	if a.Equal(b) {
		t.Error("different sets reported Equal")
	}
}

func TestHash(t *testing.T) {
	if FromIndices(100, 3, 70).Hash() != FromIndices(100, 70, 3).Hash() {
		t.Error("equal sets of equal capacity hash differently")
	}
	if FromIndices(64, 1, 2).Hash() == FromIndices(256, 1, 2).Hash() {
		t.Error("capacity does not enter the hash")
	}
	if FromIndices(64, 1).Hash() == FromIndices(64, 2).Hash() {
		t.Error("different bits hash alike")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(64, 3, 1).String(); got != "{1,3}" {
		t.Errorf("String() = %q, want {1,3}", got)
	}
	if got := New(8).String(); got != "{}" {
		t.Errorf("String() = %q, want {}", got)
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			s.Add(i)
		}
	}
	return s
}

func TestQuickCountsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)
		inter, union, sym := a.IntersectionCount(b), a.UnionCount(b), a.SymmetricDifferenceCount(b)
		// Inclusion-exclusion identities.
		return union == a.Count()+b.Count()-inter &&
			sym == union-inter &&
			inter == b.IntersectionCount(a) &&
			union == b.UnionCount(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomSet(r, n)
		b := FromIndices(n, a.Indices()...)
		return a.Equal(b) && a.Count() == len(a.Indices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 4096), randomSet(r, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectionCount(y)
	}
}
