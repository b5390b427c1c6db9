package radix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/htacs/ata/internal/radix/radixtest"
)

func TestKeyReversesFloatOrder(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -math.MaxFloat64, -1, -0x1p-1022, -1e-310, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022,
		0.5, 1, math.MaxFloat64, math.Inf(1),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := key(a) < key(b), a > b; got != want {
				t.Errorf("key(%g) < key(%g) = %v, want %v", a, b, got, want)
			}
			if got, want := key(a) == key(b), a == b; got != want {
				t.Errorf("key(%g) == key(%g) = %v, want %v", a, b, got, want)
			}
		}
	}
}

type rec struct {
	w   float64
	idx int
}

func recWeight(r *rec) float64 { return r.w }

// TestDescIsStableSortByWeight checks Desc against a stable comparison
// sort, heaviest first, on every weight distribution and on sizes around
// the trivial ones. One Sorter serves every call, so a buffer or count
// table left over from a larger sort is reused.
func TestDescIsStableSortByWeight(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var st Sorter[rec]
	for _, c := range radixtest.Cases {
		for _, n := range []int{0, 1, 2, 3, 17, 1000, 70000, 5} {
			s := make([]rec, n)
			for i := range s {
				s[i] = rec{w: c.Draw(r), idx: i}
			}
			want := slices.Clone(s)
			slices.SortStableFunc(want, func(a, b rec) int {
				switch {
				case a.w > b.w:
					return -1
				case a.w < b.w:
					return 1
				}
				return 0
			})
			got := st.Desc(s, recWeight)
			if len(got) != n {
				t.Fatalf("%s n=%d: %d records back", c.Name, n, len(got))
			}
			for i := range got {
				if got[i].idx != want[i].idx {
					t.Fatalf("%s n=%d: position %d holds record %d (w=%g), want %d (w=%g)",
						c.Name, n, i, got[i].idx, got[i].w, want[i].idx, want[i].w)
				}
			}
		}
	}
}

func TestDescReuseAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	s := make([]rec, 4096)
	for i := range s {
		s[i] = rec{w: r.Float64(), idx: i}
	}
	var st Sorter[rec]
	st.Desc(s, recWeight)
	if allocs := testing.AllocsPerRun(10, func() { st.Desc(s, recWeight) }); allocs != 0 {
		t.Fatalf("%.1f allocs per warm sort, want 0", allocs)
	}
}

// BenchmarkDesc sorts six-level ties, the weights of a Jaccard diversity
// edge list, on both sides of wideMin: the byte-digit path below it, the
// 16-bit path at and above it.
func BenchmarkDesc(b *testing.B) {
	for _, n := range []int{1000, wideMin - 1, wideMin, 500_000} {
		r := rand.New(rand.NewSource(1))
		src := make([]rec, n)
		for i := range src {
			src[i] = rec{w: float64(r.Intn(6)) / 6, idx: i}
		}
		s := make([]rec, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var st Sorter[rec]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(s, src)
				st.Desc(s, recWeight)
			}
		})
	}
}
