package metric

import (
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/bitset"
)

func randKw(rng *rand.Rand, n int) *bitset.Set {
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			s.Add(i)
		}
	}
	return s
}

// Every PackDistancer must be bit-identical to its pairwise Distance — the
// contract the streaming gain cache depends on. Mixed capacities exercise
// the Jaccard zero-padding path; uniform ones the capacity-checked pair.
func TestDistancePackBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uniform := make([]*bitset.Set, 40)
	var uniformPack bitset.Pack
	for i := range uniform {
		uniform[i] = randKw(rng, 128)
		uniformPack.Append(uniform[i])
	}
	mixed := make([]*bitset.Set, 40)
	var mixedPack bitset.Pack
	for i := range mixed {
		mixed[i] = randKw(rng, 16+rng.Intn(180))
		mixedPack.Append(mixed[i])
	}
	from := randKw(rng, 128)
	out := make([]float64, 40)
	for _, tc := range []struct {
		d    Distance
		sets []*bitset.Set
		pack *bitset.Pack
	}{
		{Jaccard{}, uniform, &uniformPack},
		{Jaccard{}, mixed, &mixedPack},
		{Hamming{}, uniform, &uniformPack},
		{Euclidean{}, uniform, &uniformPack},
		{Dice{}, uniform, &uniformPack}, // no pack kernel: exercises the fallback
	} {
		Row(tc.d, from, tc.pack, func(i int) *bitset.Set { return tc.sets[i] }, out)
		for i, s := range tc.sets {
			if want := tc.d.Distance(from, s); out[i] != want {
				t.Fatalf("%s: member %d: Row %v != Distance %v", tc.d.Name(), i, out[i], want)
			}
		}
	}
}

func TestDistancePackCapacityPanics(t *testing.T) {
	var p bitset.Pack
	p.Append(bitset.New(32))
	out := make([]float64, 1)
	for _, d := range []PackDistancer{Hamming{}, Euclidean{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on mismatched pack capacity", d.Name())
				}
			}()
			d.DistancePack(bitset.New(64), &p, out)
		}()
	}
}
