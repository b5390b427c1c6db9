// Package radixtest draws the weights of the parity tests of radix.Sorter
// and of the greedy matchings built on it: the ties, signed zeros,
// infinities, subnormals and negative values on which a radix key could
// disagree with a float comparison.
package radixtest

import (
	"math"
	"math/rand"
)

// Case is one weight distribution.
type Case struct {
	Name string
	Draw func(r *rand.Rand) float64
}

// Cases lists every distribution. NaN is never drawn: no order puts it
// anywhere in particular.
var Cases = []Case{
	{"random", func(r *rand.Rand) float64 { return r.Float64() }},
	{"ties1", levels(1)},
	{"ties2", levels(2)},
	{"ties3", levels(3)},
	{"ties4", levels(4)},
	{"ties5", levels(5)},
	{"ties6", levels(6)},
	{"all-equal", func(*rand.Rand) float64 { return 0.375 }},
	{"powers-of-two", oneOf(0.25, 0.5, 1, 2)}, // only the top digit differs
	{"signed-zero", oneOf(0, math.Copysign(0, -1), 0.5)},
	{"inf", oneOf(math.Inf(1), math.MaxFloat64, 1, 0)},
	{"subnormal", oneOf(math.SmallestNonzeroFloat64, 2*math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 0)},
	{"negative", oneOf(math.Inf(-1), -math.MaxFloat64, -1, -0.5, -1e-310, math.Copysign(0, -1), 0, 0.5)},
	{"negative-random", func(r *rand.Rand) float64 { return r.NormFloat64() }},
}

// levels draws one of k evenly spaced values in (0, 1), so many weights tie.
func levels(k int) func(*rand.Rand) float64 {
	return func(r *rand.Rand) float64 { return float64(r.Intn(k)+1) / float64(k+1) }
}

func oneOf(vs ...float64) func(*rand.Rand) float64 {
	return func(r *rand.Rand) float64 { return vs[r.Intn(len(vs))] }
}
