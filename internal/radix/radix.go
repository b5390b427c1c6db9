// Package radix sorts records by a float64 weight, heaviest first, in
// linear time. It is the edge ordering of both greedy matchings (M_B in
// package matching and the greedy LSAP in package lsap): each fills its
// edge list in ascending index order, which is exactly its tie-break, so a
// stable sort on the weight alone reproduces the comparison order those
// greedy passes are defined by.
package radix

import "math"

// wideMin is the input length from which Desc sorts by 16-bit digits (4
// passes over a 1 MiB count table) instead of bytes (8 passes over 8 KiB).
// Clearing and prefix-summing the wide table is a fixed cost that only the
// four saved passes over longer inputs repay: by BenchmarkDesc the two
// widths break even near 2×10⁴ records.
const wideMin = 1 << 14

// key maps w to a uint64 whose ascending order is w's descending order.
// Flipping the sign bit of a non-negative float, or every bit of a negative
// one, gives a key that preserves float order; the complement reverses it.
// -0 is folded into +0, so the two tie as they do under ==.
func key(w float64) uint64 {
	if w == 0 {
		w = 0
	}
	b := math.Float64bits(w)
	if b>>63 == 0 {
		return ^(b | 1<<63)
	}
	return b
}

// Sorter is a stable LSD radix sort on the weights' keys. The zero value is
// ready to use; it keeps its scratch buffer and digit counts, so repeated
// sorts of at most as many records allocate nothing. A Sorter is not safe
// for concurrent use.
type Sorter[T any] struct {
	buf   []T
	count []uint32 // passes × buckets digit counts
}

// Desc sorts s by decreasing weight, keeping the input order of equal
// weights, and returns the sorted records. The result aliases either s or
// the Sorter's buffer and is valid until the next call, so it must not be
// passed back in as s.
func (st *Sorter[T]) Desc(s []T, weight func(*T) float64) []T {
	if len(s) < 2 {
		return s
	}
	if uint64(len(s)) > math.MaxUint32 {
		panic("radix: more than 2³²-1 records")
	}
	bits := uint(8)
	if len(s) >= wideMin {
		bits = 16
	}
	buckets := 1 << bits
	mask := uint64(buckets - 1)
	passes := 64 / int(bits)
	if cap(st.buf) < len(s) {
		st.buf = make([]T, len(s))
	}
	if cap(st.count) < passes*buckets {
		st.count = make([]uint32, passes*buckets)
	}
	count := st.count[:passes*buckets]
	clear(count)
	// One sweep counts every digit.
	for i := range s {
		k := key(weight(&s[i]))
		for d := 0; d < passes; d++ {
			count[d*buckets+int(k>>(uint(d)*bits)&mask)]++
		}
	}
	first := key(weight(&s[0]))
	src, dst := s, st.buf[:len(s)]
	for d := 0; d < passes; d++ {
		shift := uint(d) * bits
		c := count[d*buckets : (d+1)*buckets]
		if c[first>>shift&mask] == uint32(len(s)) {
			continue // one digit value covers every record
		}
		var sum uint32
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for i := range src {
			b := key(weight(&src[i])) >> shift & mask
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
