package bitset

import "math/bits"

// Pack is a dense row-store of many Sets: every member's words live in one
// contiguous backing slice at a fixed stride, so kernels that score one set
// against a whole collection (the streaming gain cache, the scatter phase)
// walk flat memory with no per-element pointer chase.
//
// Members keep their individual capacities (Len), so capacity-checked
// distances (Hamming, Euclidean) behave exactly as they do on *Set values.
// A member wider than the current stride triggers a repack; bits beyond a
// narrower member's capacity are zero, which leaves every popcount
// aggregate identical to the *Set path — the bit-identical contract the
// cached and direct gain computations both rely on.
//
// Pack mirrors a slice: Append grows it, SwapRemove and RemoveAt mirror
// the streaming assigner's two removal moves (a closed keyword class, a
// completed active task). The zero value is an empty pack.
type Pack struct {
	words  []uint64
	ns     []int // per-member capacity in bits
	ones   []int // per-member popcount, cached at Append
	stride int   // words per member
}

// Len returns the number of member sets.
func (p *Pack) Len() int { return len(p.ns) }

// LenAt returns member i's capacity in bits (Set.Len of the appended set).
func (p *Pack) LenAt(i int) int { return p.ns[i] }

// OnesAt returns member i's popcount, cached at Append. Together with
// IntersectionCountsRow it lets a kernel derive unions and symmetric
// differences from set identities (|a∪b| = |a|+|b|−|a∩b|, |a△b| =
// |a|+|b|−2|a∩b|) — exact integer arithmetic, so the derived aggregates
// are the same integers the two-pass counts produce.
func (p *Pack) OnesAt(i int) int { return p.ones[i] }

// Append adds s as the last member, repacking to a wider stride when s
// needs more words than any member so far.
func (p *Pack) Append(s *Set) {
	need := len(s.words)
	if need > p.stride {
		p.restride(need)
	}
	p.ns = append(p.ns, s.n)
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	p.ones = append(p.ones, c)
	old := len(p.words)
	// Grow without an intermediate allocation: steady-state appends after a
	// removal reuse capacity, which keeps the assigner's offer path
	// allocation-free.
	if old+p.stride <= cap(p.words) {
		p.words = p.words[:old+p.stride]
	} else {
		grown := make([]uint64, old+p.stride, 2*(old+p.stride))
		copy(grown, p.words)
		p.words = grown
	}
	row := p.words[old : old+p.stride]
	n := copy(row, s.words)
	for i := n; i < len(row); i++ {
		row[i] = 0
	}
}

// restride rewrites the store at a wider stride. Amortized by doubling-style
// growth of the backing slice; existing members keep their zero padding.
func (p *Pack) restride(stride int) {
	n := len(p.ns)
	fresh := make([]uint64, n*stride)
	for i := 0; i < n; i++ {
		copy(fresh[i*stride:(i+1)*stride], p.words[i*p.stride:(i+1)*p.stride])
	}
	p.words, p.stride = fresh, stride
}

// SwapRemove removes member i by moving the last member into its slot —
// the same O(1) eviction the streaming buffer uses when a task is pulled.
func (p *Pack) SwapRemove(i int) {
	last := len(p.ns) - 1
	if i != last {
		copy(p.words[i*p.stride:(i+1)*p.stride], p.words[last*p.stride:(last+1)*p.stride])
		p.ns[i] = p.ns[last]
		p.ones[i] = p.ones[last]
	}
	p.words = p.words[:last*p.stride]
	p.ns = p.ns[:last]
	p.ones = p.ones[:last]
}

// Clear removes every member, keeping the backing storage for reuse.
func (p *Pack) Clear() {
	p.words = p.words[:0]
	p.ns = p.ns[:0]
	p.ones = p.ones[:0]
}

// RemoveAt removes member i, preserving the order of the members after it
// (the order-preserving analogue of SwapRemove, matching how a worker's
// active slice drops a completed task).
func (p *Pack) RemoveAt(i int) {
	last := len(p.ns) - 1
	copy(p.words[i*p.stride:], p.words[(i+1)*p.stride:])
	copy(p.ns[i:], p.ns[i+1:])
	copy(p.ones[i:], p.ones[i+1:])
	p.words = p.words[:last*p.stride]
	p.ns = p.ns[:last]
	p.ones = p.ones[:last]
}

// IntersectionCountsRow stores |s ∩ p[i]| into out[i] (as float64, the
// element type downstream distance kernels aggregate into) for every
// member in one flat walk over the backing array — no per-member call,
// no per-member slicing. Combined with OnesAt this is the whole-row
// primitive behind the pack distance kernels: intersection is the only
// aggregate that needs the bits; unions and symmetric differences follow
// from the cached popcounts by exact integer identities.
//
// The common small strides are unrolled: the streaming workloads keep
// keyword universes of a few hundred bits, so members span one or two
// words and the row walk reduces to one fused popcount per member.
func (p *Pack) IntersectionCountsRow(s *Set, out []float64) {
	sw := s.words
	w := p.words
	switch {
	case p.stride == 1 && len(sw) >= 1:
		s0 := sw[0]
		for i := range p.ns {
			out[i] = float64(bits.OnesCount64(w[i] & s0))
		}
	case p.stride == 2 && len(sw) >= 2:
		s0, s1 := sw[0], sw[1]
		k := 0
		for i := 0; i+1 < len(w); i += 2 {
			out[k] = float64(bits.OnesCount64(w[i]&s0) + bits.OnesCount64(w[i+1]&s1))
			k++
		}
	case len(sw) >= p.stride:
		for i := range p.ns {
			base := i * p.stride
			c := 0
			for k := 0; k < p.stride; k++ {
				c += bits.OnesCount64(w[base+k] & sw[k])
			}
			out[i] = float64(c)
		}
	default:
		// s is narrower than the stride: words beyond len(sw) cannot
		// intersect.
		for i := range p.ns {
			base := i * p.stride
			c := 0
			for k := range sw {
				c += bits.OnesCount64(w[base+k] & sw[k])
			}
			out[i] = float64(c)
		}
	}
}

// IntersectionUnionCountAt returns |s ∩ p[i]| and |s ∪ p[i]| — the Jaccard
// aggregates — in one pass, bit-identical to Set.IntersectionUnionCount on
// the member it mirrors.
func (p *Pack) IntersectionUnionCountAt(i int, s *Set) (inter, union int) {
	row := p.words[i*p.stride : (i+1)*p.stride]
	sw := s.words
	n := len(sw)
	if len(row) < n {
		n = len(row)
	}
	for k := 0; k < n; k++ {
		inter += bits.OnesCount64(row[k] & sw[k])
		union += bits.OnesCount64(row[k] | sw[k])
	}
	for _, w := range row[n:] {
		union += bits.OnesCount64(w)
	}
	for _, w := range sw[n:] {
		union += bits.OnesCount64(w)
	}
	return inter, union
}

// SymmetricDifferenceCountAt returns |s △ p[i]|, bit-identical to
// Set.SymmetricDifferenceCount on the member it mirrors.
func (p *Pack) SymmetricDifferenceCountAt(i int, s *Set) int {
	row := p.words[i*p.stride : (i+1)*p.stride]
	sw := s.words
	n := len(sw)
	if len(row) < n {
		n = len(row)
	}
	c := 0
	for k := 0; k < n; k++ {
		c += bits.OnesCount64(row[k] ^ sw[k])
	}
	for _, w := range row[n:] {
		c += bits.OnesCount64(w)
	}
	for _, w := range sw[n:] {
		c += bits.OnesCount64(w)
	}
	return c
}
