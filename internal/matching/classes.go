package matching

import "fmt"

// denseClasses renumbers a class vector by first appearance, so class a < b
// implies a's first member precedes b's, and returns the number of classes.
// Every class id must lie in [0, len(classes)).
func denseClasses(classes []int) ([]int32, int) {
	n := len(classes)
	id := make([]int32, n)
	for c := range id {
		id[c] = -1
	}
	dense := make([]int32, n)
	numClasses := 0
	for v, c := range classes {
		if uint(c) >= uint(n) {
			panic(fmt.Sprintf("matching: class %d of vertex %d outside [0,%d)", c, v, n))
		}
		if id[c] < 0 {
			id[c] = int32(numClasses)
			numClasses++
		}
		dense[v] = id[c]
	}
	return dense, numClasses
}

// classNeighbor is one class adjacent to another within a weight level,
// with the weight of every edge between their members.
type classNeighbor struct {
	class int32
	w     float64
}

// greedyClasses computes GreedySort's matching when w(i, j), i ≠ j, depends
// only on the classes of i and j (class[v] ∈ [0, numClasses), numbered by
// first appearance). It sorts one record per class pair instead of one edge
// per vertex pair: (a, b) for a < b, and (a, a) when class a has at least
// two members, each weighted by w of the first members. Records of equal
// weight form a level, which holds exactly the edges the flat greedy
// visits in ascending (i, j) order between two weight changes. Within a
// level the free members of the participating classes are visited in
// ascending vertex order, each taking the smallest free j > i in an
// adjacent class — the edge that order reaches first. Mate and Weight are
// therefore those of GreedySort, bit for bit.
//
// The cost is O(n·C + C² log C) for C classes: a class pair is in one
// level, each level's pointers only move forward over members, and a class
// leaves its level's merge at its first member without a partner, because
// every later member of it finds no partner either.
func greedyClasses(n int, w WeightFunc, class []int32, numClasses int) Matching {
	sc := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(sc)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}

	// Members of class c, ascending: members[start[c]:start[c+1]].
	start := make([]int32, numClasses+1)
	for _, c := range class {
		start[c+1]++
	}
	for c := 0; c < numClasses; c++ {
		start[c+1] += start[c]
	}
	members := make([]int32, n)
	head := append([]int32(nil), start[:numClasses]...)
	for v, c := range class {
		members[head[c]] = int32(v)
		head[c]++
	}
	copy(head, start) // head[c]: no member of c before it is free
	free := make([]int32, numClasses)
	for c := range free {
		free[c] = start[c+1] - start[c]
	}

	m := numClasses * (numClasses + 1) / 2
	if cap(sc.edges) < m {
		sc.edges = make([]edge, m)
	}
	records := sc.edges[:0]
	for a := 0; a < numClasses; a++ {
		fa := int(members[start[a]])
		if free[a] >= 2 {
			records = append(records, edge{w: w(fa, int(members[start[a]+1])), i: int32(a), j: int32(a)})
		}
		for b := a + 1; b < numClasses; b++ {
			records = append(records, edge{w: w(fa, int(members[start[b]])), i: int32(a), j: int32(b)})
		}
	}
	records = sc.sorter.Desc(records, func(e *edge) float64 { return e.w })

	adj := make([][]classNeighbor, numClasses)
	seen := make([]int32, numClasses) // 1 + the last level class c took part in
	cur := make([]int32, numClasses)  // the merge's next member of c
	next := make([]int32, numClasses) // no member of c before it is a free j > i
	var parts []int32                 // the level's participating classes
	var h vertexHeap
	var total float64
	matched := 0
	for lo, level := 0, int32(1); lo < len(records) && matched < n-1; level++ {
		hi := lo + 1
		for hi < len(records) && records[hi].w == records[lo].w {
			hi++
		}
		parts = parts[:0]
		join := func(c int32) {
			if seen[c] != level {
				seen[c] = level
				adj[c] = adj[c][:0]
				parts = append(parts, c)
			}
		}
		for _, r := range records[lo:hi] {
			a, b := r.i, r.j
			if free[a] == 0 || free[b] == 0 || (a == b && free[a] < 2) {
				continue
			}
			join(a)
			join(b)
			adj[a] = append(adj[a], classNeighbor{b, r.w})
			if a != b {
				adj[b] = append(adj[b], classNeighbor{a, r.w})
			}
		}
		lo = hi

		h = h[:0]
		for _, c := range parts {
			for mate[members[head[c]]] != -1 {
				head[c]++
			}
			cur[c], next[c] = head[c], head[c]
			h.push(members[head[c]])
		}
		for len(h) > 0 && matched < n-1 {
			i := h.pop()
			a := class[i]
			if mate[i] == -1 {
				j, wj := int32(-1), 0.0
				for _, nb := range adj[a] {
					b, end := nb.class, start[nb.class+1]
					p := next[b]
					for p < end && (members[p] <= i || mate[members[p]] != -1) {
						p++
					}
					next[b] = p
					if p < end && (j < 0 || members[p] < j) {
						j, wj = members[p], nb.w
					}
				}
				if j < 0 {
					continue // a's later members find no partner either
				}
				mate[i], mate[j] = int(j), int(i)
				total += wj
				matched += 2
				free[a]--
				free[class[j]]--
			}
			p, end := cur[a]+1, start[a+1]
			for p < end && mate[members[p]] != -1 {
				p++
			}
			cur[a] = p
			if p < end {
				h.push(members[p])
			}
		}
	}
	return Matching{Mate: mate, Weight: total}
}

// vertexHeap is a binary min-heap of vertex indices.
type vertexHeap []int32

func (h *vertexHeap) push(v int32) {
	s := append(*h, v)
	k := len(s) - 1
	for k > 0 {
		up := (k - 1) / 2
		if s[up] <= v {
			break
		}
		s[k], k = s[up], up
	}
	s[k] = v
	*h = s
}

func (h *vertexHeap) pop() int32 {
	s := *h
	top, v := s[0], s[len(s)-1]
	s = s[:len(s)-1]
	k := 0
	for {
		c := 2*k + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1] < s[c] {
			c++
		}
		if v <= s[c] {
			break
		}
		s[k], k = s[c], c
	}
	if len(s) > 0 {
		s[k] = v
	}
	*h = s
	return top
}
