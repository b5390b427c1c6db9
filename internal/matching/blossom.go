package matching

// Exact maximum-weight matching on general graphs via the blossom
// algorithm (Edmonds), in the O(n³) primal-dual formulation of Galil,
// "Efficient algorithms for finding maximum matching in graphs" (1986).
// This Go implementation is a port of the well-known reference
// implementation structure by Van Rantwijk (mwmatching), adapted to
// float64 weights.
//
// Line 2 of the paper's Algorithms 1 and 2 asks for a maximum-weight
// matching M_B on the diversity graph; the approximation analysis only
// needs a greedy matching, but the exact matcher lets the repository
// measure how much the greedy M_B costs (BenchmarkAblationMatching) and
// gives the tests a ground truth beyond the O(2ⁿ) subset DP.

import "math"

// blossomEdge is one positive-weight edge of the graph Blossom runs on.
type blossomEdge struct {
	i, j int
	wt   float64
}

// Blossom computes a maximum-weight matching on the complete graph over n
// vertices with the given weight function. Edges with non-positive weight
// are ignored (they can never improve a maximum-weight matching).
func Blossom(n int, w WeightFunc) Matching {
	type edge = blossomEdge
	var edges []edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if wt := w(i, j); wt > 0 {
				edges = append(edges, edge{i, j, wt})
			}
		}
	}
	nedge := len(edges)
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	if nedge == 0 {
		return Matching{Mate: mate, Weight: 0}
	}

	maxweight := 0.0
	for _, e := range edges {
		if e.wt > maxweight {
			maxweight = e.wt
		}
	}

	// Vertices are 0..n-1; blossoms n..2n-1.
	const maxIter = 1 << 30
	endpoint := make([]int, 2*nedge) // endpoint[p] = vertex at endpoint p (p = 2k or 2k+1 for edge k)
	for k, e := range edges {
		endpoint[2*k] = e.i
		endpoint[2*k+1] = e.j
	}
	neighbend := make([][]int, n) // incident endpoint list per vertex
	for k, e := range edges {
		neighbend[e.i] = append(neighbend[e.i], 2*k+1)
		neighbend[e.j] = append(neighbend[e.j], 2*k)
	}

	matepnt := make([]int, n) // matched endpoint, -1 if single
	for i := range matepnt {
		matepnt[i] = -1
	}
	label := make([]int, 2*n)    // 0 free, 1 S, 2 T
	labelend := make([]int, 2*n) // endpoint through which the label was assigned
	inblossom := make([]int, n)  // top-level blossom containing vertex
	for i := range inblossom {
		inblossom[i] = i
	}
	blossomparent := make([]int, 2*n)
	for i := range blossomparent {
		blossomparent[i] = -1
	}
	blossomchilds := make([][]int, 2*n)
	blossombase := make([]int, 2*n)
	for i := 0; i < n; i++ {
		blossombase[i] = i
	}
	for i := n; i < 2*n; i++ {
		blossombase[i] = -1
	}
	blossomendps := make([][]int, 2*n)
	bestedge := make([]int, 2*n)
	blossombestedges := make([][]int, 2*n)
	unusedblossoms := make([]int, 0, n)
	for i := n; i < 2*n; i++ {
		unusedblossoms = append(unusedblossoms, i)
	}
	dualvar := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		dualvar[i] = maxweight / 2
	}
	allowedge := make([]bool, nedge)
	var queue []int

	slack := func(k int) float64 {
		return dualvar[edges[k].i] + dualvar[edges[k].j] - edges[k].wt
	}

	var blossomLeaves func(b int, out *[]int)
	blossomLeaves = func(b int, out *[]int) {
		if b < n {
			*out = append(*out, b)
			return
		}
		for _, t := range blossomchilds[b] {
			blossomLeaves(t, out)
		}
	}

	assignLabel := func(v, t, p int) {
		var rec func(v, t, p int)
		rec = func(v, t, p int) {
			b := inblossom[v]
			label[v] = t
			label[b] = t
			labelend[v] = p
			labelend[b] = p
			bestedge[v] = -1
			bestedge[b] = -1
			if t == 1 {
				var leaves []int
				blossomLeaves(b, &leaves)
				queue = append(queue, leaves...)
			} else if t == 2 {
				base := blossombase[b]
				rec(endpoint[matepnt[base]], 1, matepnt[base]^1)
			}
		}
		rec(v, t, p)
	}

	scanBlossom := func(v, w int) int {
		var path []int
		base := -1
		for v != -1 || w != -1 {
			b := inblossom[v]
			if label[b]&4 != 0 {
				base = blossombase[b]
				break
			}
			path = append(path, b)
			label[b] |= 4
			if labelend[b] == -1 {
				v = -1
			} else {
				v = endpoint[labelend[b]]
				b = inblossom[v]
				v = endpoint[labelend[b]]
			}
			if w != -1 {
				v, w = w, v
			}
		}
		for _, b := range path {
			label[b] &^= 4
		}
		return base
	}

	var expandBlossom func(b int, endstage bool)
	var augmentBlossom func(b, v int)

	addBlossom := func(base, k int) {
		v, w := edges[k].i, edges[k].j
		bb := inblossom[base]
		bv := inblossom[v]
		bw := inblossom[w]
		b := unusedblossoms[len(unusedblossoms)-1]
		unusedblossoms = unusedblossoms[:len(unusedblossoms)-1]
		blossombase[b] = base
		blossomparent[b] = -1
		blossomparent[bb] = b
		var path []int
		var endps []int
		for bv != bb {
			blossomparent[bv] = b
			path = append(path, bv)
			endps = append(endps, labelend[bv])
			v = endpoint[labelend[bv]]
			bv = inblossom[v]
		}
		path = append(path, bb)
		// reverse
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		for i, j := 0, len(endps)-1; i < j; i, j = i+1, j-1 {
			endps[i], endps[j] = endps[j], endps[i]
		}
		endps = append(endps, 2*k)
		for bw != bb {
			blossomparent[bw] = b
			path = append(path, bw)
			endps = append(endps, labelend[bw]^1)
			w = endpoint[labelend[bw]]
			bw = inblossom[w]
		}
		blossomchilds[b] = path
		blossomendps[b] = endps
		label[b] = 1
		labelend[b] = labelend[bb]
		dualvar[b] = 0
		var leaves []int
		blossomLeaves(b, &leaves)
		for _, leaf := range leaves {
			if label[inblossom[leaf]] == 2 {
				queue = append(queue, leaf)
			}
			inblossom[leaf] = b
		}
		bestedgeto := make([]int, 2*n)
		for i := range bestedgeto {
			bestedgeto[i] = -1
		}
		for _, bv := range path {
			var nblists [][]int
			if blossombestedges[bv] == nil {
				var leaves2 []int
				blossomLeaves(bv, &leaves2)
				for _, leaf := range leaves2 {
					lst := make([]int, 0, len(neighbend[leaf]))
					for _, p := range neighbend[leaf] {
						lst = append(lst, p/2)
					}
					nblists = append(nblists, lst)
				}
			} else {
				nblists = [][]int{blossombestedges[bv]}
			}
			for _, nblist := range nblists {
				for _, kk := range nblist {
					i, j := edges[kk].i, edges[kk].j
					if inblossom[j] == b {
						i, j = j, i
					}
					bj := inblossom[j]
					if bj != b && label[bj] == 1 &&
						(bestedgeto[bj] == -1 || slack(kk) < slack(bestedgeto[bj])) {
						bestedgeto[bj] = kk
					}
					_ = i
				}
			}
			blossombestedges[bv] = nil
			bestedge[bv] = -1
		}
		be := make([]int, 0)
		for _, kk := range bestedgeto {
			if kk != -1 {
				be = append(be, kk)
			}
		}
		blossombestedges[b] = be
		bestedge[b] = -1
		for _, kk := range blossombestedges[b] {
			if bestedge[b] == -1 || slack(kk) < slack(bestedge[b]) {
				bestedge[b] = kk
			}
		}
	}

	expandBlossom = func(b int, endstage bool) {
		for _, s := range blossomchilds[b] {
			blossomparent[s] = -1
			if s < n {
				inblossom[s] = s
			} else if endstage && dualvar[s] == 0 {
				expandBlossom(s, endstage)
			} else {
				var leaves []int
				blossomLeaves(s, &leaves)
				for _, leaf := range leaves {
					inblossom[leaf] = s
				}
			}
		}
		if !endstage && label[b] == 2 {
			// The expanding blossom was reached through labelend[b];
			// relabel the even-length half of the cycle path and clear the
			// other half, exactly as in the reference implementation.
			entrychild := inblossom[endpoint[labelend[b]^1]]
			j := 0
			for i, s := range blossomchilds[b] {
				if s == entrychild {
					j = i
					break
				}
			}
			var jstep, endptrick int
			if j&1 != 0 {
				j -= len(blossomchilds[b])
				jstep = 1
				endptrick = 0
			} else {
				jstep = -1
				endptrick = 1
			}
			nEndps := len(blossomendps[b])
			p := labelend[b]
			for j != 0 {
				label[endpoint[p^1]] = 0
				q := blossomendps[b][mod(j-endptrick, nEndps)]
				label[endpoint[q^endptrick^1]] = 0
				assignLabel(endpoint[p^1], 2, p)
				allowedge[q/2] = true
				j += jstep
				p = blossomendps[b][mod(j-endptrick, nEndps)] ^ endptrick
				allowedge[p/2] = true
				j += jstep
			}
			bv := blossomchilds[b][0]
			label[endpoint[p^1]] = 2
			label[bv] = 2
			labelend[endpoint[p^1]] = p
			labelend[bv] = p
			bestedge[bv] = -1
			j += jstep
			nChilds := len(blossomchilds[b])
			for blossomchilds[b][mod(j, nChilds)] != entrychild {
				bv = blossomchilds[b][mod(j, nChilds)]
				if label[bv] == 1 {
					j += jstep
					continue
				}
				var leaves []int
				blossomLeaves(bv, &leaves)
				v := -1
				for _, leaf := range leaves {
					if label[leaf] != 0 {
						v = leaf
						break
					}
				}
				if v != -1 {
					label[v] = 0
					label[endpoint[matepnt[blossombase[bv]]]] = 0
					assignLabel(v, 2, labelend[v])
				}
				j += jstep
			}
		}
		label[b] = -1
		labelend[b] = -1
		blossomchilds[b] = nil
		blossomendps[b] = nil
		blossombase[b] = -1
		blossombestedges[b] = nil
		bestedge[b] = -1
		unusedblossoms = append(unusedblossoms, b)
	}

	augmentBlossom = func(b, v int) {
		t := v
		for blossomparent[t] != b {
			t = blossomparent[t]
		}
		if t >= n {
			augmentBlossom(t, v)
		}
		i := 0
		for idx, s := range blossomchilds[b] {
			if s == t {
				i = idx
				break
			}
		}
		j := i
		var jstep, endptrick int
		if i&1 != 0 {
			j -= len(blossomchilds[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		nChilds := len(blossomchilds[b])
		nEndps := len(blossomendps[b])
		for j != 0 {
			j += jstep
			t = blossomchilds[b][mod(j, nChilds)]
			p := blossomendps[b][mod(j-endptrick, nEndps)] ^ endptrick
			if t >= n {
				augmentBlossom(t, endpoint[p])
			}
			j += jstep
			t = blossomchilds[b][mod(j, nChilds)]
			if t >= n {
				augmentBlossom(t, endpoint[p^1])
			}
			matepnt[endpoint[p]] = p ^ 1
			matepnt[endpoint[p^1]] = p
		}
		// Rotate so the entry child comes first (fresh slices: the old
		// backing arrays must not be aliased mid-copy).
		rotatedChilds := make([]int, 0, nChilds)
		rotatedChilds = append(rotatedChilds, blossomchilds[b][i:]...)
		rotatedChilds = append(rotatedChilds, blossomchilds[b][:i]...)
		blossomchilds[b] = rotatedChilds
		rotatedEndps := make([]int, 0, nEndps)
		rotatedEndps = append(rotatedEndps, blossomendps[b][i:]...)
		rotatedEndps = append(rotatedEndps, blossomendps[b][:i]...)
		blossomendps[b] = rotatedEndps
		blossombase[b] = blossombase[blossomchilds[b][0]]
	}

	augmentMatching := func(k int) {
		// Match each endpoint to the edge's remote endpoint, then retrace
		// the alternating tree down to its root, flipping matched edges.
		for _, se := range [][2]int{{edges[k].i, 2*k + 1}, {edges[k].j, 2 * k}} {
			v, p := se[0], se[1]
			for {
				bs := inblossom[v]
				if bs >= n {
					augmentBlossom(bs, v)
				}
				matepnt[v] = p
				if labelend[bs] == -1 {
					break
				}
				t := endpoint[labelend[bs]]
				bt := inblossom[t]
				v = endpoint[labelend[bt]]
				w2 := endpoint[labelend[bt]^1]
				if bt >= n {
					augmentBlossom(bt, w2)
				}
				matepnt[w2] = labelend[bt]
				p = labelend[bt] ^ 1
			}
		}
	}

	// Main loop: at most n stages.
	for iter := 0; iter < n; iter++ {
		for i := range label {
			label[i] = 0
		}
		for i := range bestedge {
			bestedge[i] = -1
		}
		for i := n; i < 2*n; i++ {
			blossombestedges[i] = nil
		}
		for i := range allowedge {
			allowedge[i] = false
		}
		queue = queue[:0]
		for v := 0; v < n; v++ {
			if matepnt[v] == -1 && label[inblossom[v]] == 0 {
				assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for guard := 0; guard < maxIter; guard++ {
			for len(queue) > 0 && !augmented {
				v := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				for _, p := range neighbend[v] {
					k := p / 2
					wv := endpoint[p]
					if inblossom[v] == inblossom[wv] {
						continue
					}
					if !allowedge[k] {
						kslack := slack(k)
						if kslack <= 1e-12 {
							allowedge[k] = true
						}
					}
					if allowedge[k] {
						if label[inblossom[wv]] == 0 {
							assignLabel(wv, 2, p^1)
						} else if label[inblossom[wv]] == 1 {
							base := scanBlossom(v, wv)
							if base >= 0 {
								addBlossom(base, k)
							} else {
								augmentMatching(k)
								augmented = true
								break
							}
						} else if label[wv] == 0 {
							label[wv] = 2
							labelend[wv] = p ^ 1
						}
					} else if label[inblossom[wv]] == 1 {
						b := inblossom[v]
						if bestedge[b] == -1 || slack(k) < slack(bestedge[b]) {
							bestedge[b] = k
						}
					} else if label[wv] == 0 {
						if bestedge[wv] == -1 || slack(k) < slack(bestedge[wv]) {
							bestedge[wv] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// Dual update.
			deltatype := -1
			delta := math.Inf(1)
			var deltaedge, deltablossom int
			// delta1: minimum dual of a free S-vertex.
			for v := 0; v < n; v++ {
				if label[inblossom[v]] == 1 && dualvar[v] < delta {
					delta = dualvar[v]
					deltatype = 1
				}
			}
			// delta2: minimum slack of an edge from S-vertex to free vertex.
			for v := 0; v < n; v++ {
				if label[inblossom[v]] == 0 && bestedge[v] != -1 {
					d := slack(bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = bestedge[v]
					}
				}
			}
			// delta3: half minimum slack of an edge between S-blossoms.
			for b := 0; b < 2*n; b++ {
				if blossomparent[b] == -1 && label[b] == 1 && bestedge[b] != -1 {
					d := slack(bestedge[b]) / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = bestedge[b]
					}
				}
			}
			// delta4: minimum dual of a T-blossom.
			for b := n; b < 2*n; b++ {
				if blossombase[b] >= 0 && blossomparent[b] == -1 && label[b] == 2 &&
					(deltatype == -1 || dualvar[b] < delta) {
					delta = dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}
			if deltatype == -1 {
				// No progress possible: optimum reached for this stage.
				deltatype = 1
				minAll := math.Inf(1)
				for v := 0; v < n; v++ {
					if dualvar[v] < minAll {
						minAll = dualvar[v]
					}
				}
				delta = math.Max(0, minAll)
			}
			for v := 0; v < n; v++ {
				switch label[inblossom[v]] {
				case 1:
					dualvar[v] -= delta
				case 2:
					dualvar[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if blossombase[b] >= 0 && blossomparent[b] == -1 {
					switch label[b] {
					case 1:
						dualvar[b] += delta
					case 2:
						dualvar[b] -= delta
					}
				}
			}
			switch deltatype {
			case 1:
				// End of this stage.
				guard = maxIter // force exit
			case 2:
				allowedge[deltaedge] = true
				i := edges[deltaedge].i
				if label[inblossom[i]] == 0 {
					i = edges[deltaedge].j
				}
				queue = append(queue, i)
			case 3:
				allowedge[deltaedge] = true
				queue = append(queue, edges[deltaedge].i)
			case 4:
				expandBlossom(deltablossom, false)
			}
			if guard == maxIter {
				break
			}
		}
		if !augmented {
			break
		}
		// Expand all zero-dual top-level blossoms at end of stage.
		for b := n; b < 2*n; b++ {
			if blossomparent[b] == -1 && blossombase[b] >= 0 && label[b] == 1 && dualvar[b] == 0 {
				expandBlossom(b, true)
			}
		}
	}

	var total float64
	for v := 0; v < n; v++ {
		if matepnt[v] >= 0 {
			mate[v] = endpoint[matepnt[v]]
		}
	}
	for v := 0; v < n; v++ {
		if mate[v] > v {
			total += w(v, mate[v])
		}
	}
	return Matching{Mate: mate, Weight: total}
}

func mod(a, b int) int {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
