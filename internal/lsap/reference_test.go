package lsap_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/lsap/lsaptest"
)

// templateBlock builds a Block of n rows over nc classes whose profit rows
// are drawn from numTemplates template rows, so rows repeat bit for bit.
// Template entries mix ties, signed zeros, negative profits and random
// values. Class sizes are random; classCaps returns capacities that give
// zeroCaps of the classes (when they have columns to spare) no room.
func templateBlock(r *rand.Rand, n, nc, numTemplates int) *lsap.Block {
	specials := []float64{0, math.Copysign(0, -1), 1, 1, 0.5, -0.5, -2, 3}
	templates := make([][]float64, numTemplates)
	for k := range templates {
		templates[k] = make([]float64, nc)
		for l := range templates[k] {
			switch r.Intn(3) {
			case 0:
				templates[k][l] = specials[r.Intn(len(specials))]
			case 1:
				templates[k][l] = float64(r.Intn(4)) / 4
			default:
				templates[k][l] = r.NormFloat64()
			}
		}
	}
	classOf := make([]int, n)
	profits := make([][]float64, n)
	for i := range classOf {
		classOf[i] = r.Intn(nc)
		profits[i] = templates[r.Intn(numTemplates)]
	}
	return lsap.NewBlock(classOf, profits)
}

// classCaps returns capacities for b: each class's column count, with the
// columns of up to zeroCaps classes moved onto the other classes, so those
// classes keep their columns but take no row.
func classCaps(b *lsap.Block, r *rand.Rand, zeroCaps int) []int {
	counts := make([]int, b.NumClasses())
	for j := 0; j < b.N(); j++ {
		counts[b.Class(j)]++
	}
	caps := append([]int(nil), counts...)
	for ; zeroCaps > 0; zeroCaps-- {
		from := r.Intn(len(caps))
		moved := caps[from]
		caps[from] = 0
		for l := range caps {
			room := counts[l] - caps[l]
			if l == from || room == 0 {
				continue
			}
			take := min(room, moved)
			caps[l] += take
			moved -= take
		}
		caps[from] = moved // no room elsewhere: give the rest back
	}
	return caps
}

func checkReference(t *testing.T, b *lsap.Block, caps []int, ws *lsap.Workspace) {
	t.Helper()
	want, wantErr := lsaptest.HungarianClassed(b, caps)
	got, err := lsap.HungarianClassedWS(b, caps, ws)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("caps %v: error %v, reference %v", caps, err, wantErr)
	}
	if err != nil {
		return
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("caps %v: Value %v, reference %v", caps, got.Value, want.Value)
	}
	for i := range want.RowToCol {
		if got.RowToCol[i] != want.RowToCol[i] {
			t.Fatalf("caps %v: row %d to column %d, reference %d", caps, i, got.RowToCol[i], want.RowToCol[i])
		}
	}
}

func TestHungarianClassedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ws := lsap.NewWorkspace()
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(120)
		nc := 1 + r.Intn(12)
		b := templateBlock(r, n, nc, 1+r.Intn(2*nc))
		checkReference(t, b, classCaps(b, r, r.Intn(3)), ws)
	}
}

func FuzzHungarianClassedReference(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(5), uint8(6), uint8(1))
	f.Add(int64(2), uint8(200), uint8(21), uint8(40), uint8(0))
	f.Add(int64(3), uint8(12), uint8(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rn, rnc, rtemplates, rzero uint8) {
		n := 1 + int(rn)
		nc := 1 + int(rnc)%24
		r := rand.New(rand.NewSource(seed))
		b := templateBlock(r, n, nc, 1+int(rtemplates)%(2*nc+1))
		checkReference(t, b, classCaps(b, r, int(rzero)%3), nil)
	})
}
