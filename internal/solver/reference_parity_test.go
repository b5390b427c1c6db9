package solver

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/lsap/lsaptest"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/workload"
)

// batchInstance builds instance i of the batch-solve benchmark workload at
// seed 1: 1000 tasks in 20 groups over a 100-keyword universe, 20 workers
// with evenly spread weights, Xmax 20. The generator calls are those of
// the benchmark's instance builder, copied so this package does not depend
// on it.
func batchInstance(t testing.TB, i int) *core.Instance {
	t.Helper()
	s := int64(1)*1_000_003 + int64(i)
	gen, err := workload.NewGenerator(workload.Config{Universe: 100, Seed: s})
	if err != nil {
		t.Fatal(err)
	}
	tasks := gen.Tasks(20, 1000/20)
	workers := gen.Workers(20)
	rng := rand.New(rand.NewSource(s))
	for i, k := range rng.Perm(len(workers)) {
		p := (float64(k) + 0.5) / float64(len(workers))
		a := 1 / (3 - 2*p)
		if p < 0.5 {
			a = 2 * p / (1 + 2*p)
		}
		workers[i].Alpha, workers[i].Beta = a, 1-a
	}
	in, err := core.NewInstance(tasks, workers, 20, metric.Jaccard{})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestHTAAPPMatchesReferenceLSAP: on the 24 batch-solve instances, whose
// auxiliary LSAP has many bitwise-equal profit rows, HTAAPP's classed
// Hungarian returns the assignment and objective of the reference solver
// with the textbook inner loop, bit for bit.
func TestHTAAPPMatchesReferenceLSAP(t *testing.T) {
	for i := 0; i < 24; i++ {
		in := batchInstance(t, i)
		got, err := HTAAPP(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := HTAWith(in, "ref", lsaptest.HungarianClassedCensus)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Errorf("instance %d: objective %v, reference %v", i, got.Objective, want.Objective)
		}
		if !reflect.DeepEqual(got.Assignment.Sets, want.Assignment.Sets) {
			t.Errorf("instance %d: assignment differs from the reference", i)
		}
	}
}
