package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/shard"
)

// tiny shrinks a workload so that a test runs it in well under a second,
// keeping its kind, its side call and the relations between its sizes.
func tiny(t *testing.T, name string) Shape {
	t.Helper()
	sh, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	switch sh.Kind {
	case Stream:
		sh.Workers, sh.Churners, sh.Xmax, sh.Cycle, sh.DigestSteps = 8, 4, 4, 32, 64
		sh.Fill = sh.Workers * sh.Xmax
		if sh.Hold > 0 {
			sh.BufferLimit, sh.Hold = 64, 96
		} else {
			sh.BufferLimit, sh.Fill = 16, sh.Fill/2
			sh.OfferEvery, sh.OfferBatch = 8, 8
		}
	case Cluster:
		sh.Workers, sh.Churners, sh.Xmax, sh.BufferLimit, sh.Fill, sh.Hold, sh.Cycle = 8, 4, 4, 32, 32, 16, 16
	case Batch:
		sh.Instances, sh.Tasks, sh.Groups, sh.Workers, sh.Xmax = 2, 60, 6, 4, 5
	}
	return sh
}

func run(t *testing.T, sh Shape, opt Options) *Result {
	t.Helper()
	if opt.Seconds == 0 {
		opt.Seconds = 0.2
	}
	if opt.Trace {
		opt.TracePath = filepath.Join(t.TempDir(), "trace.json")
	}
	res, err := Run(sh, opt)
	if err != nil {
		t.Fatalf("%s: %v", sh.Name, err)
	}
	return res
}

// benchmarkJSON is the part of BENCHMARK.json the code mirrors.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []Metric `json:"end_to_end"`
	PerLayer  []Metric `json:"per_layer"`
}

func names(ms []Metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]Value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestReportMatchesBenchmarkJSON runs every workload, untraced and
// traced, and checks that each run reports exactly the metrics
// BENCHMARK.json lists, and that the tables here mirror it.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	for i, m := range EndToEnd {
		if i >= len(bj.EndToEnd) || bj.EndToEnd[i] != (Metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}) {
			t.Errorf("end_to_end[%d]: code has %+v, BENCHMARK.json does not match", i, m)
		}
	}
	for i, m := range PerLayer {
		if i >= len(bj.PerLayer) || bj.PerLayer[i] != (Metric{Name: m.Name, Unit: m.Unit, Better: m.Better}) {
			t.Errorf("per_layer[%d]: code has %+v, BENCHMARK.json does not match", i, m)
		}
	}
	if len(bj.EndToEnd) != len(EndToEnd) || len(bj.PerLayer) != len(PerLayer) || len(bj.Workloads) != len(Workloads) {
		t.Errorf("BENCHMARK.json lists %d/%d/%d workloads/end_to_end/per_layer, the code %d/%d/%d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if i < len(bj.Workloads) && bj.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bj.Workloads[i].Name, w.Name)
		}
	}

	for _, w := range Workloads {
		sh := tiny(t, w.Name)
		res := run(t, sh, Options{Seed: 3})
		if !res.Line.Correct {
			t.Errorf("%s: incorrect run: %+v", w.Name, res.Detail.Checks)
		}
		if got := keys(res.Line.Metrics); !slices.Equal(got, names(EndToEnd)) {
			t.Errorf("%s untraced reports %v, want %v", w.Name, got, names(EndToEnd))
		}
		for name, v := range res.Line.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, must be positive", w.Name, name, v.Value)
			}
		}
		res = run(t, sh, Options{Seed: 3, Trace: true, Seconds: 0.4})
		if !res.Line.Correct {
			t.Errorf("%s traced: incorrect run: %+v", w.Name, res.Detail.Checks)
		}
		if got := keys(res.Line.Metrics); !slices.Equal(got, names(PerLayer)) {
			t.Errorf("%s traced reports %v, want %v", w.Name, got, names(PerLayer))
		}
	}
}

// TestSameSeedSameDecisions runs the single-client workloads twice on one
// seed. A timed phase shorter than a cycle runs a fixed number of steps,
// so the decision digest and the motivation of what workers received must
// repeat exactly.
func TestSameSeedSameDecisions(t *testing.T) {
	for _, name := range []string{"stream-deep", "stream-wide", "batch-solve"} {
		sh := tiny(t, name)
		a := run(t, sh, Options{Seed: 7, Seconds: 1e-6})
		b := run(t, sh, Options{Seed: 7, Seconds: 1e-6})
		if a.Detail.Digest == "" || a.Detail.Digest != b.Detail.Digest {
			t.Errorf("%s: digests %q and %q", name, a.Detail.Digest, b.Detail.Digest)
		}
		ma, mb := a.Line.Metrics["motivation_mean"].Value, b.Line.Metrics["motivation_mean"].Value
		if ma <= 0 || ma != mb {
			t.Errorf("%s: motivation_mean %v and %v", name, ma, mb)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	p := span{start: 0, end: 100}
	kids := []span{
		{start: 10, end: 30},
		{start: 20, end: 50},   // overlaps the first
		{start: 40, end: 45},   // inside the second
		{start: 90, end: 120},  // sticks out of the parent
		{start: 200, end: 300}, // outside the parent
		{start: 10, end: 30},   // a duplicate
	}
	if got := selfTime(p, kids); got != 50 {
		t.Errorf("selfTime = %d, want 50 (covered [10,50) and [90,100))", got)
	}
	if got := selfTime(p, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// TestBarrierProbesOncePerRound pauses three clients for a few rounds, one
// of them leaving early: every client paused in a round sees that round's
// single probe, and the one that leaves does not strand the others.
func TestBarrierProbesOncePerRound(t *testing.T) {
	b := newBarrier(3, 0)
	rounds := []int{5, 5, 2}
	got := make([][]int64, len(rounds))
	var wg sync.WaitGroup
	for i, n := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < n; r++ {
				got[i] = append(got[i], b.pause())
			}
			b.leave()
		}()
	}
	wg.Wait()
	for i, n := range rounds {
		for r := 0; r < n; r++ {
			if got[i][r] != got[0][r] || got[i][r] <= 0 {
				t.Errorf("round %d: client %d saw probe %d, client 0 saw %d", r, i, got[i][r], got[0][r])
			}
		}
	}
}

func TestStealField(t *testing.T) {
	line := []byte("cpu  1888399 0 166043 2898714 2212 0 71951 64179 0 0\ncpu0 871292 0 80006 1522004 2153 0 31636 33428 0 0\n")
	if got := stealField(line); got != 64179 {
		t.Errorf("stealField = %d, want 64179", got)
	}
	if got := stealField([]byte("cpu  1 2 3\ncpu0 1 2 3 4 5 6 7 8\n")); got != 0 {
		t.Errorf("stealField of a short line = %d, want 0", got)
	}
}

// TestCleanWindows keeps the windows without steal, and at least a
// quarter of all windows, the least stolen first.
func TestCleanWindows(t *testing.T) {
	for _, tc := range []struct{ stolen, want []int64 }{
		{[]int64{0, 3, 0, 1, 2, 0, 0, 5}, []int64{0, 0, 0, 0}},
		{[]int64{3, 1, 2, 5, 4, 1, 2, 6}, []int64{1, 1}},
		{[]int64{2, 0, 4, 3, 5, 6, 7, 8, 9}, []int64{0, 2, 3}},
	} {
		c := &client{}
		for _, s := range tc.stolen {
			c.windows = append(c.windows, window{stolen: s})
		}
		keep := cleanWindows([]*client{c})
		var got []int64
		for i := range c.windows {
			if keep[&c.windows[i]] {
				got = append(got, c.windows[i].stolen)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("stolen %v: kept %v, want %v", tc.stolen, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// leakyStats breaks conservation: it reports one more submitted task than
// the engine accounts for.
type leakyStats struct{ platform.StreamBackend }

func (l leakyStats) Stats() shard.Stats {
	st := l.StreamBackend.Stats()
	st.Submitted++
	return st
}

func TestBrokenConservationFailsTheRun(t *testing.T) {
	sh := tiny(t, "stream-deep")
	res := run(t, sh, Options{Seed: 1, wrap: func(b platform.StreamBackend) platform.StreamBackend { return leakyStats{b} }})
	if res.Line.Correct {
		t.Fatal("a backend breaking conservation passed the correctness gate")
	}
	for _, c := range res.Detail.Checks {
		if c.Name == "conserved" && c.OK {
			t.Errorf("conserved check passed: %s", c.Note)
		}
	}
}
