package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/crowd"
	"github.com/htacs/ata/internal/solver"
)

// tinyOptions shrink the paper's sweeps hard so tests stay quick.
func tinyOptions() Options {
	return Options{Scale: 0.02, Runs: 1, Seed: 5}
}

func TestSweepTasksShape(t *testing.T) {
	rows, err := SweepTasks(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 7 sizes × 2 algorithms.
	if len(rows) != 14 {
		t.Fatalf("got %d rows, want 14", len(rows))
	}
	byAlgo := map[string][]Row{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
		if r.TotalSeconds < 0 || r.Objective <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
	}
	if len(byAlgo["hta-app"]) != 7 || len(byAlgo["hta-gre"]) != 7 {
		t.Fatalf("rows per algorithm: %d app, %d gre", len(byAlgo["hta-app"]), len(byAlgo["hta-gre"]))
	}
	// Figure 2b property: objectives are comparable (GRE within 2x of APP).
	for i := range byAlgo["hta-app"] {
		app, gre := byAlgo["hta-app"][i], byAlgo["hta-gre"][i]
		if app.NumTasks != gre.NumTasks {
			t.Fatalf("row alignment broken")
		}
		if gre.Objective < app.Objective/2 {
			t.Errorf("|T|=%d: GRE objective %g far below APP %g", gre.NumTasks, gre.Objective, app.Objective)
		}
	}
}

func TestSweepTasksGREFasterAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale sweep")
	}
	// Since the class-collapsed LSAP (PR 2), the exact assignment step no
	// longer dominates HTA-APP: the cubic Hungarian dropped to
	// O(|T|²·|W|). The sweep's APP rows must show that routing, so the
	// LSAP phase of the first one at |T| >= 1000 is held against the dense
	// Hungarian's on the same instance — a ratio no other phase of the
	// pipeline moves. It is ~270x at |T| = 1080, |W| = 24, measured on a
	// 2-vCPU x86-64 container, since the classed kernel reads a profit
	// table and skips repeated rows.
	o := Options{Scale: 0.12, Runs: 1, Seed: 7}
	rows, err := SweepTasks(o)
	if err != nil {
		t.Fatal(err)
	}
	o.applyDefaults()
	denseAPP := func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
		return solver.HTAAPP(in, append(opts, solver.WithDenseLSAP())...)
	}
	for _, r := range rows {
		if r.NumTasks < 1000 || r.Algorithm != "hta-app" {
			continue // only the largest points are informative
		}
		dense, err := measure(o, "hta-app-dense", denseAPP, r.NumGroups, r.NumTasks/r.NumGroups, r.NumWorkers)
		if err != nil {
			t.Fatal(err)
		}
		if r.LSAPSeconds == 0 || dense.LSAPSeconds == 0 {
			t.Fatalf("|T|=%d: no LSAP timing (classed %gs, dense %gs)", r.NumTasks, r.LSAPSeconds, dense.LSAPSeconds)
		}
		t.Logf("|T|=%d LSAP phase: classed %.4fs, dense %.4fs (%.0fx)", r.NumTasks, r.LSAPSeconds, dense.LSAPSeconds, dense.LSAPSeconds/r.LSAPSeconds)
		if r.LSAPSeconds*20 > dense.LSAPSeconds {
			t.Errorf("|T|=%d: exact LSAP phase (%.3fs) not 20x below the dense Hungarian's (%.3fs) — class collapse not routed?",
				r.NumTasks, r.LSAPSeconds, dense.LSAPSeconds)
		}
		return
	}
	t.Fatal("sweep reported no APP row at |T| >= 1000")
}

func TestSweepWorkersShape(t *testing.T) {
	rows, err := SweepWorkers(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("got %d rows, want 14", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		seen[r.NumWorkers] = true
	}
	if len(seen) != 7 {
		t.Fatalf("worker sweep has %d distinct sizes, want 7", len(seen))
	}
}

func TestSweepGroupsShape(t *testing.T) {
	rows, err := SweepGroups(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.NumGroups*max(1, r.NumTasks/r.NumGroups) > r.NumTasks+r.NumGroups {
			t.Fatalf("inconsistent group structure: %+v", r)
		}
	}
}

func TestSkipAPP(t *testing.T) {
	o := tinyOptions()
	o.SkipAPP = true
	rows, err := SweepTasks(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Algorithm == "hta-app" {
			t.Fatal("SkipAPP did not skip HTA-APP")
		}
	}
}

func TestRenderRows(t *testing.T) {
	rows, err := SweepTasks(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderRows(&buf, rows, "time"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "matching(s)") || !strings.Contains(out, "hta-gre") {
		t.Fatalf("time table missing columns:\n%s", out)
	}
	buf.Reset()
	if err := RenderRows(&buf, rows, "objective"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "objective") {
		t.Fatalf("objective table missing column:\n%s", buf.String())
	}
	if err := RenderRows(&buf, rows, "nope"); err == nil {
		t.Fatal("unknown table kind accepted")
	}
}

func TestSweepObjective(t *testing.T) {
	rows, err := SweepObjective(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes × 6 algorithms.
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 12", len(rows))
	}
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algorithm]++
		if r.Objective < 0 {
			t.Fatalf("negative objective: %+v", r)
		}
	}
	for _, want := range []string{"hta-app", "hta-gre", "hta-gre+ls", "hta-auction", "greedy-motiv", "random"} {
		if algos[want] != 2 {
			t.Fatalf("algorithm %q appears %d times, want 2 (%v)", want, algos[want], algos)
		}
	}
	// The local-search-polished variant must dominate plain GRE on each size.
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d", r.Algorithm, r.NumTasks)] = r.Objective
	}
	for _, size := range []int{rows[0].NumTasks, rows[len(rows)-1].NumTasks} {
		ls := byKey[fmt.Sprintf("hta-gre+ls/%d", size)]
		gre := byKey[fmt.Sprintf("hta-gre/%d", size)]
		if ls < gre-1e-9 {
			t.Errorf("|T|=%d: gre+ls %g below gre %g", size, ls, gre)
		}
	}
	// SkipAPP drops only hta-app.
	o := tinyOptions()
	o.SkipAPP = true
	rows, err = SweepObjective(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Algorithm == "hta-app" {
			t.Fatal("SkipAPP kept hta-app")
		}
	}
}

func TestSweepIterationLatency(t *testing.T) {
	rows, err := SweepIterationLatency(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	for i, r := range rows {
		if r.IterationSeconds < 0 || r.BatchSeconds <= 0 {
			t.Fatalf("row %d: %+v", i, r)
		}
		if i > 0 && r.PoolSize < rows[i-1].PoolSize {
			t.Fatalf("pool sizes not increasing: %+v", rows)
		}
		// The Section V-A claim at small scale: iteration latency fits the
		// worker batch budget by a wide margin.
		if r.IterationSeconds > r.BatchSeconds/10 {
			t.Errorf("row %d: iteration %gs too close to batch budget %gs",
				i, r.IterationSeconds, r.BatchSeconds)
		}
	}
	var buf bytes.Buffer
	if err := RenderLatency(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fits-in-background") {
		t.Fatalf("latency table missing column:\n%s", buf.String())
	}
}

func TestFig5FilteredPipeline(t *testing.T) {
	params := crowd.DefaultParams()
	params.SessionMinutes = 8
	params.PoolPerSession = 200
	res, err := Fig5(Fig5Options{SessionsPerStrategy: 2, Seed: 9, Params: &params, Filtered: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Filters == nil {
		t.Fatal("filtered run returned no filter counts")
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "selection pipeline") {
		t.Fatalf("render missing pipeline table:\n%s", buf.String())
	}
}

func TestFig5SmallRun(t *testing.T) {
	params := crowd.DefaultParams()
	params.SessionMinutes = 8
	params.PoolPerSession = 200
	res, err := Fig5(Fig5Options{SessionsPerStrategy: 2, Seed: 3, Params: &params})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != 8 {
		t.Fatalf("grid = %v", res.Grid)
	}
	for _, s := range crowd.Strategies {
		if len(res.Study.Sessions[s]) != 2 {
			t.Fatalf("strategy %s has %d sessions, want 2", s, len(res.Study.Sessions[s]))
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"minute", "totals:", "significance", "hta-gre-div"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
