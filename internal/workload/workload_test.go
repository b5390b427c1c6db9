package workload

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/metric"
)

func mustGen(t *testing.T, cfg Config) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Universe: -1},
		{Universe: 3, KeywordsPerGroup: 5},
		{Universe: 3, KeywordsPerWorker: 9},
		{ZipfS: -2},
	}
	for i, cfg := range cases {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}

func TestDefaults(t *testing.T) {
	g := mustGen(t, Config{})
	if g.Universe() != 100 {
		t.Fatalf("Universe = %d, want default 100", g.Universe())
	}
}

func TestTasksShareGroupKeywords(t *testing.T) {
	g := mustGen(t, Config{Seed: 1})
	tasks := g.Tasks(4, 10)
	if len(tasks) != 40 {
		t.Fatalf("len = %d, want 40", len(tasks))
	}
	byGroup := map[string][]int{}
	for i, task := range tasks {
		byGroup[task.Group] = append(byGroup[task.Group], i)
	}
	if len(byGroup) != 4 {
		t.Fatalf("groups = %d, want 4", len(byGroup))
	}
	var j metric.Jaccard
	for _, idxs := range byGroup {
		for _, i := range idxs[1:] {
			if d := j.Distance(tasks[idxs[0]].Keywords, tasks[i].Keywords); d != 0 {
				t.Fatalf("tasks of the same group differ (d = %g)", d)
			}
		}
	}
}

func TestMoreGroupsMoreDiversity(t *testing.T) {
	// The Figure 3 premise: at fixed |T|, more groups → higher average
	// pairwise diversity.
	avg := func(numGroups, perGroup int) float64 {
		g := mustGen(t, Config{Seed: 7})
		tasks := g.Tasks(numGroups, perGroup)
		var j metric.Jaccard
		var sum float64
		var n int
		for a := 0; a < len(tasks); a++ {
			for b := a + 1; b < len(tasks); b++ {
				sum += j.Distance(tasks[a].Keywords, tasks[b].Keywords)
				n++
			}
		}
		return sum / float64(n)
	}
	low := avg(2, 30)  // 60 tasks, 2 groups
	high := avg(30, 2) // 60 tasks, 30 groups
	if high <= low {
		t.Fatalf("diversity with 30 groups (%g) not above 2 groups (%g)", high, low)
	}
}

func TestGroupMetadata(t *testing.T) {
	g := mustGen(t, Config{Seed: 3})
	groups := g.Groups(50)
	for _, grp := range groups {
		if grp.ID == "" || grp.Title == "" || grp.Requester == "" {
			t.Fatalf("incomplete metadata: %+v", grp)
		}
		if grp.Reward < 0.01 || grp.Reward > 0.13 {
			t.Fatalf("reward %g outside micro-task range", grp.Reward)
		}
		if got := grp.Keywords.Count(); got != 5 {
			t.Fatalf("group has %d keywords, want 5", got)
		}
	}
}

func TestWorkersValidAndVaried(t *testing.T) {
	g := mustGen(t, Config{Seed: 5})
	workers := g.Workers(200)
	ids := map[string]bool{}
	var alphaSum float64
	for _, w := range workers {
		if ids[w.ID] {
			t.Fatalf("duplicate worker id %s", w.ID)
		}
		ids[w.ID] = true
		if w.Keywords.Count() != 5 {
			t.Fatalf("worker has %d keywords, want 5", w.Keywords.Count())
		}
		if w.Alpha < 0 || w.Beta < 0 || math.Abs(w.Alpha+w.Beta-1) > 1e-9 {
			t.Fatalf("weights (%g,%g) not normalized", w.Alpha, w.Beta)
		}
		alphaSum += w.Alpha
	}
	if mean := alphaSum / 200; mean < 0.3 || mean > 0.7 {
		t.Fatalf("mean α = %g, want roughly centered", mean)
	}
}

func TestZipfSkewsKeywordPopularity(t *testing.T) {
	skewed := mustGen(t, Config{Seed: 11, ZipfS: 2.0})
	countTop := func(g *Generator) int {
		top := 0
		for _, grp := range g.Groups(300) {
			if grp.Keywords.Contains(0) {
				top++
			}
		}
		return top
	}
	mild := mustGen(t, Config{Seed: 11, ZipfS: 1.01})
	if countTop(skewed) <= countTop(mild) {
		t.Fatalf("stronger skew did not increase popularity of keyword 0 (%d vs %d)",
			countTop(skewed), countTop(mild))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := mustGen(t, Config{Seed: 9}).Tasks(3, 4)
	b := mustGen(t, Config{Seed: 9}).Tasks(3, 4)
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Keywords.Equal(b[i].Keywords) {
			t.Fatalf("generation not deterministic at task %d", i)
		}
	}
}

func TestKeywordNames(t *testing.T) {
	if Keyword(0) != "survey" {
		t.Errorf("Keyword(0) = %q", Keyword(0))
	}
	if !strings.HasPrefix(Keyword(10_000), "kw") {
		t.Errorf("Keyword(10000) = %q", Keyword(10_000))
	}
}

func TestTaskRoundTrip(t *testing.T) {
	g := mustGen(t, Config{Seed: 13})
	tasks := g.Tasks(3, 5)
	var buf bytes.Buffer
	if err := WriteTasks(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTasks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tasks) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(tasks))
	}
	for i := range tasks {
		if back[i].ID != tasks[i].ID || back[i].Group != tasks[i].Group ||
			back[i].Reward != tasks[i].Reward || !back[i].Keywords.Equal(tasks[i].Keywords) {
			t.Fatalf("task %d mismatch after round trip", i)
		}
	}
}

func TestWorkerRoundTrip(t *testing.T) {
	g := mustGen(t, Config{Seed: 17})
	workers := g.Workers(8)
	var buf bytes.Buffer
	if err := WriteWorkers(&buf, workers); err != nil {
		t.Fatal(err)
	}
	back, err := ReadWorkers(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(workers) {
		t.Fatalf("round trip lost workers")
	}
	for i := range workers {
		if back[i].ID != workers[i].ID || back[i].Alpha != workers[i].Alpha ||
			!back[i].Keywords.Equal(workers[i].Keywords) {
			t.Fatalf("worker %d mismatch after round trip", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadTasks(strings.NewReader(`{"id":"x"`)); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadTasks(strings.NewReader(`{"id":"x","universe":0,"keywords":[]}`)); err == nil {
		t.Error("zero universe accepted")
	}
	if _, err := ReadWorkers(strings.NewReader(`{"id":"w","universe":-3}`)); err == nil {
		t.Error("negative universe accepted")
	}
}

// TestReadLiteralLines reads a task line and a worker line in the format
// WriteTasks and WriteWorkers wrote when a task's deadline came before its
// universe, and checks every value they carry.
func TestReadLiteralLines(t *testing.T) {
	tasks, err := ReadTasks(strings.NewReader(
		`{"id":"g0001-t000","group":"g0001","reward":0.07,"deadline":1500000000,"universe":100,"keywords":[0,1,37],"names":["survey","english","x"]}` + "\n" +
			`{"id":"g0001-t001","universe":100,"keywords":[]}` + "\n"))
	if err != nil || len(tasks) != 2 {
		t.Fatalf("ReadTasks: %d tasks, %v", len(tasks), err)
	}
	if tk := tasks[0]; tk.ID != "g0001-t000" || tk.Group != "g0001" || tk.Reward != 0.07 || tk.Deadline != 1500000000 ||
		tk.Keywords.Len() != 100 || !slices.Equal(tk.Keywords.Indices(), []int{0, 1, 37}) {
		t.Errorf("task = %+v", tk)
	}
	if tk := tasks[1]; tk.Group != "" || tk.Reward != 0 || tk.Deadline != 0 || tk.Keywords.Len() != 100 || tk.Keywords.Count() != 0 {
		t.Errorf("task = %+v", tk)
	}
	workers, err := ReadWorkers(strings.NewReader(`{"id":"w0007","alpha":0.125,"beta":0.875,"universe":100,"keywords":[5,50,99]}` + "\n"))
	if err != nil || len(workers) != 1 {
		t.Fatalf("ReadWorkers: %d workers, %v", len(workers), err)
	}
	if w := workers[0]; w.ID != "w0007" || w.Alpha != 0.125 || w.Beta != 0.875 ||
		w.Keywords.Len() != 100 || !slices.Equal(w.Keywords.Indices(), []int{5, 50, 99}) {
		t.Errorf("worker = %+v", w)
	}
}
