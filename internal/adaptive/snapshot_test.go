package adaptive

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// buildBusyEngine creates an engine mid-experiment: two workers, one
// iteration done, some completions recorded.
func buildBusyEngine(t *testing.T) *Engine {
	t.Helper()
	r := rand.New(rand.NewSource(15))
	e := newEngine(t, Config{Xmax: 4, ExtraRandomTasks: 1, Rand: r})
	if err := e.AddTasks(genTasks(r, 40)...); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if _, err := e.AddWorker(genWorker(id, 1, 2, 3)); err != nil {
			t.Fatal(err)
		}
	}
	sets, err := e.NextIteration()
	if err != nil {
		t.Fatal(err)
	}
	for wid, set := range sets {
		for i, task := range set {
			if i == 2 {
				break
			}
			if err := e.Complete(wid, task.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.SetAvailable("w2", false); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := buildBusyEngine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()), Config{Xmax: 4, ExtraRandomTasks: 1, Rand: rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Iteration() != e.Iteration() {
		t.Fatalf("iteration %d != %d", restored.Iteration(), e.Iteration())
	}
	if restored.PoolSize() != e.PoolSize() {
		t.Fatalf("pool %d != %d", restored.PoolSize(), e.PoolSize())
	}
	for _, id := range []string{"w1", "w2"} {
		orig, err := e.Worker(id)
		if err != nil {
			t.Fatal(err)
		}
		back, err := restored.Worker(id)
		if err != nil {
			t.Fatal(err)
		}
		if back.Alpha() != orig.Alpha() || back.Beta() != orig.Beta() {
			t.Fatalf("%s: weights (%g,%g) != (%g,%g)", id, back.Alpha(), back.Beta(), orig.Alpha(), orig.Beta())
		}
		if back.TotalCompleted != orig.TotalCompleted {
			t.Fatalf("%s: completed %d != %d", id, back.TotalCompleted, orig.TotalCompleted)
		}
		if back.Available != orig.Available {
			t.Fatalf("%s: availability mismatch", id)
		}
		if len(back.Assigned) != len(orig.Assigned) || len(back.Completed) != len(orig.Completed) {
			t.Fatalf("%s: assignment state mismatch", id)
		}
		if back.Observations() != orig.Observations() {
			t.Fatalf("%s: observations %d != %d", id, back.Observations(), orig.Observations())
		}
	}
}

// TestSnapshotRestoredEngineStillWorks verifies a restored engine can keep
// operating: completing a previously-assigned task and running the next
// iteration.
func TestSnapshotRestoredEngineStillWorks(t *testing.T) {
	e := buildBusyEngine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, Config{Xmax: 4, ExtraRandomTasks: 1, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := restored.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	// Complete a not-yet-done assigned task.
	var pending string
	for _, task := range ws.Assigned {
		done := false
		for _, c := range ws.Completed {
			if c.ID == task.ID {
				done = true
				break
			}
		}
		if !done {
			pending = task.ID
			break
		}
	}
	if pending == "" {
		t.Fatal("no pending task after restore")
	}
	if err := restored.Complete("w1", pending); err != nil {
		t.Fatalf("Complete on restored engine: %v", err)
	}
	sets, err := restored.NextIteration()
	if err != nil {
		t.Fatalf("NextIteration on restored engine: %v", err)
	}
	if len(sets["w1"]) == 0 {
		t.Fatal("restored engine assigned nothing")
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"bad version":     `{"version": 99}`,
		"bad universe":    `{"version":1,"pool":[{"id":"t","universe":0,"keywords":[]}]}`,
		"bad keyword":     `{"version":1,"pool":[{"id":"t","universe":4,"keywords":[9]}]}`,
		"unknown done id": `{"version":1,"workers":[{"id":"w","universe":4,"keywords":[1],"completed":["ghost"]}]}`,
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Restore(strings.NewReader(payload), Config{Xmax: 2})
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}

// TestRestoreLiteralDocument restores a snapshot in the format written
// before tasks carried deadlines, when a worker's keywords came before its
// weights, and checks every value it carries.
func TestRestoreLiteralDocument(t *testing.T) {
	doc := `{"version":1,"iteration":2,` +
		`"pool":[{"id":"t3","group":"g1","reward":0.05,"universe":16,"keywords":[1,2]}],` +
		`"workers":[{"id":"w1","universe":16,"keywords":[1,4,9],"alpha":0.3,"beta":0.7,` +
		`"available":true,"started":true,"total_completed":4,"div_gains":[0.1,0.2],"rel_gains":[0.3],` +
		`"assigned":[{"id":"t1","universe":16,"keywords":[1]},{"id":"t2","group":"g2","reward":0.1,"universe":16,"keywords":[4,9]}],` +
		`"completed":["t2"]}]}`
	e, err := Restore(strings.NewReader(doc), Config{Xmax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e.Iteration() != 2 || len(e.pool) != 1 {
		t.Fatalf("iteration %d, pool %d", e.Iteration(), len(e.pool))
	}
	if p := e.pool[0]; p.ID != "t3" || p.Group != "g1" || p.Reward != 0.05 || p.Keywords.Len() != 16 ||
		!slices.Equal(p.Keywords.Indices(), []int{1, 2}) || p.Deadline != 0 {
		t.Errorf("pool task = %+v", p)
	}
	ws, err := e.Worker("w1")
	if err != nil {
		t.Fatal(err)
	}
	if w := ws.Worker; w.Alpha != 0.3 || w.Beta != 0.7 || w.Keywords.Len() != 16 || !slices.Equal(w.Keywords.Indices(), []int{1, 4, 9}) {
		t.Errorf("worker = %+v", w)
	}
	if !ws.Available || !ws.started || ws.TotalCompleted != 4 ||
		!slices.Equal(ws.divGains, []float64{0.1, 0.2}) || !slices.Equal(ws.relGains, []float64{0.3}) {
		t.Errorf("worker state = %+v", ws)
	}
	if len(ws.Assigned) != 2 || len(ws.Completed) != 1 || ws.Completed[0] != ws.Assigned[1] {
		t.Fatalf("assigned %d, completed %d", len(ws.Assigned), len(ws.Completed))
	}
	if a := ws.Assigned[1]; a.ID != "t2" || a.Group != "g2" || a.Reward != 0.1 || !slices.Equal(a.Keywords.Indices(), []int{4, 9}) {
		t.Errorf("assigned task = %+v", a)
	}
}
