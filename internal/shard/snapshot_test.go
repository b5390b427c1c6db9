package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
)

// populate drives the engine into a mixed state: full workers, buffered
// backlog, completions, one departure. Returns the engine for chaining.
func populatedEngine(t *testing.T, shards int) *Engine {
	t.Helper()
	e := testEngine(t, Config{
		Shards: shards, StealInterval: -1,
		Stream: stream.Config{Xmax: 2, BufferLimit: 16},
	})
	workers, tasks := genWorkload(17, 8, 30)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := e.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	// Complete a task on each of three workers so done counters are
	// non-zero and the buffer has been pulled from.
	for _, wid := range e.WorkerIDs()[:3] {
		active, err := e.Active(wid)
		if err != nil || len(active) == 0 {
			continue
		}
		if _, err := e.Complete(wid, active[0]); err != nil {
			t.Fatal(err)
		}
	}
	// One departure: requeues its active set.
	if _, err := e.RemoveWorker(workers[7].ID); err != nil {
		t.Fatal(err)
	}
	return e
}

// workerView flattens per-worker state for comparison across a
// snapshot/restore cycle.
func workerView(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, wid := range e.WorkerIDs() {
		active, err := e.Active(wid)
		if err != nil {
			t.Fatal(err)
		}
		done, err := e.Completed(wid)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(active)
		out[wid] = fmt.Sprintf("%s|%d", strings.Join(active, ","), done)
	}
	return out
}

func sameStats(a, b Stats) bool {
	return a.Submitted == b.Submitted && a.Completed == b.Completed &&
		a.Active == b.Active && a.Buffered == b.Buffered && a.Dropped == b.Dropped
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	if !before.Conserved() {
		t.Fatalf("pre-snapshot state not conserved: %+v", before)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
		Shards: 3, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 2, BufferLimit: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	after := r.Stats()
	if !after.Conserved() {
		t.Fatalf("restored state not conserved: %+v", after)
	}
	if !sameStats(before, after) {
		t.Fatalf("stats changed across restore:\n before %+v\n after  %+v", before, after)
	}
	if bw, aw := workerView(t, e), workerView(t, r); len(bw) != len(aw) {
		t.Fatalf("worker count changed: %d → %d", len(bw), len(aw))
	} else {
		for id, view := range bw {
			if aw[id] != view {
				t.Fatalf("worker %s state changed: %q → %q", id, view, aw[id])
			}
		}
	}
	// Same shard count → identical per-shard layout → the float summation
	// order is identical too: objectives must match exactly.
	if bo, ao := e.Objective(), r.Objective(); bo != ao {
		t.Fatalf("objective changed across restore: %g → %g", bo, ao)
	}
	// The restored engine keeps working: offering one more task succeeds.
	_, tasks := genWorkload(99, 0, 1)
	tasks[0].ID = "fresh-after-restore"
	if _, err := r.OfferTask(tasks[0]); err != nil {
		t.Fatalf("restored engine rejects new work: %v", err)
	}
	// And the duplicate filter survived the round trip: re-offering a task
	// some worker still holds must be rejected.
	held, err := r.ActiveTasks(r.WorkerIDs()[0])
	if err != nil || len(held) == 0 {
		t.Fatalf("first restored worker has no active tasks: %v", err)
	}
	if _, err := r.OfferTask(held[0]); err == nil {
		t.Fatal("restored engine accepted a task it already holds")
	}
}

// TestRestoreTwiceKeepsCompletions: completions made before a restore
// carry through a second snapshot and restore whole, so the law still
// closes after any number of restarts.
func TestRestoreTwiceKeepsCompletions(t *testing.T) {
	cfg := Config{Shards: 2, StealInterval: -1, Stream: stream.Config{Xmax: 2, BufferLimit: 16}}
	restart := func(e *Engine) *Engine {
		t.Helper()
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Registry = obs.NewRegistry()
		r, err := Restore(&buf, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}
	e := populatedEngine(t, 2)
	first := e.Stats()
	r := restart(e)
	if st := r.Stats(); !st.Conserved() || !sameStats(first, st) {
		t.Fatalf("first restore:\n before %+v\n after  %+v", first, st)
	}
	for _, wid := range r.WorkerIDs() {
		if active, err := r.Active(wid); err == nil && len(active) > 0 {
			if _, err := r.Complete(wid, active[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	second := r.Stats()
	if second.Completed <= first.Completed {
		t.Fatalf("no completions after the first restore: %d → %d", first.Completed, second.Completed)
	}
	if st := restart(r).Stats(); !st.Conserved() || !sameStats(second, st) {
		t.Fatalf("second restore:\n before %+v\n after  %+v", second, st)
	}
}

// TestRestoreRepartitions pins the re-sharding path: a snapshot taken at
// one shard count restores at another, workers land on their new ring
// shards, and the global picture (stats, objective, per-worker state) is
// unchanged.
func TestRestoreRepartitions(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	beforeView := workerView(t, e)
	beforeObj := e.Objective()
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 5} {
		r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
			Shards: shards, StealInterval: -1, Registry: obs.NewRegistry(),
			Stream: stream.Config{Xmax: 2, BufferLimit: 16},
		})
		if err != nil {
			t.Fatalf("restore into %d shards: %v", shards, err)
		}
		after := r.Stats()
		if !after.Conserved() {
			t.Fatalf("%d shards: restored state not conserved: %+v", shards, after)
		}
		if !sameStats(before, after) {
			t.Fatalf("%d shards: stats changed:\n before %+v\n after  %+v", shards, before, after)
		}
		afterView := workerView(t, r)
		for id, view := range beforeView {
			if afterView[id] != view {
				t.Fatalf("%d shards: worker %s state changed: %q → %q", shards, id, view, afterView[id])
			}
		}
		// Different shard count → different float summation order; compare
		// with tolerance.
		if diff := math.Abs(r.Objective() - beforeObj); diff > 1e-9 {
			t.Fatalf("%d shards: objective drifted by %g", shards, diff)
		}
		r.Close()
	}
}

// TestRestoreSmallerBufferDrops: restoring into less total buffer
// capacity than the snapshot held must drop the overflow — counted, so
// conservation still closes.
func TestRestoreSmallerBufferDrops(t *testing.T) {
	e := populatedEngine(t, 3)
	before := e.Stats()
	if before.Buffered < 2 {
		t.Fatalf("fixture has %d buffered tasks; need >= 2", before.Buffered)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(bytes.NewReader(buf.Bytes()), Config{
		Shards: 1, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 2, BufferLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := r.Stats()
	if !after.Conserved() {
		t.Fatalf("not conserved after lossy restore: %+v", after)
	}
	if after.Buffered != 1 {
		t.Fatalf("buffered %d with BufferLimit 1", after.Buffered)
	}
	wantDropped := before.Dropped + int64(before.Buffered-1)
	if after.Dropped != wantDropped {
		t.Fatalf("dropped %d, want %d (overflow counted)", after.Dropped, wantDropped)
	}
}

func TestRestoreRejectsBadDocuments(t *testing.T) {
	cfg := Config{Shards: 1, Registry: obs.NewRegistry(), Stream: stream.Config{Xmax: 2}}
	if _, err := Restore(strings.NewReader("{"), cfg); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := Restore(strings.NewReader(`{"version":9}`), cfg); err == nil {
		t.Error("unknown version accepted")
	}
	bad := `{"version":1,"shards":1,"submitted":1,"per_shard":[{"shard":0,
	  "workers":[{"id":"w1","alpha":0.5,"beta":0.5,"universe":4,"keywords":[9]}]}]}`
	if _, err := Restore(strings.NewReader(bad), cfg); err == nil {
		t.Error("out-of-universe keyword accepted")
	}
}

// TestSnapshotIsConsistentCut snapshots a 2-shard engine while two
// offerers and a completer run: an offer admitted before the cut must be
// placed or rejected inside it, so every snapshot restores conserved.
func TestSnapshotIsConsistentCut(t *testing.T) {
	cfg := Config{Shards: 2, StealInterval: -1, Stream: stream.Config{Xmax: 2, BufferLimit: 32}}
	e := testEngine(t, cfg)
	workers, tasks := genWorkload(23, 16, 64)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	run := func(step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		run(func(i int) error {
			task := *tasks[i%len(tasks)]
			task.ID = fmt.Sprintf("o%d-%06d", g, i)
			if _, err := e.OfferTask(&task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
				return err
			}
			return nil
		})
	}
	run(func(i int) error {
		w := workers[i%len(workers)]
		if active, err := e.Active(w.ID); err == nil && len(active) > 0 {
			_, _ = e.Complete(w.ID, active[0])
		}
		return nil
	})

	const snapshots = 40
	for i := 0; i < snapshots; i++ {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Registry = obs.NewRegistry()
		r, err := Restore(&buf, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		st := r.Stats()
		r.Close()
		if !st.Conserved() {
			t.Errorf("snapshot %d of %d restores unconserved: %+v", i+1, snapshots, st)
		}
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); !st.Conserved() || st.Submitted == 0 || st.Completed == 0 {
		t.Fatalf("engine after the run: %+v", st)
	}
}

// snapshotDoc is a snapshot in the format Snapshot has written since
// deadlines, trust and windows joined it, compacted: one shard, two
// workers with active tasks, one buffered task.
const snapshotDoc = `{"version":1,"shards":1,"submitted":9,"dropped":3,"expired":2,"per_shard":[{"shard":0,"completed":0,"dropped":0,"workers":[` +
	`{"id":"w1","alpha":0.25,"beta":0.75,"universe":16,"keywords":[1,4,9],"done":3,"active":[` +
	`{"id":"t1","group":"g1","reward":0.05,"universe":16,"keywords":[1,4],"deadline":1760000000123456789},` +
	`{"id":"t2","universe":16,"keywords":[]}],"trust":0.5,"window":1760000000999000000},` +
	`{"id":"w2","alpha":0.5,"beta":0.5,"universe":16,"keywords":[0,15],"done":1,"active":[{"id":"t3","group":"g2","universe":16,"keywords":[15]}]}],` +
	`"buffer":[{"id":"t4","reward":0.12,"universe":16,"keywords":[2,3],"deadline":1760000000500000000}]}]}`

// TestSnapshotLiteralDocument restores snapshotDoc, checks the values it
// carries, and snapshots the restored engine: the document must come back
// byte for byte, as the indented form Snapshot writes.
func TestSnapshotLiteralDocument(t *testing.T) {
	e, err := Restore(strings.NewReader(snapshotDoc), Config{Shards: 1, StealInterval: -1,
		Registry: obs.NewRegistry(), Stream: stream.Config{Xmax: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	w1, err := e.Worker("w1")
	if err != nil || w1.Alpha != 0.25 || w1.Beta != 0.75 || w1.Keywords.Len() != 16 ||
		fmt.Sprint(w1.Keywords.Indices()) != "[1 4 9]" {
		t.Fatalf("w1 = %+v, %v", w1, err)
	}
	if trust, _ := e.Trust("w1"); trust != 0.5 {
		t.Errorf("w1 trust %g, want 0.5", trust)
	}
	if wnd, _ := e.Window("w1"); wnd != 1760000000999000000 {
		t.Errorf("w1 window %d", wnd)
	}
	if done, _ := e.Completed("w1"); done != 3 {
		t.Errorf("w1 done %d, want 3", done)
	}
	active, _ := e.ActiveTasks("w1")
	if len(active) != 2 {
		t.Fatalf("w1 active = %v", taskIDs(active))
	}
	if t1 := active[0]; t1.ID != "t1" || t1.Group != "g1" || t1.Reward != 0.05 ||
		t1.Deadline != 1760000000123456789 || fmt.Sprint(t1.Keywords.Indices()) != "[1 4]" {
		t.Errorf("t1 = %+v", t1)
	}
	if t2 := active[1]; t2.ID != "t2" || t2.Keywords.Len() != 16 || t2.Keywords.Count() != 0 || t2.Deadline != 0 {
		t.Errorf("t2 = %+v", t2)
	}
	if st := e.Stats(); st.Submitted != 9 || st.Dropped != 3 || st.Expired != 2 ||
		st.Active != 3 || st.Buffered != 1 || !st.Conserved() {
		t.Errorf("stats %+v", st)
	}

	var want bytes.Buffer
	if err := json.Indent(&want, []byte(snapshotDoc), "", "  "); err != nil {
		t.Fatal(err)
	}
	want.WriteByte('\n')
	var got bytes.Buffer
	if err := e.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("snapshot of the restored engine:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
