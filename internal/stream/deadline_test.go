package stream

import (
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
)

// dtask is task() with a deadline attached.
func dtask(id string, deadline int64, kw ...int) *core.Task {
	t := task(id, kw...)
	t.Deadline = deadline
	return t
}

// logicalClock returns a Now func reading a mutable instant.
func logicalClock(now *int64) func() int64 {
	return func() int64 { return *now }
}

func TestExpireDueRemovesAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	a := mustAssigner(t, Config{Xmax: 1, Metrics: m})
	// No workers: everything buffers.
	for _, tk := range []*core.Task{
		dtask("t1", 100, 0), dtask("t2", 200, 1), task("t3", 2), dtask("t4", 50, 3),
	} {
		if _, err := a.OfferTask(tk); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.DeadlinedBuffered(); got != 3 {
		t.Fatalf("DeadlinedBuffered = %d, want 3", got)
	}
	expired := a.ExpireDue(100)
	if len(expired) != 2 {
		t.Fatalf("expired %d tasks, want 2 (t1, t4)", len(expired))
	}
	ids := map[string]bool{}
	for _, tk := range expired {
		ids[tk.ID] = true
	}
	if !ids["t1"] || !ids["t4"] {
		t.Fatalf("expired %v, want t1 and t4", ids)
	}
	if a.BufferLen() != 2 || a.DeadlinedBuffered() != 1 {
		t.Fatalf("buffer = %d (deadlined %d), want 2 (1)", a.BufferLen(), a.DeadlinedBuffered())
	}
	if got := m.Expired.Value(); got != 2 {
		t.Fatalf("Expired metric = %v, want 2", got)
	}
	// Nothing due → no-op fast path.
	if again := a.ExpireDue(100); again != nil {
		t.Fatalf("second ExpireDue returned %v, want nil", again)
	}
}

func TestDeadlinePullEarliestFirstGainTiebreak(t *testing.T) {
	now := int64(1000)
	a := mustAssigner(t, Config{
		Xmax: 4, DeadlineAware: true, UrgencyHorizon: 500, Now: logicalClock(&now),
	})
	// Buffer before any worker exists. t-late has the best relevance for
	// the worker, but t-soon's deadline is earlier; both are urgent.
	if _, err := a.OfferTask(dtask("t-late", 1400, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(dtask("t-soon", 1200, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.OfferTask(task("t-none", 0, 1)); err != nil {
		t.Fatal(err)
	}
	assigned, err := a.AddWorker(wrk("w1", 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != 3 {
		t.Fatalf("drained %d tasks, want 3", len(assigned))
	}
	// Urgent EDF first (t-soon, then t-late), undeadlined last.
	if assigned[0].ID != "t-soon" || assigned[1].ID != "t-late" || assigned[2].ID != "t-none" {
		t.Fatalf("pull order = %s, %s, %s; want t-soon, t-late, t-none",
			assigned[0].ID, assigned[1].ID, assigned[2].ID)
	}
}

func TestDeadlinePullSkipsExpired(t *testing.T) {
	now := int64(1000)
	a := mustAssigner(t, Config{
		Xmax: 2, DeadlineAware: true, UrgencyHorizon: 500, Now: logicalClock(&now),
	})
	if _, err := a.OfferTask(dtask("t-dead", 900, 0)); err != nil {
		t.Fatal(err)
	}
	assigned, err := a.AddWorker(wrk("w1", 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(assigned) != 0 {
		t.Fatalf("pulled %d tasks, want 0 (only buffered task is past deadline)", len(assigned))
	}
	if got := a.ExpireDue(now); len(got) != 1 || got[0].ID != "t-dead" {
		t.Fatalf("ExpireDue = %v, want [t-dead]", got)
	}
}

func TestWindowAvoidsDepartingWorker(t *testing.T) {
	now := int64(0)
	a := mustAssigner(t, Config{
		Xmax: 1, DeadlineAware: true, UrgencyHorizon: 1000, Now: logicalClock(&now),
	})
	// w-leaving matches the task perfectly but departs at 500; w-staying is
	// a worse match with no known window.
	if _, err := a.AddWorker(wrk("w-leaving", 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddWorker(wrk("w-staying", 0, 5, 6)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetWindow("w-leaving", 500); err != nil {
		t.Fatal(err)
	}
	if w, _ := a.Window("w-leaving"); w != 500 {
		t.Fatalf("Window = %d, want 500", w)
	}
	q, err := a.OfferTask(dtask("t1", 800, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "w-staying" {
		t.Fatalf("deadlined task pinned to %q, want w-staying (w-leaving departs first)", q)
	}
	// Fallback: when every free worker departs before the deadline, the
	// task must still place rather than sit unassigned.
	q, err = a.OfferTask(dtask("t2", 800, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "w-leaving" {
		t.Fatalf("fallback pinned to %q, want w-leaving (only free worker)", q)
	}
	// Undeadlined tasks ignore windows entirely.
	if err := a.SetWindow("w-staying", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete("w-leaving", "t2"); err != nil {
		t.Fatal(err)
	}
	q, err = a.OfferTask(task("t3", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if q != "w-leaving" {
		t.Fatalf("undeadlined task pinned to %q, want w-leaving (best gain)", q)
	}
}

// TestDeadlineAwareNoDeadlinesBitIdentical drives two assigners — flag on
// and flag off — through the same random deadline-free event stream and
// requires identical decisions at every step: the flag alone must not
// change behaviour.
func TestDeadlineAwareNoDeadlinesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := mustAssigner(t, Config{Xmax: 3, BufferLimit: 64})
	aware := mustAssigner(t, Config{Xmax: 3, BufferLimit: 64, DeadlineAware: true})
	for w := 0; w < 4; w++ {
		id := "w" + string(rune('a'+w))
		kw := []int{rng.Intn(32), rng.Intn(32), rng.Intn(32)}
		wb := wrk(id, 0.5, kw...)
		wa := wrk(id, 0.5, kw...)
		if _, err := base.AddWorker(wb); err != nil {
			t.Fatal(err)
		}
		if _, err := aware.AddWorker(wa); err != nil {
			t.Fatal(err)
		}
	}
	active := map[string][]string{} // worker -> active task IDs (mirrors both)
	for i := 0; i < 500; i++ {
		if rng.Intn(3) < 2 {
			id := "t" + itoa(i)
			kw := []int{rng.Intn(32), rng.Intn(32)}
			q1, err1 := base.OfferTask(task(id, kw...))
			q2, err2 := aware.OfferTask(task(id, kw...))
			if q1 != q2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("event %d: offer diverged: (%q, %v) vs (%q, %v)", i, q1, err1, q2, err2)
			}
			if q1 != "" {
				active[q1] = append(active[q1], id)
			}
		} else {
			// Complete a random active task.
			var ids []string
			for w, ts := range active {
				if len(ts) > 0 {
					ids = append(ids, w)
				}
			}
			if len(ids) == 0 {
				continue
			}
			w := ids[rng.Intn(len(ids))]
			tid := active[w][0]
			active[w] = active[w][1:]
			n1, err1 := base.Complete(w, tid)
			n2, err2 := aware.Complete(w, tid)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("event %d: complete diverged: %v vs %v", i, err1, err2)
			}
			if (n1 == nil) != (n2 == nil) || (n1 != nil && n1.ID != n2.ID) {
				t.Fatalf("event %d: pull diverged: %v vs %v", i, n1, n2)
			}
			if n1 != nil {
				active[w] = append(active[w], n1.ID)
			}
		}
	}
}

// TestDeadlinePressureDoesNotStarveUndeadlined floods the assigner with a
// continuous stream of urgent deadlined tasks while a handful of
// undeadlined tasks wait, and asserts every undeadlined task is delivered
// once the urgent pressure clears a slot — urgency delays, never starves,
// because urgent work either ships or expires by its own deadline.
func TestDeadlinePressureDoesNotStarveUndeadlined(t *testing.T) {
	now := int64(0)
	a := mustAssigner(t, Config{
		Xmax: 1, BufferLimit: 256, DeadlineAware: true,
		UrgencyHorizon: 1 << 60, Now: logicalClock(&now),
	})
	if _, err := a.AddWorker(wrk("w1", 0.5, 0, 1)); err != nil {
		t.Fatal(err)
	}
	plain := map[string]bool{}
	delivered := map[string]bool{}
	for i := 0; i < 5; i++ {
		id := "plain" + itoa(i)
		plain[id] = true
		q, err := a.OfferTask(task(id, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if q != "" {
			delivered[id] = true
		}
	}
	mark := func(tk *core.Task) {
		if tk != nil {
			delivered[tk.ID] = true
		}
	}
	// The worker's slot is occupied by the first plain task already? No:
	// Xmax=1 and the first offer above went to the free slot.
	urgent := 0
	for round := 0; round < 400; round++ {
		now += 10
		// Keep urgent pressure on: two new urgent tasks per completion.
		for j := 0; j < 2; j++ {
			id := "urgent" + itoa(urgent)
			urgent++
			if _, err := a.OfferTask(dtask(id, now+300, 0, 1)); err != nil {
				t.Fatal(err)
			}
		}
		a.ExpireDue(now)
		// Complete whatever is active, pulling the next task.
		acts, _ := a.Active("w1")
		for _, tid := range acts {
			next, err := a.Complete("w1", tid)
			if err != nil {
				t.Fatal(err)
			}
			mark(next)
		}
	}
	// Drain: stop offering, let the backlog clear.
	for i := 0; i < 300; i++ {
		now += 10
		a.ExpireDue(now)
		acts, _ := a.Active("w1")
		for _, tid := range acts {
			next, err := a.Complete("w1", tid)
			if err != nil {
				t.Fatal(err)
			}
			mark(next)
		}
	}
	for id := range plain {
		if !delivered[id] {
			// The first plain task was assigned directly, never "pulled".
			if acts, _ := a.Active("w1"); len(acts) == 1 && acts[0] == id {
				continue
			}
			t.Errorf("undeadlined task %s starved (never delivered)", id)
		}
	}
}

// itoa is strconv.Itoa for small non-negative ints without the import.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
