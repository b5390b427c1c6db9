package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/stream"
)

// TestPredictiveStealMovesBeforeWatermark pins the point of the demand
// forecaster: a shard whose *projected* backlog crosses the watermark
// donates work while its actual backlog is still at or under it — and the
// reactive engine, given the identical state, does nothing.
func TestPredictiveStealMovesBeforeWatermark(t *testing.T) {
	mk := func(predictive bool) *Engine {
		return testEngine(t, Config{
			Shards: 2, StealInterval: -1, StealWatermark: 4, StealBatch: 16,
			Predictive: predictive,
			Journal:    ops.NewJournal(64),
			Stream:     stream.Config{Xmax: 4, BufferLimit: 64},
		})
	}
	setup := func(e *Engine) *core.Worker {
		workers, tasks := genWorkload(21, 40, 12)
		var recv *core.Worker
		for _, w := range workers {
			if e.ShardOf(w.ID) == 1 {
				recv = w
				break
			}
		}
		if recv == nil {
			t.Fatal("no generated worker hashes to shard 1")
		}
		if _, err := e.AddWorker(recv); err != nil {
			t.Fatal(err)
		}
		// Backlog exactly at the watermark: the reactive trigger
		// (backlog > watermark) stays quiet.
		for _, task := range tasks[:4] {
			e.adm.Accept()
			e.parts[0].call(func(asn *stream.Assigner) { _ = asn.BufferTask(task) })
		}
		return recv
	}

	reactive := mk(false)
	setup(reactive)
	if moved := reactive.StealOnce(); moved != 0 {
		t.Fatalf("reactive engine moved %d tasks with backlog == watermark", moved)
	}

	pred := mk(true)
	setup(pred)
	if !pred.Predictive() {
		t.Fatal("Predictive() false on a predictive engine")
	}
	// A burst the forecaster has seen but the queue has not yet absorbed:
	// arrival rate 50/round, horizon 3 → projected backlog 4 + 150.
	pred.forecast[0].RecordArrivals(50)
	pred.ForecastTick()
	moved := pred.StealOnce()
	if moved != 4 {
		t.Fatalf("predictive engine moved %d tasks, want 4 (full actual backlog)", moved)
	}
	if v := pred.metrics.ForecastBreaches.Value(); v < 1 {
		t.Fatalf("ForecastBreaches = %v after a proactive steal", v)
	}
	if !pred.Stats().Conserved() {
		t.Fatalf("conservation violated after predictive steal: %+v", pred.Stats())
	}
	var sawForecast bool
	for _, ev := range pred.journal.Snapshot(64) {
		if ev.Type == ops.EventForecast {
			sawForecast = true
		}
	}
	if !sawForecast {
		t.Fatal("no forecast_breach event journaled")
	}
}

// TestExpireOnceJournalsAndConserves checks the expiry sweep end to end:
// due tasks leave the buffer exactly once, are counted into Stats.Expired,
// journaled with their IDs, leave the duplicate filter, and the
// conservation equation keeps balancing.
func TestExpireOnceJournalsAndConserves(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1_000)
	j := ops.NewJournal(64)
	e := testEngine(t, Config{
		Shards: 1, StealInterval: -1, Journal: j,
		Stream: stream.Config{
			Xmax: 1, BufferLimit: 32, DeadlineAware: true,
			Now: clock.Load,
		},
	})
	// No workers: every offer buffers.
	_, tasks := genWorkload(5, 0, 4)
	for i, task := range tasks {
		if i < 3 {
			task.Deadline = 2_000
		}
		if _, err := e.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.ExpireOnce(1_500); n != 0 {
		t.Fatalf("ExpireOnce expired %d tasks before any deadline", n)
	}
	clock.Store(3_000)
	if n := e.ExpireOnce(clock.Load()); n != 3 {
		t.Fatalf("ExpireOnce expired %d tasks, want 3", n)
	}
	st := e.Stats()
	if st.Expired != 3 || st.Buffered != 1 {
		t.Fatalf("expired=%d buffered=%d, want 3 and 1", st.Expired, st.Buffered)
	}
	if !st.Conserved() {
		t.Fatalf("conservation violated after expiry: %+v", st)
	}
	if v := e.metrics.Expired.Value(); v != 3 {
		t.Fatalf("engine Expired counter = %v, want 3", v)
	}
	// An expired ID is no longer live, so it may be offered again.
	if _, err := e.OfferTask(tasks[0]); err != nil {
		t.Fatalf("re-offer of an expired task: %v", err)
	}
	var ev *ops.Event
	for _, cand := range j.Snapshot(64) {
		if cand.Type == ops.EventExpire {
			c := cand
			ev = &c
		}
	}
	if ev == nil {
		t.Fatal("no deadline_expire event journaled")
	}
	if ev.Attrs["count"] != "3" || ev.Attrs["tasks"] == "" {
		t.Fatalf("expire event attrs = %v, want count=3 with task IDs", ev.Attrs)
	}
}

// TestLearnedWindowAppliedOnReArrival drives the WindowTracker through
// the engine: two observed sessions teach it a mean session length, and
// the third arrival stamps the learned departure estimate onto the
// worker's shard so routing can avoid it. A declared window then takes
// precedence.
func TestLearnedWindowAppliedOnReArrival(t *testing.T) {
	const sec = int64(1_000_000_000)
	var clock atomic.Int64
	e := testEngine(t, Config{
		Shards: 1, StealInterval: -1, LearnWindows: true,
		Stream: stream.Config{Xmax: 1, DeadlineAware: true, Now: clock.Load},
	})
	workers, _ := genWorkload(9, 1, 0)
	w := workers[0]

	clock.Store(0)
	if _, err := e.AddWorker(w); err != nil {
		t.Fatal(err)
	}
	if wnd, _ := e.Window(w.ID); wnd != 0 {
		t.Fatalf("window %d before any observed session", wnd)
	}
	clock.Store(10 * sec) // session 1: 10s
	if _, err := e.RemoveWorker(w.ID); err != nil {
		t.Fatal(err)
	}

	clock.Store(30 * sec)
	if _, err := e.AddWorker(w); err != nil {
		t.Fatal(err)
	}
	if wnd, _ := e.Window(w.ID); wnd != 0 {
		t.Fatalf("window %d with only one observed session (MinSessions=2)", wnd)
	}
	clock.Store(50 * sec) // session 2: 20s → mean = 0.7·10 + 0.3·20 = 13s
	if _, err := e.RemoveWorker(w.ID); err != nil {
		t.Fatal(err)
	}

	clock.Store(100 * sec)
	if _, err := e.AddWorker(w); err != nil {
		t.Fatal(err)
	}
	wnd, err := e.Window(w.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := 113 * sec; wnd != want {
		t.Fatalf("learned window %d, want %d (arrival + 13s mean session)", wnd, want)
	}

	// Declarations override the learned estimate until the next departure.
	if err := e.SetWindow(w.ID, 500*sec); err != nil {
		t.Fatal(err)
	}
	if wnd, _ := e.Window(w.ID); wnd != 500*sec {
		t.Fatalf("declared window %d, want %d", wnd, 500*sec)
	}
}

// TestConservationWithExpiryUnderChurn is the PR 10 form of the engine's
// core property test: with offers (half deadlined), completions, steal
// rounds and expiry sweeps all racing, every submitted task lands in
// exactly one of {active, completed, buffered, dropped, expired} at
// quiescence. Run under -race this exercises the expiry path against the
// shard lock protocol.
//
// The completers start only once a sweep has expired a task, and each
// offerer waits for that first expiry halfway through its tasks: free
// slots would otherwise let every deadlined task be assigned before the
// sweep sees it, and the halfway wait keeps offers overlapping the
// completions.
func TestConservationWithExpiryUnderChurn(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1)
	e := testEngine(t, Config{
		Shards:        4,
		StealInterval: -1,
		StealBatch:    8,
		Stream: stream.Config{
			Xmax: 2, BufferLimit: 32, DeadlineAware: true,
			Now: clock.Load,
		},
	})
	workers, _ := genWorkload(31, 16, 0)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}

	const offerers, tasksEach = 4, 150
	var wg sync.WaitGroup
	stop := make(chan struct{})
	firstExpiry := make(chan struct{})

	for g := 0; g < offerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, _ := genWorkloadTasks(int64(100+g), tasksEach)
			rng := rand.New(rand.NewSource(int64(g)))
			for i, task := range gen {
				if i == tasksEach/2 {
					select {
					case <-firstExpiry:
					case <-time.After(10 * time.Second):
						t.Errorf("offerer %d: no task expired within 10s", g)
						return
					}
				}
				task.ID = fmt.Sprintf("o%d-%04d-%s", g, i, task.ID)
				if i%2 == 0 {
					// Deadlines from nearly-due to comfortably distant, so
					// the expirer catches a real share of the buffered ones.
					task.Deadline = clock.Load() + int64(1+rng.Intn(2_000))
				}
				if _, err := e.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
					t.Errorf("offerer %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	var pollers sync.WaitGroup
	for c := 0; c < 2; c++ {
		pollers.Add(1)
		go func(c int) {
			defer pollers.Done()
			select {
			case <-firstExpiry:
			case <-stop:
				return
			}
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := e.WorkerIDs()
				if len(ids) == 0 {
					continue
				}
				wid := ids[rng.Intn(len(ids))]
				active, err := e.Active(wid)
				if err != nil || len(active) == 0 {
					continue
				}
				_, _ = e.Complete(wid, active[rng.Intn(len(active))])
			}
		}(c)
	}

	// Expirer: advances the logical clock and sweeps — the clock only
	// moves forward, so a task's due-ness is monotonic.
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		expired := false
		for {
			select {
			case <-stop:
				return
			default:
				if e.ExpireOnce(clock.Add(100)) > 0 && !expired {
					expired = true
					close(firstExpiry)
				}
			}
		}
	}()

	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.StealOnce()
			}
		}
	}()

	wg.Wait()
	awaitCompletion(e)
	close(stop)
	pollers.Wait()
	// One final sweep at a far-future instant: whatever deadlined work is
	// still buffered must expire cleanly, not linger uncounted.
	e.ExpireOnce(clock.Load() + 1_000_000)

	st := e.Stats()
	if want := int64(offerers * tasksEach); st.Submitted != want {
		t.Fatalf("submitted %d, want %d", st.Submitted, want)
	}
	if !st.Conserved() {
		t.Fatalf("conservation violated at quiescence: submitted=%d active=%d completed=%d buffered=%d dropped=%d expired=%d",
			st.Submitted, st.Active, st.Completed, st.Buffered, st.Dropped, st.Expired)
	}
	if st.Completed == 0 {
		t.Fatal("no task completed")
	}
	if st.Expired == 0 {
		t.Fatal("no task expired — the sweep never caught a deadline")
	}
}

// TestSnapshotRoundTripDeadlinesWindowsExpired extends the snapshot
// contract to the predictive fields: task deadlines, worker windows and
// the expired counters all survive a save/restore, and the restored
// engine's conservation equation still closes after a further expiry.
func TestSnapshotRoundTripDeadlinesWindowsExpired(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1_000)
	cfg := Config{
		Shards: 2, StealInterval: -1,
		Stream: stream.Config{
			Xmax: 1, BufferLimit: 32, DeadlineAware: true,
			Now: clock.Load,
		},
	}
	e := testEngine(t, cfg)
	workers, tasks := genWorkload(13, 1, 6)
	w := workers[0]
	if _, err := e.AddWorker(w); err != nil {
		t.Fatal(err)
	}
	if err := e.SetWindow(w.ID, 9_000); err != nil {
		t.Fatal(err)
	}
	tasks[0].Deadline = 8_000 // assigned to w (Xmax 1)
	tasks[1].Deadline = 2_000 // buffered, expires before the snapshot
	tasks[2].Deadline = 5_000 // buffered, expires after the restore
	for _, task := range tasks[:4] {
		if _, err := e.OfferTask(task); err != nil {
			t.Fatal(err)
		}
	}
	clock.Store(3_000)
	if n := e.ExpireOnce(clock.Load()); n != 1 {
		t.Fatalf("pre-snapshot ExpireOnce = %d, want 1", n)
	}

	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = nil // fresh instruments for the restored engine
	r := func() *Engine {
		r, err := Restore(bytes.NewReader(buf.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		return r
	}()

	st := r.Stats()
	if st.Expired != 1 {
		t.Fatalf("restored Expired = %d, want 1", st.Expired)
	}
	if !st.Conserved() {
		t.Fatalf("restored engine not conserved: %+v", st)
	}
	if wnd, err := r.Window(w.ID); err != nil || wnd != 9_000 {
		t.Fatalf("restored window = %d (%v), want 9000", wnd, err)
	}
	// The buffered deadline survived the round trip: advancing past it
	// expires exactly the one task carrying it.
	clock.Store(6_000)
	if n := r.ExpireOnce(clock.Load()); n != 1 {
		t.Fatalf("post-restore ExpireOnce = %d, want 1", n)
	}
	st = r.Stats()
	if st.Expired != 2 {
		t.Fatalf("restored Expired after sweep = %d, want 2", st.Expired)
	}
	if !st.Conserved() {
		t.Fatalf("restored engine not conserved after sweep: %+v", st)
	}
}
