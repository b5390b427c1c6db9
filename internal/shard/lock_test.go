package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
)

// TestLockProtocolUnderConcurrentReads races the engine-wide calls —
// Snapshot (decoded back through Restore), Stats, Objective, StealOnce and
// ExpireOnce — against offers, completions and worker churn, at 2 and 4
// shards. Snapshot takes the barrier for writing, so a nested read
// of it, or a lock-order cycle anywhere, would hang here: a watchdog
// fails the run with every goroutine's stack instead. At quiescence the
// engine, and an engine restored from its final snapshot, must be
// conserved. Run it under -race.
func TestLockProtocolUnderConcurrentReads(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const limit = 2 * time.Minute
			watchdog := time.AfterFunc(limit, func() {
				buf := make([]byte, 1<<20)
				panic(fmt.Sprintf("deadlock: lock protocol stress at %d shards still running after %v\n%s",
					shards, limit, buf[:runtime.Stack(buf, true)]))
			})
			defer watchdog.Stop()
			lockStress(t, shards)
		})
	}
}

func lockStress(t *testing.T, shards int) {
	var clock atomic.Int64
	clock.Store(1)
	cfg := Config{
		Shards:        shards,
		StealInterval: -1, // the stealer below runs the rounds
		StealBatch:    8,
		Stream:        stream.Config{Xmax: 2, BufferLimit: 32, Now: clock.Load},
	}
	e := testEngine(t, cfg)
	restoreCfg := func() Config {
		c := cfg
		c.Registry = obs.NewRegistry()
		return c
	}
	workers, _ := genWorkload(41, 16, 0)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}

	// The completer starts only once a sweep has expired a task, and each
	// offerer waits for that halfway through its tasks: completions would
	// otherwise pull every deadlined task out of the buffers before a
	// sweep sees it.
	firstExpiry := make(chan struct{})
	const offerers, tasksEach = 2, 150
	var events sync.WaitGroup
	for g := 0; g < offerers; g++ {
		events.Add(1)
		go func(g int) {
			defer events.Done()
			tasks, _ := genWorkloadTasks(int64(200+g), tasksEach)
			rng := rand.New(rand.NewSource(int64(g)))
			for i, task := range tasks {
				if i == tasksEach/2 {
					select {
					case <-firstExpiry:
					case <-time.After(10 * time.Second):
						t.Errorf("offerer %d: no task expired within 10s", g)
						return
					}
				}
				task.ID = fmt.Sprintf("o%d-%04d-%s", g, i, task.ID)
				if i%3 == 0 {
					task.Deadline = clock.Load() + int64(1+rng.Intn(2_000))
				}
				if _, err := e.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
					t.Errorf("offerer %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	events.Add(1)
	go func() {
		defer events.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 100; i++ {
			w := workers[rng.Intn(len(workers))]
			if _, err := e.RemoveWorker(w.ID); err != nil {
				t.Errorf("remove %s: %v", w.ID, err)
				return
			}
			if _, err := e.AddWorker(w); err != nil {
				t.Errorf("re-add %s: %v", w.ID, err)
				return
			}
		}
	}()

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	poll := func(f func() error) {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := f(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	poll(func() error {
		select {
		case <-firstExpiry:
		case <-stop:
			return nil
		}
		ids := e.WorkerIDs()
		if len(ids) == 0 {
			return nil
		}
		wid := ids[rng.Intn(len(ids))]
		if active, err := e.Active(wid); err == nil && len(active) > 0 {
			_, _ = e.CompleteRead(t.Context(), wid, active[rng.Intn(len(active))])
		}
		return nil
	})
	poll(func() error {
		var buf bytes.Buffer
		if err := e.Snapshot(&buf); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		r, err := Restore(&buf, restoreCfg())
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		r.Close()
		return nil
	})
	poll(func() error {
		e.Stats()
		e.Objective()
		return nil
	})
	poll(func() error { e.StealOnce(); return nil })
	expired := false
	poll(func() error {
		if e.ExpireOnce(clock.Add(50)) > 0 && !expired {
			expired = true
			close(firstExpiry)
		}
		return nil
	})

	events.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for st := e.Stats(); (st.Completed == 0 || st.Expired == 0) && time.Now().Before(deadline); st = e.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	pollers.Wait()

	st := e.Stats()
	if want := int64(offerers * tasksEach); st.Submitted != want {
		t.Fatalf("submitted %d, want %d", st.Submitted, want)
	}
	if !st.Conserved() {
		t.Fatalf("conservation violated at quiescence: %+v", st)
	}
	if st.Completed == 0 || st.Expired == 0 {
		t.Fatalf("completed %d, expired %d: the completer and the expirer must both have run", st.Completed, st.Expired)
	}
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf, restoreCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rs := r.Stats(); !rs.Conserved() || rs.Submitted != st.Submitted || rs.Active+rs.Buffered != st.Active+st.Buffered {
		t.Fatalf("restored %+v from %+v", rs, st)
	}
}

// TestCloseStopsEveryGoroutine checks that an engine built by New or by
// Restore, with stealing and expiry on, leaves no goroutine behind after
// Close.
func TestCloseStopsEveryGoroutine(t *testing.T) {
	cfg := Config{
		Shards:         2,
		StealInterval:  time.Millisecond,
		ExpireInterval: time.Millisecond,
		Registry:       obs.NewRegistry(),
		Stream:         stream.Config{Xmax: 2, BufferLimit: 16},
	}
	workers, tasks := genWorkload(5, 4, 24)
	var snap bytes.Buffer
	base := runtime.NumGoroutine()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, task := range tasks {
		if _, err := e.OfferTask(task); err != nil && !errors.Is(err, stream.ErrBufferFull) {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond) // let both loops tick
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	e.Close()
	awaitGoroutines(t, base, "New")

	cfg.Registry = obs.NewRegistry()
	r, err := Restore(&snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	r.Close()
	awaitGoroutines(t, base, "Restore")
}

// awaitGoroutines waits up to two seconds for the goroutine count to fall
// back to base.
func awaitGoroutines(t *testing.T, base int, from string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("engine from %s: %d goroutines after Close, %d before\n%s",
			from, n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestIdleEngineStartsNoGoroutine checks that an engine with stealing and
// expiry off runs every shard call in its callers' goroutines and starts
// none of its own, at one shard (where stealing is always off) and at
// four.
func TestIdleEngineStartsNoGoroutine(t *testing.T) {
	for _, cfg := range []Config{{Shards: 1}, {Shards: 4, StealInterval: -1}} {
		cfg.Registry = obs.NewRegistry()
		cfg.Stream = stream.Config{Xmax: 2}
		base := runtime.NumGoroutine()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		workers, tasks := genWorkload(1, 1, 1)
		if _, err := e.AddWorker(workers[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := e.OfferTask(tasks[0]); err != nil {
			t.Fatal(err)
		}
		n := runtime.NumGoroutine()
		e.Close()
		if n > base {
			t.Fatalf("%d shards: %d goroutines with the engine open, %d before", cfg.Shards, n, base)
		}
	}
}
