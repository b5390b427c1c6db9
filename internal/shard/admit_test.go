package shard

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
)

// TestFilterBoundedByLiveTasks runs 100000 offer+complete pairs, each
// completion lagging its offer by a few pairs, and checks that the
// duplicate filter holds exactly the live tasks: at ten checkpoints, and
// none once every task has completed.
func TestFilterBoundedByLiveTasks(t *testing.T) {
	const pairs, lag = 100_000, 8
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// 4 workers × Xmax 4 = 16 slots > lag+1 live tasks: every
			// offer is assigned, never buffered.
			e := testEngine(t, Config{Shards: shards, StealInterval: -1, Stream: stream.Config{Xmax: 4}})
			workers, pool := genWorkload(5, 4, 64)
			for _, w := range workers {
				if _, err := e.AddWorker(w); err != nil {
					t.Fatal(err)
				}
			}
			type held struct{ worker, task string }
			var live []held
			check := func(when string) {
				t.Helper()
				st := e.Stats()
				if n := e.adm.Len(); n != len(live) || st.Active+st.Buffered != len(live) {
					t.Fatalf("%s: filter holds %d IDs, %d active + %d buffered, want %d live",
						when, n, st.Active, st.Buffered, len(live))
				}
			}
			for i := 0; i < pairs; i++ {
				task := &core.Task{ID: fmt.Sprintf("p%d", i), Keywords: pool[i%len(pool)].Keywords}
				wid, err := e.OfferTask(task)
				if err != nil || wid == "" {
					t.Fatalf("offer %s: %q, %v", task.ID, wid, err)
				}
				live = append(live, held{wid, task.ID})
				if len(live) > lag {
					if _, err := e.Complete(live[0].worker, live[0].task); err != nil {
						t.Fatal(err)
					}
					live = live[1:]
				}
				if (i+1)%(pairs/10) == 0 {
					check(fmt.Sprintf("after %d pairs", i+1))
				}
			}
			for _, h := range live {
				if _, err := e.Complete(h.worker, h.task); err != nil {
					t.Fatal(err)
				}
			}
			live = nil
			check("at the end")
		})
	}
}

// TestDuplicateContract checks the filter's contract on engines of 1 and
// 3 shards with one-slot workers and one-task buffers: an ID is refused
// while it is buffered or active, and accepted again after a completion,
// a buffer-full drop, a removal-overflow drop or an expiry. An engine
// restored from a snapshot of each row's state answers the same.
func TestDuplicateContract(t *testing.T) {
	workers, pool := genWorkload(9, 2, 8)
	task := func(id string) *core.Task { return &core.Task{ID: id, Keywords: pool[0].Keywords} }
	offer := func(t *testing.T, e *Engine, tk *core.Task) (string, error) {
		t.Helper()
		wid, err := e.OfferTask(tk)
		if err != nil && !errors.Is(err, stream.ErrBufferFull) {
			t.Fatalf("offer %s: %v", tk.ID, err)
		}
		return wid, err
	}
	add := func(t *testing.T, e *Engine, w *core.Worker) {
		t.Helper()
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	// fill puts one task in every shard's buffer.
	fill := func(t *testing.T, e *Engine) {
		t.Helper()
		for i := 0; i < e.Shards(); i++ {
			if wid, err := offer(t, e, task(fmt.Sprintf("fill%d", i))); wid != "" || err != nil {
				t.Fatalf("filler %d: %q, %v, want buffered", i, wid, err)
			}
		}
	}
	// Each row's setup leaves the probe task in some state; a re-offer of
	// its ID must be refused exactly when the task is still live.
	rows := []struct {
		name    string
		refused bool
		setup   func(t *testing.T, e *Engine, probe *core.Task)
	}{
		{"buffered", true, func(t *testing.T, e *Engine, probe *core.Task) {
			if wid, err := offer(t, e, probe); wid != "" || err != nil {
				t.Fatalf("probe: %q, %v, want buffered", wid, err)
			}
		}},
		{"active", true, func(t *testing.T, e *Engine, probe *core.Task) {
			add(t, e, workers[0])
			if wid, _ := offer(t, e, probe); wid == "" {
				t.Fatal("probe not assigned")
			}
		}},
		{"completed", false, func(t *testing.T, e *Engine, probe *core.Task) {
			add(t, e, workers[0])
			wid, _ := offer(t, e, probe)
			if _, err := e.Complete(wid, probe.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"buffer-full drop", false, func(t *testing.T, e *Engine, probe *core.Task) {
			fill(t, e)
			if _, err := offer(t, e, probe); err == nil {
				t.Fatal("probe not dropped with every buffer full")
			}
			add(t, e, workers[0]) // drains a filler: one buffer has room
		}},
		{"removal-overflow drop", false, func(t *testing.T, e *Engine, probe *core.Task) {
			add(t, e, workers[0])
			offer(t, e, probe)
			fill(t, e)
			dropped, err := e.RemoveWorker(workers[0].ID)
			if err != nil || len(dropped) != 1 || dropped[0].ID != probe.ID {
				t.Fatalf("removal dropped %v, %v, want the probe", dropped, err)
			}
			add(t, e, workers[1]) // drains a filler: one buffer has room
		}},
		{"expired", false, func(t *testing.T, e *Engine, probe *core.Task) {
			probe.Deadline = 10
			offer(t, e, probe)
			if n := e.ExpireOnce(20); n != 1 {
				t.Fatalf("ExpireOnce expired %d tasks, want 1", n)
			}
		}},
	}
	for _, shards := range []int{1, 3} {
		cfg := Config{Shards: shards, StealInterval: -1, Stream: stream.Config{Xmax: 1, BufferLimit: 1}}
		for _, row := range rows {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, row.name), func(t *testing.T) {
				e := testEngine(t, cfg)
				probe := task("probe")
				row.setup(t, e, probe)
				var snap bytes.Buffer
				if err := e.Snapshot(&snap); err != nil {
					t.Fatal(err)
				}
				rcfg := cfg
				rcfg.Registry = obs.NewRegistry()
				r, err := Restore(&snap, rcfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.Close)
				for _, eng := range []struct {
					name string
					e    *Engine
				}{{"running", e}, {"restored", r}} {
					_, err := eng.e.OfferTask(probe)
					if refused := err != nil && strings.Contains(err.Error(), "duplicate"); refused != row.refused {
						t.Errorf("%s engine: re-offer err = %v, want refused = %v", eng.name, err, row.refused)
					} else if !refused && err != nil {
						t.Errorf("%s engine: re-offer err = %v, want accepted", eng.name, err)
					}
				}
			})
		}
	}
}
