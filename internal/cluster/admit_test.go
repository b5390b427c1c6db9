package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// TestFilterBoundedByLiveTasks runs 100000 offer+complete pairs through a
// two-node loopback gateway from concurrent clients, each holding one
// task across every checkpoint, and checks that the gateway's Admission
// holds exactly the live tasks: at ten checkpoints, and none once every
// task has completed. Under the race detector, which slows each RPC
// about sevenfold, it runs 20000 pairs.
func TestFilterBoundedByLiveTasks(t *testing.T) {
	const clients = 16
	pairs := 100_000
	if raceEnabled {
		pairs = 20_000
	}
	// Each node's workers have 2·clients slots, more than the clients can
	// hold at once, so every offer is assigned, never buffered.
	tc := newTestCluster(t, 2, 1, 64, 2*clients)
	gw := tc.gw
	workers, pool := testWorkload(t, 5, 8, 64)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for i, eng := range tc.engines {
		if eng.Stats().Workers == 0 {
			t.Fatalf("node %d got no worker", i)
		}
	}
	type held struct{ worker, task string }
	hold := make([]held, clients)
	check := func(when string, want int) {
		t.Helper()
		st := checkConserved(t, gw, when)
		if n := gw.adm.Len(); n != want || st.Active+st.Buffered != want {
			t.Fatalf("%s: filter holds %d IDs, %d active + %d buffered, want %d live",
				when, n, st.Active, st.Buffered, want)
		}
	}
	complete := func(h held) error {
		if h.task == "" {
			return nil
		}
		_, err := gw.Complete(h.worker, h.task)
		return err
	}
	perRound := pairs / 10 / clients
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := 0; j < perRound; j++ {
					id := fmt.Sprintf("c%d-p%d", c, round*perRound+j)
					wid, err := gw.OfferTask(&core.Task{ID: id, Keywords: pool[j%len(pool)].Keywords})
					if err != nil || wid == "" {
						t.Errorf("offer %s: %q, %v", id, wid, err)
						return
					}
					if err := complete(hold[c]); err != nil {
						t.Errorf("complete %s: %v", hold[c].task, err)
						return
					}
					hold[c] = held{wid, id}
				}
			}(c)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		check(fmt.Sprintf("after %d pairs", (round+1)*perRound*clients), clients)
	}
	for _, h := range hold {
		if err := complete(h); err != nil {
			t.Fatal(err)
		}
	}
	check("at the end", 0)
}

// TestDuplicateContract is the engine's duplicate contract through a
// two-node gateway with one-slot workers and one-task buffers: an ID is
// refused while it is buffered or active, and accepted again after a
// completion, a buffer-full drop or a removal-overflow drop.
func TestDuplicateContract(t *testing.T) {
	workers, pool := testWorkload(t, 9, 2, 8)
	task := func(id string) *core.Task { return &core.Task{ID: id, Keywords: pool[0].Keywords} }
	rows := []struct {
		name    string
		refused bool
		setup   func(t *testing.T, gw *Gateway, probe *core.Task)
	}{
		{"buffered", true, func(t *testing.T, gw *Gateway, probe *core.Task) {
			if wid, err := gw.OfferTask(probe); wid != "" || err != nil {
				t.Fatalf("probe: %q, %v, want buffered", wid, err)
			}
		}},
		{"active", true, func(t *testing.T, gw *Gateway, probe *core.Task) {
			mustAdd(t, gw, workers[0])
			if wid, err := gw.OfferTask(probe); wid == "" || err != nil {
				t.Fatalf("probe: %q, %v, want assigned", wid, err)
			}
		}},
		{"completed", false, func(t *testing.T, gw *Gateway, probe *core.Task) {
			mustAdd(t, gw, workers[0])
			wid, err := gw.OfferTask(probe)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := gw.Complete(wid, probe.ID); err != nil {
				t.Fatal(err)
			}
		}},
		{"buffer-full drop", false, func(t *testing.T, gw *Gateway, probe *core.Task) {
			fillNodes(t, gw, task)
			if _, err := gw.OfferTask(probe); !errors.Is(err, stream.ErrBufferFull) {
				t.Fatalf("probe: %v, want ErrBufferFull", err)
			}
			mustAdd(t, gw, workers[0]) // drains a filler: one buffer has room
		}},
		{"removal-overflow drop", false, func(t *testing.T, gw *Gateway, probe *core.Task) {
			mustAdd(t, gw, workers[0])
			if _, err := gw.OfferTask(probe); err != nil {
				t.Fatal(err)
			}
			fillNodes(t, gw, task)
			dropped, err := gw.RemoveWorker(workers[0].ID)
			if err != nil || len(dropped) != 1 || dropped[0].ID != probe.ID {
				t.Fatalf("removal dropped %v, %v, want the probe", dropped, err)
			}
			mustAdd(t, gw, workers[1]) // drains a filler: one buffer has room
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			gw := newTestCluster(t, 2, 1, 1, 1).gw
			probe := task("probe")
			row.setup(t, gw, probe)
			_, err := gw.OfferTask(probe)
			if refused := err != nil && strings.Contains(err.Error(), "duplicate"); refused != row.refused {
				t.Fatalf("re-offer err = %v, want refused = %v", err, row.refused)
			} else if !refused && err != nil {
				t.Fatalf("re-offer err = %v, want accepted", err)
			}
			checkConserved(t, gw, "after the re-offer")
		})
	}
}

func mustAdd(t *testing.T, gw *Gateway, w *core.Worker) {
	t.Helper()
	if _, err := gw.AddWorker(w); err != nil {
		t.Fatal(err)
	}
}

// fillNodes puts one task in each node's one-task buffer.
func fillNodes(t *testing.T, gw *Gateway, task func(string) *core.Task) {
	t.Helper()
	for i := range gw.Members() {
		if wid, err := gw.OfferTask(task(fmt.Sprintf("fill%d", i))); wid != "" || err != nil {
			t.Fatalf("filler %d: %q, %v, want buffered", i, wid, err)
		}
	}
}
