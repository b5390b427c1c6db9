package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// assigners is bare stream.Assigners as routing members: the in-process
// twin of a gateway over one-shard nodes, member i standing for node i.
type assigners []*stream.Assigner

func (m assigners) Scatter(_ context.Context, t *core.Task) []shard.Score {
	scores := make([]shard.Score, len(m))
	for i, a := range m {
		s := &scores[i]
		s.Gain, s.Rel, s.Free = a.BestGain(t)
		s.Backlog = a.Backlog()
	}
	return scores
}

func (m assigners) Rescore(context.Context, *core.Task, []shard.Score) {}

func (m assigners) Commit(_ context.Context, i int, t *core.Task) (string, bool) {
	return m[i].TryAssign(t)
}

func (m assigners) Buffer(_ context.Context, i int, t *core.Task) error { return m[i].BufferTask(t) }

// placedOn is the node the gateway's Admission places a live task on.
func placedOn(gw *Gateway, id string) string {
	for _, p := range gw.adm.Select(func(p placement) bool { return p.task != nil && p.task.ID == id }) {
		return p.node
	}
	return ""
}

func taskIDs(ts []*core.Task) []string {
	ids := make([]string, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// TestGatewayMatchesInProcessRoute: the transport cannot change a
// decision. N one-shard loopback nodes behind a gateway and N bare
// assigners routed by shard.Route in process, each worker on the assigner
// of the node the gateway pinned it to, take one seeded sequence of
// arrivals, departures, offers and completions. They agree on the worker
// or buffering member of every offer, the task every completion pulls,
// the tasks every arrival drains and every departure drops, the final
// backlogs and the objective's bits.
func TestGatewayMatchesInProcessRoute(t *testing.T) {
	const (
		xmax, buffer = 3, 6
		events       = 400
	)
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			tc := newTestCluster(t, n, 1, buffer, xmax)
			gw := tc.gw
			names := gw.Members()
			twin := make(assigners, n)
			for i := range twin {
				a, err := stream.NewAssigner(stream.Config{Xmax: xmax, BufferLimit: buffer,
					Metrics: stream.NewMetrics(obs.NewRegistry())})
				if err != nil {
					t.Fatal(err)
				}
				twin[i] = a
			}
			workers, tasks := testWorkload(t, int64(40+n), 24, events)
			home := map[string]int{} // present worker → member index
			var present []string
			rng := rand.New(rand.NewSource(int64(n)))
			next, offered, completed, buffered := 0, 0, 0, 0

			arrive := func(w *core.Worker) {
				t.Helper()
				gotDrain, err := gw.AddWorker(w)
				if err != nil {
					t.Fatalf("gateway AddWorker(%s): %v", w.ID, err)
				}
				i := slices.Index(names, ownerName(gw, w.ID))
				wantDrain, err := twin[i].AddWorker(w)
				if err != nil {
					t.Fatalf("twin AddWorker(%s): %v", w.ID, err)
				}
				if g, w := taskIDs(gotDrain), taskIDs(wantDrain); !slices.Equal(g, w) {
					t.Fatalf("arrival drained %v through the gateway, %v in process", g, w)
				}
				home[w.ID] = i
				present = append(present, w.ID)
			}
			for _, w := range workers[:8] {
				arrive(w)
			}
			for ev := 0; ev < events; ev++ {
				switch r := rng.Intn(20); {
				case r < 2: // arrival
					var absent []*core.Worker
					for _, w := range workers {
						if _, ok := home[w.ID]; !ok {
							absent = append(absent, w)
						}
					}
					if len(absent) > 0 {
						arrive(absent[rng.Intn(len(absent))])
					}
				case r < 4 && len(present) > 1: // departure
					k := rng.Intn(len(present))
					id := present[k]
					got, err := gw.RemoveWorker(id)
					if err != nil {
						t.Fatalf("gateway RemoveWorker(%s): %v", id, err)
					}
					want, err := twin[home[id]].RemoveWorker(id)
					if err != nil {
						t.Fatalf("twin RemoveWorker(%s): %v", id, err)
					}
					if g, w := taskIDs(got), taskIDs(want); !slices.Equal(g, w) {
						t.Fatalf("departure of %s dropped %v through the gateway, %v in process", id, g, w)
					}
					delete(home, id)
					present = slices.Delete(present, k, k+1)
				case r < 12 && next < len(tasks): // offer
					task := tasks[next]
					next++
					offered++
					gotW, gotErr := gw.OfferTask(task)
					wantW, at, wantErr := shard.Route(context.Background(), twin, task)
					if !errors.Is(gotErr, wantErr) || gotW != wantW {
						t.Fatalf("offer %s: gateway (%q, %v), in process (%q, %v)", task.ID, gotW, gotErr, wantW, wantErr)
					}
					if gotErr == nil && gotW == "" {
						buffered++
						if node := placedOn(gw, task.ID); node != names[at] {
							t.Fatalf("offer %s buffered on %s through the gateway, on %s in process", task.ID, node, names[at])
						}
					}
				default: // completion
					var busy []string
					for _, id := range present {
						if act, _ := twin[home[id]].Active(id); len(act) > 0 {
							busy = append(busy, id)
						}
					}
					if len(busy) == 0 {
						continue
					}
					id := busy[rng.Intn(len(busy))]
					act, _ := twin[home[id]].Active(id)
					tid := act[rng.Intn(len(act))]
					got, err := gw.Complete(id, tid)
					if err != nil {
						t.Fatalf("gateway Complete(%s, %s): %v", id, tid, err)
					}
					want, err := twin[home[id]].Complete(id, tid)
					if err != nil {
						t.Fatalf("twin Complete(%s, %s): %v", id, tid, err)
					}
					if (got == nil) != (want == nil) || got != nil && got.ID != want.ID {
						t.Fatalf("completion of %s on %s pulled %v through the gateway, %v in process", tid, id, got, want)
					}
					completed++
				}
			}
			t.Logf("offers %d completions %d buffered %d dropped %d", offered, completed, buffered, gw.Stats().Dropped)
			if offered < 100 || completed < 50 || buffered == 0 {
				t.Fatalf("sequence too thin: %d offers, %d completions, %d buffered", offered, completed, buffered)
			}
			st := checkConserved(t, gw, "after the sequence")
			var want float64
			for i, a := range twin {
				if got := st.PerShard[i].Backlog; got != a.BufferLen() {
					t.Fatalf("node %s backlog %d through the gateway, %d in process", names[i], got, a.BufferLen())
				}
				want += a.Objective()
			}
			if got := gw.Objective(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("objective %v through the gateway, %v in process", got, want)
			}
		})
	}
}

// TestGatewayBufferFullDropsAndAllowsReoffer is the engine's reject rule
// (shard's TestBufferFullDropsAndAllowsReoffer) through the gateway: when
// every node's buffer is full an offer fails with stream.ErrBufferFull
// and counts one drop, and its ID leaves the duplicate filter, so the
// same task is accepted once capacity frees.
func TestGatewayBufferFullDropsAndAllowsReoffer(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 1, 1)
	gw := tc.gw
	workers, tasks := testWorkload(t, 11, 2, 8)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	var full *core.Task
	for _, task := range tasks {
		if _, err := gw.OfferTask(task); err != nil {
			if !errors.Is(err, stream.ErrBufferFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			full = task
			break
		}
		checkConserved(t, gw, "while filling")
	}
	if full == nil {
		t.Fatal("2 slots + 2 buffer spaces never filled over 8 offers")
	}
	if st := checkConserved(t, gw, "after the drop"); st.Dropped != 1 {
		t.Fatalf("Dropped = %d after one rejected offer, want 1", st.Dropped)
	}
	// Free capacity: a completion pulls its node's buffered task into the
	// freed slot, so that node's buffer has room again.
	wid := workers[0].ID
	active, err := gw.ActiveTasks(wid)
	if err != nil || len(active) == 0 {
		t.Fatalf("worker %s has no active task: %v", wid, err)
	}
	if _, err := gw.Complete(wid, active[0].ID); err != nil {
		t.Fatal(err)
	}
	checkConserved(t, gw, "after the completion")
	if _, err := gw.OfferTask(full); err != nil {
		t.Fatalf("re-offer after drop: %v", err)
	}
	// Accepted now, the ID is in the filter again.
	if _, err := gw.OfferTask(full); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second re-offer of an accepted task: %v, want a duplicate error", err)
	}
	if st := checkConserved(t, gw, "after the re-offer"); st.Dropped != 1 {
		t.Fatalf("Dropped = %d after the re-offer, want 1", st.Dropped)
	}
}
