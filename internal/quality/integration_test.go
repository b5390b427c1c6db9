package quality_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// These tests wire the quality tracker to the sharded assignment engine
// the way the platform does — replicated task IDs, trust pushed into the
// engine on gold grades — and check the two conservation laws hold
// together under concurrency (run with -race) and across snapshots.

const integK = 3 // answers per logical task

func integEngine(t *testing.T, shards int) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Config{
		Shards:        shards,
		StealInterval: -1,
		Registry:      obs.NewRegistry(),
		Stream:        stream.Config{Xmax: 3, BufferLimit: 4096, WithTrust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestEngineTrackerConservationUnderConcurrency drives concurrent
// offerers (each logical task replicated K times), completers that turn
// every engine completion into a tracker vote, and trust pushes on every
// gold grade. At quiescence both invariants must hold:
//
//	engine:  submitted == active + completed + buffered + dropped
//	tracker: answers == K·resolved + pending
//
// even though quarantines reject votes mid-flight and replicas race.
func TestEngineTrackerConservationUnderConcurrency(t *testing.T) {
	e := integEngine(t, 4)
	tr, err := quality.New(quality.Config{
		K: integK, Options: 4, GoldRate: 0.2, GoldSalt: 5,
		QuarantineFloor: 0.35, MinGold: 4,
		Metrics: quality.NewMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	workers := gen.Workers(16)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}

	const offerers, logicalEach = 3, 60
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Offerers: each logical task is observed once by the tracker (gold
	// marking is idempotent and replica-agnostic) and offered to the
	// engine K times under replica IDs, exactly as POST /api/tasks does.
	// Task lists are drawn up front — the generator is not goroutine-safe.
	perOfferer := make([][]*core.Task, offerers)
	for g := range perOfferer {
		perOfferer[g] = gen.Tasks(logicalEach/4+1, 4)[:logicalEach]
	}
	for g := 0; g < offerers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, task := range perOfferer[g] {
				id := fmt.Sprintf("o%d-%04d", g, i)
				tr.ObserveTask(id)
				for j := 0; j < integK; j++ {
					cp := *task
					cp.ID = quality.ReplicaID(id, j)
					if _, err := e.OfferTask(&cp); err != nil && !errors.Is(err, stream.ErrBufferFull) {
						t.Errorf("offerer %d: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Completers: complete an active replica, submit the vote for its
	// logical task, and on a trust update push the new value into the
	// engine — the same loop handleSubmitAnswer runs. Spammy options make
	// some workers fail gold checks and get quarantined mid-run.
	// The first landed vote closes voted: the completers are not stopped
	// before they had a chance to run, however fast the offerers finish.
	var pollers sync.WaitGroup
	voted := make(chan struct{})
	var firstVote sync.Once
	for c := 0; c < 3; c++ {
		pollers.Add(1)
		go func(c int) {
			defer pollers.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				wid := workers[rng.Intn(len(workers))].ID
				active, err := e.Active(wid)
				if err != nil || len(active) == 0 {
					continue
				}
				taskID := active[rng.Intn(len(active))]
				if _, err := e.Complete(wid, taskID); err != nil {
					continue
				}
				// Workers w00..w04 answer at random (spammers); the rest
				// always answer 1, matching nothing in particular but
				// consistent enough to survive gold checks sometimes.
				opt := 1
				if wid < "w05" || rng.Intn(10) == 0 {
					opt = rng.Intn(4)
				}
				res, serr := tr.Submit(wid, taskID, opt)
				if serr != nil {
					// Quarantined, duplicate (another replica of the same
					// logical task), or already resolved: all expected.
					if !errors.Is(serr, quality.ErrQuarantined) &&
						!errors.Is(serr, quality.ErrDuplicateVote) &&
						!errors.Is(serr, quality.ErrTaskResolved) {
						t.Errorf("submit: %v", serr)
						return
					}
					continue
				}
				firstVote.Do(func() { close(voted) })
				if res.TrustUpdated {
					if _, terr := e.SetTrust(wid, res.Trust); terr != nil {
						t.Errorf("set trust: %v", terr)
						return
					}
				}
			}
		}(c)
	}

	wg.Wait()
	select {
	case <-voted:
	case <-time.After(10 * time.Second):
	}
	close(stop)
	pollers.Wait()

	est := e.Stats()
	if want := int64(offerers * logicalEach * integK); est.Submitted != want {
		t.Fatalf("engine submitted %d, want %d", est.Submitted, want)
	}
	if !est.Conserved() {
		t.Fatalf("engine conservation violated: %+v", est)
	}
	qst := tr.Stats()
	if !qst.Conserved() {
		t.Fatalf("tracker conservation violated: answers=%d k=%d resolved=%d pending=%d",
			qst.AnswersSubmitted, qst.K, qst.TasksResolved, qst.PendingPartial)
	}
	if qst.AnswersSubmitted == 0 {
		t.Fatal("no votes landed — the completer loop never fed the tracker")
	}
	// Trust pushed into the engine must mirror the tracker's view for
	// every graded worker, including quarantined ones at exactly 0.
	for _, rep := range tr.Reputations() {
		if rep.GoldSeen == 0 {
			continue
		}
		got, err := e.Trust(rep.Worker)
		if err != nil {
			t.Fatalf("engine trust %s: %v", rep.Worker, err)
		}
		if got != rep.Trust {
			t.Fatalf("worker %s: engine trust %v, tracker trust %v", rep.Worker, got, rep.Trust)
		}
	}
}

// TestEngineTrackerSnapshotRoundTripAcrossShardCounts snapshots both
// halves mid-aggregation — partial answer sets, gold tallies, a
// quarantined worker — and restores the engine at a different shard
// count. Reputation must be bit-identical and the engine's per-worker
// trust must survive the re-shard.
func TestEngineTrackerSnapshotRoundTripAcrossShardCounts(t *testing.T) {
	e := integEngine(t, 2)
	cfg := quality.Config{
		K: integK, Options: 4, GoldRate: 0.25, GoldSalt: 11,
		QuarantineFloor: 0.4, MinGold: 3,
	}
	tr, err := quality.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	workers := gen.Workers(10)
	for _, w := range workers {
		if _, err := e.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i, task := range gen.Tasks(40, 4)[:120] {
		id := fmt.Sprintf("t%03d", i)
		tr.ObserveTask(id)
		for j := 0; j < integK; j++ {
			cp := *task
			cp.ID = quality.ReplicaID(id, j)
			if _, err := e.OfferTask(&cp); err != nil && !errors.Is(err, stream.ErrBufferFull) {
				t.Fatal(err)
			}
		}
	}
	// Drive a partial pass: complete and vote on roughly half the load so
	// the snapshot catches tasks mid-aggregation.
	for round := 0; round < 40; round++ {
		for _, w := range workers {
			active, err := e.Active(w.ID)
			if err != nil || len(active) == 0 {
				continue
			}
			taskID := active[0]
			if _, err := e.Complete(w.ID, taskID); err != nil {
				continue
			}
			opt := 1
			if w.ID <= workers[2].ID { // three spammers
				opt = rng.Intn(4)
			}
			res, serr := tr.Submit(w.ID, taskID, opt)
			if serr != nil {
				continue
			}
			if res.TrustUpdated {
				if _, err := e.SetTrust(w.ID, res.Trust); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if tr.Stats().PendingPartial == 0 {
		t.Fatal("test wants a mid-aggregation snapshot but nothing is pending")
	}

	var ebuf, qbuf bytes.Buffer
	if err := e.Snapshot(&ebuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Snapshot(&qbuf); err != nil {
		t.Fatal(err)
	}

	// Restore the engine at 5 shards instead of 2; the tracker has no
	// shard count, so restore is symmetric.
	e2, err := shard.Restore(bytes.NewReader(ebuf.Bytes()), shard.Config{
		Shards:        5,
		StealInterval: -1,
		Registry:      obs.NewRegistry(),
		Stream:        stream.Config{Xmax: 3, BufferLimit: 4096, WithTrust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	tr2, err := quality.Restore(bytes.NewReader(qbuf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}

	repA, repB := tr.Reputations(), tr2.Reputations()
	if len(repA) == 0 || len(repA) != len(repB) {
		t.Fatalf("reputation counts: %d vs %d", len(repA), len(repB))
	}
	quarantined := 0
	for i := range repA {
		if repA[i] != repB[i] {
			t.Fatalf("reputation diverged after restore: %+v vs %+v", repA[i], repB[i])
		}
		if repA[i].Quarantined {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("test wants at least one quarantined worker in the snapshot")
	}
	for _, w := range workers {
		before, err1 := e.Trust(w.ID)
		after, err2 := e2.Trust(w.ID)
		if err1 != nil || err2 != nil {
			t.Fatalf("trust %s: %v / %v", w.ID, err1, err2)
		}
		if before != after {
			t.Fatalf("worker %s: trust %v before restore, %v after", w.ID, before, after)
		}
	}
	if !e2.Stats().Conserved() {
		t.Fatalf("restored engine not conserved: %+v", e2.Stats())
	}
	if !tr2.Stats().Conserved() {
		t.Fatalf("restored tracker not conserved: %+v", tr2.Stats())
	}
}
