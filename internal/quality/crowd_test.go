package quality

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"
)

// The trust layer's answer-quality claim, the form of the paper's
// Figure 5a accuracy measurement that this layer makes: under a mixed
// honest/spammy crowd, paying for redundancy k and trust-aware
// aggregation buys answer accuracy. One simulated crowd answers the same
// task set at k ∈ {1, 3, 5}; gold tasks are injected at the tracker's
// configured rate, grades drive the online accuracy estimates and
// quarantines exactly as the platform does, and every resolved task is
// scored against ground truth under all three aggregators.
//
//	go test ./internal/quality -run TestSpammyCrowdAccuracyByRedundancy -v
//
// BENCH_PR8.json at the repository root holds the same figures as
// accuracies, and the reference timings the test bounds.

// The crowd. It needs enough tasks per worker for the accuracy
// estimates to converge.
const (
	crowdTasks     = 360  // logical tasks offered (gold included)
	crowdWorkers   = 60   // crowd size
	crowdOptions   = 4    // answer alphabet L
	crowdSpamFrac  = 0.4  // fraction of workers answering uniformly at random
	crowdHonestAcc = 0.85 // P(truth) for the rest
	crowdGoldRate  = 0.2  // tracker auto-gold fraction
	crowdSeed      = 1
)

// crowdResult is one redundancy level: correct answers per aggregator
// over the same evaluated (non-gold) tasks.
type crowdResult struct {
	Eval, Gold             int
	Majority, Weighted, EM int
	Quarantined            int
	Elapsed                time.Duration // simulation + all three aggregations
}

// simulateCrowd runs the crowd at redundancy k and scores the three
// aggregators on the identical vote sets.
func simulateCrowd(t *testing.T, k int) crowdResult {
	t.Helper()
	start := time.Now()
	rng := rand.New(rand.NewSource(crowdSeed + int64(100*k)))
	tr, err := New(Config{
		K: k, Options: crowdOptions,
		GoldRate: crowdGoldRate, GoldSalt: crowdSeed + 1,
		QuarantineFloor: 0.35, MinGold: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	spammers := int(crowdWorkers * crowdSpamFrac)
	var res crowdResult

	// Ground truth: gold tasks carry the tracker's synthesized answer (so
	// grading is consistent with scoring); the rest draw uniformly.
	truth := make([]int, crowdTasks)
	ids := make([]string, crowdTasks)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%04d", i)
		tr.ObserveTask(ids[i])
		if ans, ok := tr.GoldAnswer(ids[i]); ok {
			truth[i] = ans
			res.Gold++
		} else {
			truth[i] = rng.Intn(crowdOptions)
		}
	}

	answer := func(w, taskIdx int) int {
		if w < spammers || rng.Float64() >= crowdHonestAcc {
			return rng.Intn(crowdOptions)
		}
		return truth[taskIdx]
	}

	// The crowd answers task by task: k accepted submissions each, from
	// distinct workers, skipping anyone the tracker has quarantined —
	// exactly what the platform's replica re-assignment converges to.
	collected := make([]TaskVotes, 0, crowdTasks)
	index := make(map[string]int, crowdTasks)
	for i, id := range ids {
		var votes []Vote
		accepted := 0
		for _, w := range rng.Perm(crowdWorkers) {
			if accepted == k {
				break
			}
			wid := fmt.Sprintf("w%03d", w)
			opt := answer(w, i)
			sub, err := tr.Submit(wid, id, opt)
			if err != nil {
				continue // quarantined; replacement worker takes the slot
			}
			accepted++
			if !sub.Gold {
				votes = append(votes, Vote{Worker: wid, Option: opt})
			}
		}
		if len(votes) > 0 {
			collected = append(collected, TaskVotes{TaskID: id, Votes: votes})
			index[id] = i
		}
	}
	if !tr.Stats().Conserved() {
		t.Fatalf("k=%d: tracker conservation broken: %+v", k, tr.Stats())
	}

	// Weighted uses the gold-driven online estimates; EM learns from the
	// votes alone.
	acc := map[string]float64{}
	for _, rep := range tr.Reputations() {
		acc[rep.Worker] = rep.Accuracy
		if rep.Quarantined {
			res.Quarantined++
		}
	}
	em, err := Aggregate(collected, crowdOptions, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tv := range collected {
		want := truth[index[tv.TaskID]]
		if m, _ := Majority(tv.Votes, crowdOptions); m == want {
			res.Majority++
		}
		if w, _ := Weighted(tv.Votes, crowdOptions, acc, 0.5); w == want {
			res.Weighted++
		}
		if ArgMax(em.Posteriors[tv.TaskID]) == want {
			res.EM++
		}
	}
	res.Eval = len(collected)
	res.Elapsed = time.Since(start)
	return res
}

// TestSpammyCrowdAccuracyByRedundancy asserts the claim exactly at seed
// 1: 289 evaluated and 71 gold tasks at every k; at k = 3 and 5 both
// weighted and EM aggregation beat plain majority, and the gold loop
// quarantines more spammers as k grows. Each k's simulation and
// aggregation is also timed against its BENCH_PR8.json reference.
func TestSpammyCrowdAccuracyByRedundancy(t *testing.T) {
	want := []crowdResult{
		{Eval: 289, Gold: 71, Majority: 179, Weighted: 179, EM: 179, Quarantined: 1},
		{Eval: 289, Gold: 71, Majority: 213, Weighted: 245, EM: 246, Quarantined: 9},
		{Eval: 289, Gold: 71, Majority: 255, Weighted: 276, EM: 281, Quarantined: 21},
	}
	var ref struct {
		Points []struct {
			K         int   `json:"k"`
			ElapsedNs int64 `json:"elapsed_ns"`
		} `json:"points"`
	}
	data, err := os.ReadFile("../../BENCH_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Points) != len(want) {
		t.Fatalf("BENCH_PR8.json has %d points, want %d", len(ref.Points), len(want))
	}
	for i, k := range []int{1, 3, 5} {
		got := simulateCrowd(t, k)
		elapsed := got.Elapsed
		got.Elapsed = 0
		if got != want[i] {
			t.Errorf("k=%d:\n got %+v\nwant %+v", k, got, want[i])
		}
		if ref.Points[i].K != k {
			t.Fatalf("BENCH_PR8.json point %d is k=%d, want k=%d", i, ref.Points[i].K, k)
		}
		checkTiming(t, fmt.Sprintf("k=%d", k), elapsed, time.Duration(ref.Points[i].ElapsedNs))
	}
}

// timingBound fails a timed value past 11× its checked-in reference:
// loose enough for a loaded shared runner, tight enough to catch an
// order-of-magnitude collapse.
const timingBound = 11

func checkTiming(t *testing.T, name string, got, ref time.Duration) {
	t.Helper()
	if ref <= 0 {
		t.Fatalf("%s: reference time %v is not positive", name, ref)
	}
	ratio := float64(got) / float64(ref)
	t.Logf("%s: %v, %.2f× the reference %v", name, got, ratio, ref)
	if raceEnabled {
		return // the race detector's slowdown is not the code's
	}
	if ratio > timingBound {
		t.Errorf("%s: %v is %.1f× the reference %v (bound %d×)", name, got, ratio, ref, timingBound)
	}
}
