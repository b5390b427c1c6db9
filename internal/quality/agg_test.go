package quality

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randBatch builds a random vote matrix: nt tasks, nw workers, each
// worker answering each task with probability p.
func randBatch(rng *rand.Rand, nt, nw, options int, p float64) []TaskVotes {
	batch := make([]TaskVotes, nt)
	for i := range batch {
		batch[i].TaskID = fmt.Sprintf("t%03d", i)
		for w := 0; w < nw; w++ {
			if rng.Float64() < p {
				batch[i].Votes = append(batch[i].Votes, Vote{
					Worker: fmt.Sprintf("w%03d", w), Option: rng.Intn(options),
				})
			}
		}
	}
	return batch
}

// shuffleBatch returns a deep permutation: task order and the vote order
// within every task are both shuffled.
func shuffleBatch(rng *rand.Rand, batch []TaskVotes) []TaskVotes {
	out := make([]TaskVotes, len(batch))
	for i, j := range rng.Perm(len(batch)) {
		votes := append([]Vote(nil), batch[j].Votes...)
		rng.Shuffle(len(votes), func(a, b int) { votes[a], votes[b] = votes[b], votes[a] })
		out[i] = TaskVotes{TaskID: batch[j].TaskID, Votes: votes}
	}
	return out
}

// TestAggregatePermutationInvariant pins the determinism contract:
// shuffling tasks and votes yields bit-identical posteriors and
// accuracies, not merely close ones.
func TestAggregatePermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		options := 2 + rng.Intn(4)
		batch := randBatch(rng, 1+rng.Intn(20), 1+rng.Intn(12), options, 0.6)
		ref, err := Aggregate(batch, options, EMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for perm := 0; perm < 4; perm++ {
			got, err := Aggregate(shuffleBatch(rng, batch), options, EMConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for id, p := range ref.Posteriors {
				q, ok := got.Posteriors[id]
				if !ok {
					t.Fatalf("trial %d: permuted run lost task %s", trial, id)
				}
				for l := range p {
					if p[l] != q[l] { // bit-identical, not approximately equal
						t.Fatalf("trial %d task %s option %d: %v != %v after shuffle",
							trial, id, l, p[l], q[l])
					}
				}
			}
			for w, a := range ref.Accuracy {
				if got.Accuracy[w] != a {
					t.Fatalf("trial %d worker %s: accuracy %v != %v after shuffle",
						trial, w, got.Accuracy[w], a)
				}
			}
		}
	}
}

// TestAggregateEqualAccuracyDegradesToMajority: with zero M-steps every
// worker keeps the same InitAcc, so the posterior argmax must be exactly
// the majority winner on every task (count ties may legitimately differ —
// both rules break toward the lowest option index, and with equal
// per-vote evidence the posterior ranking equals the count ranking).
func TestAggregateEqualAccuracyDegradesToMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		options := 2 + rng.Intn(4)
		batch := randBatch(rng, 1+rng.Intn(15), 1+rng.Intn(10), options, 0.7)
		res, err := Aggregate(batch, options, EMConfig{Iters: -1, InitAcc: 0.7})
		if err != nil {
			t.Fatal(err)
		}
		for _, tv := range batch {
			if len(tv.Votes) == 0 {
				continue
			}
			want, _ := Majority(tv.Votes, options)
			if got := ArgMax(res.Posteriors[tv.TaskID]); got != want {
				t.Fatalf("trial %d task %s: EM argmax %d, majority %d (votes %v)",
					trial, tv.TaskID, got, want, tv.Votes)
			}
		}
	}
}

// TestWeightedEqualAccuracyDegradesToMajority: equal accuracy estimates
// give every vote the same log-odds weight, so the weighted winner is the
// majority winner.
func TestWeightedEqualAccuracyDegradesToMajority(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		options := 2 + rng.Intn(4)
		nv := 1 + rng.Intn(12)
		votes := make([]Vote, nv)
		acc := map[string]float64{}
		for i := range votes {
			w := fmt.Sprintf("w%02d", i)
			votes[i] = Vote{Worker: w, Option: rng.Intn(options)}
			acc[w] = 0.8
		}
		want, _ := Majority(votes, options)
		got, _ := Weighted(votes, options, acc, 0.8)
		if got != want {
			t.Fatalf("trial %d: weighted %d, majority %d (votes %v)", trial, got, want, votes)
		}
	}
}

// TestWeightedPrefersAccurateWorker: two accurate workers must outvote
// three at chance-level accuracy even though they are the count minority.
func TestWeightedPrefersAccurateWorker(t *testing.T) {
	votes := []Vote{
		{Worker: "good1", Option: 0},
		{Worker: "good2", Option: 0},
		{Worker: "bad1", Option: 1},
		{Worker: "bad2", Option: 1},
		{Worker: "bad3", Option: 1},
	}
	acc := map[string]float64{
		"good1": 0.95, "good2": 0.95,
		"bad1": 0.52, "bad2": 0.52, "bad3": 0.52,
	}
	if got, _ := Weighted(votes, 2, acc, 0.5); got != 0 {
		t.Fatalf("weighted winner %d, want the accurate minority's option 0", got)
	}
	if got, _ := Majority(votes, 2); got != 1 {
		t.Fatalf("majority winner %d, want 1 (sanity: the count majority)", got)
	}
}

// TestAggregateRecoversTruthFromSpammyCrowd: EM with gold-free input
// should still beat majority on a crowd where 40% answer uniformly at
// random — the core claim TestSpammyCrowdAccuracyByRedundancy checks
// end to end.
func TestAggregateRecoversTruthFromSpammyCrowd(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const options, nt, nw = 4, 120, 30
	truth := make([]int, nt)
	for i := range truth {
		truth[i] = rng.Intn(options)
	}
	batch := make([]TaskVotes, nt)
	for i := range batch {
		batch[i].TaskID = fmt.Sprintf("t%03d", i)
		for w := 0; w < nw; w++ {
			var opt int
			if w < nw*4/10 { // spammer: uniform noise
				opt = rng.Intn(options)
			} else if rng.Float64() < 0.85 { // honest, 85% accurate
				opt = truth[i]
			} else {
				opt = rng.Intn(options)
			}
			batch[i].Votes = append(batch[i].Votes, Vote{Worker: fmt.Sprintf("w%03d", w), Option: opt})
		}
	}
	res, err := Aggregate(batch, options, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var emOK, majOK int
	for i, tv := range batch {
		if ArgMax(res.Posteriors[tv.TaskID]) == truth[i] {
			emOK++
		}
		if m, _ := Majority(tv.Votes, options); m == truth[i] {
			majOK++
		}
	}
	if emOK < majOK {
		t.Fatalf("EM accuracy %d/%d below majority %d/%d", emOK, nt, majOK, nt)
	}
	if emOK < nt*9/10 {
		t.Fatalf("EM accuracy %d/%d, want >= 90%% on this easy instance", emOK, nt)
	}
}

// TestAggregatePosteriorsAreDistributions: the structural contract the
// fuzzer also checks — finite entries, each row summing to 1.
func TestAggregatePosteriorsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	batch := randBatch(rng, 30, 15, 3, 0.5)
	res, err := Aggregate(batch, 3, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range res.Posteriors {
		var sum float64
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("task %s: invalid posterior entry %v", id, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("task %s: posterior sums to %v", id, sum)
		}
	}
	for w, a := range res.Accuracy {
		if a <= 0 || a >= 1 || math.IsNaN(a) {
			t.Fatalf("worker %s: accuracy %v outside (0, 1)", w, a)
		}
	}
}

func TestMajorityEdgeCases(t *testing.T) {
	if opt, n := Majority(nil, 4); opt != -1 || n != 0 {
		t.Fatalf("empty votes: (%d, %d)", opt, n)
	}
	if opt, _ := Majority([]Vote{{Worker: "w", Option: 9}}, 4); opt != -1 {
		t.Fatalf("out-of-range-only votes: %d", opt)
	}
	// Tie between 0 and 2 breaks toward the lowest index.
	votes := []Vote{{Worker: "a", Option: 2}, {Worker: "b", Option: 0}}
	if opt, _ := Majority(votes, 3); opt != 0 {
		t.Fatalf("tie broke to %d, want 0", opt)
	}
	if _, err := Aggregate(nil, 1, EMConfig{}); err == nil {
		t.Fatal("options=1 accepted")
	}
}
