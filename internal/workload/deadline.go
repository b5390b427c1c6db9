package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"github.com/htacs/ata/internal/core"
)

// Deadline and availability-window trace generation for the predictive
// scheduling subsystem (internal/schedule): deadline leads annotate a
// task set, window declarations annotate a worker pool, and BurstSchedule
// shapes arrivals into the bursty pattern the shard deadline-churn
// test contrasts predictive and reactive rebalancing on.
//
// Leads and window lengths are *relative* offsets from the consumer's
// trace start (logical-clock nanoseconds by convention): a replayer adds
// its own clock base at offer/registration time. Generated files are
// therefore replayable at any wall-clock instant and under any logical
// clock, unlike absolute timestamps which would rot the moment they were
// written.

// Deadlines annotates a fraction of the tasks with deadline leads drawn
// uniformly from [minLead, maxLead] (inclusive of minLead). The lead is
// stored in Task.Deadline as an offset from trace start; replayers
// rebase it to an absolute instant when they offer the task. Returns how
// many tasks were annotated. Seeded separately from the generator's
// keyword draws (the gold-key pattern) so -tasks-out and -deadlines
// agree across invocations.
func Deadlines(tasks []*core.Task, frac float64, minLead, maxLead int64, seed int64) (int, error) {
	if frac < 0 || frac > 1 {
		return 0, fmt.Errorf("workload: deadline fraction %v outside [0, 1]", frac)
	}
	if minLead <= 0 || maxLead < minLead {
		return 0, fmt.Errorf("workload: deadline leads [%d, %d], need 0 < min <= max", minLead, maxLead)
	}
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for _, t := range tasks {
		if rng.Float64() < frac {
			t.Deadline = minLead + rng.Int63n(maxLead-minLead+1)
			n++
		}
	}
	return n, nil
}

// WindowDecl is one worker availability-window declaration: the worker
// promises to stay for Length (an offset from its registration instant).
// hta-gen emits these with -windows-out; a replayer converts Length to
// an absolute window end (now + Length) when registering the worker.
type WindowDecl struct {
	Worker string `json:"worker"`
	Length int64  `json:"length"`
}

// Windows samples availability-window declarations over a worker pool:
// each worker declares with probability frac, with a session length
// drawn uniformly from [minLen, maxLen]. Seeded independently of the
// worker draws, like Gold.
func Windows(workers []*core.Worker, frac float64, minLen, maxLen int64, seed int64) ([]WindowDecl, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("workload: window fraction %v outside [0, 1]", frac)
	}
	if minLen <= 0 || maxLen < minLen {
		return nil, fmt.Errorf("workload: window lengths [%d, %d], need 0 < min <= max", minLen, maxLen)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []WindowDecl
	for _, w := range workers {
		if rng.Float64() < frac {
			out = append(out, WindowDecl{
				Worker: w.ID,
				Length: minLen + rng.Int63n(maxLen-minLen+1),
			})
		}
	}
	return out, nil
}

// WriteWindows streams window declarations as JSON lines.
func WriteWindows(w io.Writer, decls []WindowDecl) error {
	enc := json.NewEncoder(w)
	for _, d := range decls {
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("workload: encoding window for %s: %w", d.Worker, err)
		}
	}
	return nil
}

// ReadWindows parses declarations written by WriteWindows, rejecting
// empty workers, non-positive lengths, and duplicates.
func ReadWindows(r io.Reader) ([]WindowDecl, error) {
	dec := json.NewDecoder(r)
	seen := map[string]struct{}{}
	var out []WindowDecl
	for {
		var rec WindowDecl
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("workload: decoding window %d: %w", len(out), err)
		}
		if rec.Worker == "" {
			return nil, fmt.Errorf("workload: window entry %d has no worker", len(out))
		}
		if rec.Length <= 0 {
			return nil, fmt.Errorf("workload: window for %q has length %d", rec.Worker, rec.Length)
		}
		if _, dup := seen[rec.Worker]; dup {
			return nil, fmt.Errorf("workload: window for %q listed twice", rec.Worker)
		}
		seen[rec.Worker] = struct{}{}
		out = append(out, rec)
	}
}

// BurstSchedule returns arrivals-per-step over a horizon: base arrivals
// every step, plus burst extra arrivals on each step of every burst —
// bursts of burstLen steps starting every period steps. This is the
// on/off (interrupted Poisson-like) shape whose arrival variance the
// forecaster's burstiness guard exists for; a steady stream (burst = 0)
// has zero variance and the guard adds nothing.
func BurstSchedule(horizon, base, burst, period, burstLen int) ([]int, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("workload: burst horizon = %d", horizon)
	}
	if base < 0 || burst < 0 {
		return nil, fmt.Errorf("workload: negative arrival counts (base %d, burst %d)", base, burst)
	}
	if burst > 0 && (period < 1 || burstLen < 1 || burstLen > period) {
		return nil, fmt.Errorf("workload: burst period %d / length %d, need 1 <= length <= period", period, burstLen)
	}
	sched := make([]int, horizon)
	for i := range sched {
		sched[i] = base
		if burst > 0 && i%period < burstLen {
			sched[i] += burst
		}
	}
	return sched, nil
}
