// Command hta-gen generates synthetic crowdsourcing workloads shaped like
// the paper's data: AMT-style task groups (shared keyword metadata,
// micro-task rewards) and synthetic workers (uniform keyword interests,
// random motivation weights). Output is JSON lines, consumable by
// hta-server and by workload.ReadTasks/ReadWorkers.
//
// Usage:
//
//	hta-gen -groups 200 -per-group 20 -tasks-out tasks.jsonl
//	hta-gen -workers 200 -workers-out workers.jsonl
//	hta-gen -workers 200 -churn 4000 -churn-out churn.jsonl
//	hta-gen -groups 200 -per-group 20 -gold 0.2 -gold-out gold.jsonl
//	hta-gen -groups 200 -per-group 20 -deadlines 0.5 -tasks-out tasks.jsonl
//	hta-gen -workers 200 -windows 0.5 -windows-out windows.jsonl
//
// With -churn N the generator also emits a worker arrival/departure trace
// over a horizon of N logical event steps (see workload.ChurnEvent), for
// replaying assignment under worker churn.
//
// With -gold-out the generator samples a gold answer key over the task
// set: each task is gold with probability -gold, carrying a known answer
// in [0, -gold-options). hta-server loads the key with -gold to grade
// workers online (see internal/quality).
//
// With -deadlines F a fraction F of the emitted tasks carries a deadline
// lead drawn uniformly from [-deadline-min, -deadline-max] — an offset
// from trace start that a replayer rebases to an absolute instant at
// offer time. With -windows F and -windows-out, a fraction F of the
// worker pool declares an availability window of uniform length in
// [-window-min, -window-max], in the same relative convention (see
// internal/schedule for how the engine consumes both).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/htacs/ata/internal/workload"
)

func main() {
	groups := flag.Int("groups", 200, "number of task groups")
	perGroup := flag.Int("per-group", 20, "tasks per group")
	workers := flag.Int("workers", 0, "number of synthetic workers to generate")
	universe := flag.Int("universe", 100, "keyword universe size")
	kwGroup := flag.Int("kw-per-group", 5, "keywords per task group")
	kwWorker := flag.Int("kw-per-worker", 5, "keywords per worker")
	zipf := flag.Float64("zipf", 1.2, "keyword popularity skew (Zipf s)")
	seed := flag.Int64("seed", 1, "random seed")
	tasksOut := flag.String("tasks-out", "", "write tasks to this file ('-' for stdout)")
	workersOut := flag.String("workers-out", "", "write workers to this file ('-' for stdout)")
	churn := flag.Int("churn", 0, "emit a worker churn trace over this many logical steps")
	churnDepart := flag.Float64("churn-depart", 0.5, "fraction of churning workers that also depart")
	churnOut := flag.String("churn-out", "", "write the churn trace to this file ('-' for stdout)")
	goldRate := flag.Float64("gold", 0.2, "fraction of tasks marked gold with -gold-out")
	goldOptions := flag.Int("gold-options", 4, "answer alphabet size for gold tasks")
	goldOut := flag.String("gold-out", "", "write a gold answer key over the task set to this file ('-' for stdout)")
	deadlineFrac := flag.Float64("deadlines", 0, "fraction of tasks annotated with a deadline lead (0 disables)")
	deadlineMin := flag.Duration("deadline-min", 5*time.Second, "minimum deadline lead (offset from trace start)")
	deadlineMax := flag.Duration("deadline-max", time.Minute, "maximum deadline lead")
	windowFrac := flag.Float64("windows", 0.5, "fraction of workers declaring an availability window with -windows-out")
	windowMin := flag.Duration("window-min", time.Minute, "minimum declared window length")
	windowMax := flag.Duration("window-max", 10*time.Minute, "maximum declared window length")
	windowsOut := flag.String("windows-out", "", "write worker availability-window declarations to this file ('-' for stdout)")
	flag.Parse()

	gen, err := workload.NewGenerator(workload.Config{
		Universe:          *universe,
		KeywordsPerGroup:  *kwGroup,
		KeywordsPerWorker: *kwWorker,
		ZipfS:             *zipf,
		Seed:              *seed,
	})
	if err != nil {
		log.Fatalf("hta-gen: %v", err)
	}
	if *tasksOut == "" && *workersOut == "" && *churnOut == "" && *goldOut == "" && *windowsOut == "" {
		log.Fatal("hta-gen: nothing to do; pass -tasks-out, -workers-out, -churn-out, -gold-out and/or -windows-out")
	}
	if *tasksOut != "" {
		tasks := gen.Tasks(*groups, *perGroup)
		if *deadlineFrac > 0 {
			// Derived seed, like the gold key: leads are independent of the
			// keyword draws, so -deadlines never perturbs the task set.
			n, err := workload.Deadlines(tasks, *deadlineFrac,
				deadlineMin.Nanoseconds(), deadlineMax.Nanoseconds(), *seed+3)
			if err != nil {
				log.Fatalf("hta-gen: %v", err)
			}
			fmt.Fprintf(os.Stderr, "annotated %d of %d tasks with deadline leads in [%s, %s]\n",
				n, len(tasks), *deadlineMin, *deadlineMax)
		}
		if err := writeTo(*tasksOut, func(f *os.File) error {
			return workload.WriteTasks(f, tasks)
		}); err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d tasks (%d groups × %d) to %s\n",
			len(tasks), *groups, *perGroup, *tasksOut)
	}
	if *workersOut != "" {
		if *workers <= 0 {
			log.Fatal("hta-gen: -workers must be positive with -workers-out")
		}
		ws := gen.Workers(*workers)
		if err := writeTo(*workersOut, func(f *os.File) error {
			return workload.WriteWorkers(f, ws)
		}); err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d workers to %s\n", len(ws), *workersOut)
	}
	if *goldOut != "" {
		// The key is drawn over the same task IDs -tasks-out emits (same
		// seed, same generator parameters), from a derived seed so the
		// sample is independent of keyword draws.
		gold, err := workload.Gold(gen.Tasks(*groups, *perGroup), *goldRate, *goldOptions, *seed+2)
		if err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		if err := writeTo(*goldOut, func(f *os.File) error {
			return workload.WriteGold(f, gold)
		}); err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d gold answers (rate %.2f over %d tasks) to %s\n",
			len(gold), *goldRate, *groups**perGroup, *goldOut)
	}
	if *windowsOut != "" {
		if *workers <= 0 {
			log.Fatal("hta-gen: -workers must be positive with -windows-out")
		}
		// Same-ID discipline as the churn trace: regenerate the pool the
		// declarations reference, sampling from a derived seed.
		decls, err := workload.Windows(gen.Workers(*workers), *windowFrac,
			windowMin.Nanoseconds(), windowMax.Nanoseconds(), *seed+4)
		if err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		if err := writeTo(*windowsOut, func(f *os.File) error {
			return workload.WriteWindows(f, decls)
		}); err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d window declarations (frac %.2f over %d workers) to %s\n",
			len(decls), *windowFrac, *workers, *windowsOut)
	}
	if *churnOut != "" {
		if *workers <= 0 {
			log.Fatal("hta-gen: -workers must be positive with -churn-out")
		}
		if *churn <= 0 {
			log.Fatal("hta-gen: -churn must be positive with -churn-out")
		}
		// The churn trace references the same worker IDs Workers(n) emits;
		// regenerate from a derived seed so -workers-out and -churn-out
		// agree whether or not both were requested in one invocation.
		churnGen, err := workload.NewGenerator(workload.Config{
			Universe:          *universe,
			KeywordsPerGroup:  *kwGroup,
			KeywordsPerWorker: *kwWorker,
			ZipfS:             *zipf,
			Seed:              *seed + 1,
		})
		if err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		events, err := churnGen.Churn(gen.Workers(*workers), *churn, *churnDepart)
		if err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		if err := writeTo(*churnOut, func(f *os.File) error {
			return workload.WriteChurn(f, events)
		}); err != nil {
			log.Fatalf("hta-gen: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d churn events over %d steps to %s\n",
			len(events), *churn, *churnOut)
	}
}

func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
