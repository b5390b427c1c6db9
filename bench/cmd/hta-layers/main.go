// Command hta-layers runs the layered benchmark.
//
//	hta-layers [-workload all|stream-deep|stream-wide|cluster-rpc|batch-solve]
//	           [-seed 1] [-seconds 20] [-runs 1] [-trace 0|1|out.json] [-json report.json]
//
// With one workload and one run it measures in this process and prints
// the metrics, a detail line and, last, the result line. Otherwise every
// run is a fresh child process: -runs rounds, each running the workloads
// in turn with seed, seed+1, …, followed by each metric's median,
// quartiles and spread. -trace 1 (or a path) reports per-layer metrics
// and writes a Perfetto trace instead.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"github.com/htacs/ata/bench"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed of the first run")
	seconds := flag.Float64("seconds", 20, "length of each run's timed phase, in seconds")
	runs := flag.Int("runs", 1, "rounds over the workloads, each run in a fresh process")
	trace := flag.String("trace", "0", "0 = untraced; 1 = traced, trace under .bench_build/; or the trace file's path")
	jsonOut := flag.String("json", "", "write the JSON report here")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *runs, *trace, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "hta-layers:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, runs int, trace, jsonOut string) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d", runs)
	}
	var shapes []bench.Shape
	if workload == "all" {
		shapes = bench.Workloads
	} else {
		sh, err := bench.Lookup(workload)
		if err != nil {
			return err
		}
		shapes = []bench.Shape{sh}
	}
	report := &bench.Report{
		Machine:  bench.Machine{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()},
		Seconds:  seconds,
		EndToEnd: bench.EndToEnd,
		PerLayer: bench.PerLayer,
	}
	failed := false
	if len(shapes) == 1 && runs == 1 {
		opt := bench.Options{Seed: seed, Seconds: seconds, Trace: trace != "0", TracePath: tracePath(trace, shapes[0].Name, seed)}
		if opt.Trace {
			if err := os.MkdirAll(filepath.Dir(opt.TracePath), 0o755); err != nil {
				return err
			}
		}
		res, err := bench.Run(shapes[0], opt)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, bench.RunRecord{Result: res.Line, Detail: res.Detail})
		failed = !res.Line.Correct
		if jsonOut != "" {
			report.Summarize()
			if err := report.WriteJSON(jsonOut); err != nil {
				return err
			}
		}
		if err := res.Print(os.Stdout); err != nil {
			return err
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		for r := 0; r < runs; r++ {
			for _, sh := range shapes {
				s := seed + int64(r)
				rec, err := child(exe, sh.Name, s, seconds, childTrace(trace, sh.Name, s))
				if err != nil {
					fmt.Fprintf(os.Stderr, "hta-layers: %s seed %d: %v\n", sh.Name, s, err)
					failed = true
					continue
				}
				rec.Round = r
				failed = failed || !rec.Result.Correct
				report.Runs = append(report.Runs, rec)
			}
		}
		report.Summarize()
		fmt.Println()
		report.Render(os.Stdout)
		if jsonOut != "" {
			if err := report.WriteJSON(jsonOut); err != nil {
				return err
			}
		}
	}
	if failed {
		return fmt.Errorf("a run failed its correctness checks")
	}
	return nil
}

// child runs one workload in a fresh process and echoes its
// human-readable output.
func child(exe, workload string, seed int64, seconds float64, trace string) (bench.RunRecord, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	human, rec, err := bench.ParseOutput(out.String())
	fmt.Print(human)
	if runErr != nil && err == nil && rec.Result.Correct {
		err = runErr
	}
	return rec, err
}

// tracePath resolves -trace for a single in-process run.
func tracePath(trace, workload string, seed int64) string {
	switch trace {
	case "0":
		return ""
	case "1":
		return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-s%d.json", workload, seed))
	}
	return trace
}

// childTrace is the -trace a child gets: each traced child writes its
// own file, named after the requested one.
func childTrace(trace, workload string, seed int64) string {
	if trace == "0" || trace == "1" {
		return trace
	}
	return fmt.Sprintf("%s-%s-s%d.json", strings.TrimSuffix(trace, ".json"), workload, seed)
}
