// Package ata's root benchmarks regenerate, one testing.B target per
// figure, the measurements behind the paper's evaluation — at a reduced
// default scale so `go test -bench=.` finishes quickly. The cmd/hta-bench
// and cmd/hta-live CLIs run the same sweeps at arbitrary scale with full
// table output.
//
//	BenchmarkFig2a*     response time vs |T| (HTA-APP vs HTA-GRE)
//	BenchmarkFig2b      objective value comparison (reported as metrics)
//	BenchmarkFig2c*     response time vs |W|
//	BenchmarkFig3*      response time vs task diversity (#groups)
//	BenchmarkFig5Session  one simulated online work session per strategy
//	BenchmarkAblation*  design-choice ablations from DESIGN.md
package ata

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/crowd"
	"github.com/htacs/ata/internal/lsap"
	"github.com/htacs/ata/internal/matching"
	"github.com/htacs/ata/internal/metric"
	"github.com/htacs/ata/internal/solver"
	"github.com/htacs/ata/internal/workload"
)

// benchInstance builds a paper-shaped instance: numTasks tasks over
// numGroups AMT-like groups, numWorkers synthetic workers, Xmax = 20.
func benchInstance(b *testing.B, numTasks, numGroups, numWorkers int) *core.Instance {
	b.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perGroup := numTasks / numGroups
	if perGroup < 1 {
		perGroup = 1
	}
	tasks := gen.Tasks(numGroups, perGroup)
	workers := gen.Workers(numWorkers)
	in, err := core.NewInstance(tasks, workers, 20, metric.Jaccard{})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func runSolver(b *testing.B, in *core.Instance, solve func(*core.Instance, ...solver.Option) (*solver.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var lastObjective float64
	for i := 0; i < b.N; i++ {
		res, err := solve(in, solver.WithRand(rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		lastObjective = res.Objective
	}
	b.ReportMetric(lastObjective, "objective")
}

// runSolverParallel is runSolver with the cached diversity kernel enabled.
// A fresh instance is built (off the clock) every iteration so each measured
// solve pays the full precompute — the honest single-shot comparison against
// the serial rows, with no warm cache carried between iterations.
func runSolverParallel(b *testing.B, numTasks, numGroups, numWorkers int, solve func(*core.Instance, ...solver.Option) (*solver.Result, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var lastObjective float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		in := benchInstance(b, numTasks, numGroups, numWorkers)
		b.StartTimer()
		res, err := solve(in, solver.WithParallelism(-1), solver.WithRand(rand.New(rand.NewSource(int64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		lastObjective = res.Objective
	}
	b.ReportMetric(lastObjective, "objective")
}

// BenchmarkFig2a: the |T| sweep of Figure 2a at 1/10 the paper's sizes
// (paper: 4,000–10,000 tasks, 200 workers, 200 groups). The *-parallel rows
// run the same solve with the cached diversity kernel on all cores; the
// reported objective is identical by construction.
func BenchmarkFig2a(b *testing.B) {
	for _, numTasks := range []int{400, 700, 1000} {
		in := benchInstance(b, numTasks, 20, 20)
		b.Run(fmt.Sprintf("app/tasks=%d", numTasks), func(b *testing.B) {
			runSolver(b, in, solver.HTAAPP)
		})
		b.Run(fmt.Sprintf("app-parallel/tasks=%d", numTasks), func(b *testing.B) {
			runSolverParallel(b, numTasks, 20, 20, solver.HTAAPP)
		})
		b.Run(fmt.Sprintf("gre/tasks=%d", numTasks), func(b *testing.B) {
			runSolver(b, in, solver.HTAGRE)
		})
		b.Run(fmt.Sprintf("gre-parallel/tasks=%d", numTasks), func(b *testing.B) {
			runSolverParallel(b, numTasks, 20, 20, solver.HTAGRE)
		})
	}
}

// BenchmarkDiversityPrecompute: the tentpole kernel in isolation — filling
// the packed lower-triangular distance matrix serially vs with all cores.
// Instance construction runs off the clock; every iteration fills a cold
// cache.
func BenchmarkDiversityPrecompute(b *testing.B) {
	for _, numTasks := range []int{500, 1000, 2000} {
		for _, cfg := range []struct {
			name string
			p    int
		}{{"serial", 1}, {"parallel", -1}} {
			b.Run(fmt.Sprintf("%s/tasks=%d", cfg.name, numTasks), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					in := benchInstance(b, numTasks, 20, 20)
					b.StartTimer()
					in.Precompute(cfg.p)
				}
			})
		}
	}
}

// BenchmarkFig2b: same sweep, but the reported "objective" metric is the
// figure's payload — HTA-GRE should be within a few percent of HTA-APP.
func BenchmarkFig2b(b *testing.B) {
	in := benchInstance(b, 800, 20, 20)
	b.Run("app", func(b *testing.B) { runSolver(b, in, solver.HTAAPP) })
	b.Run("gre", func(b *testing.B) { runSolver(b, in, solver.HTAGRE) })
}

// BenchmarkFig2c: the |W| sweep of Figure 2c (paper: 30–350 workers at
// |T| = 8,000).
func BenchmarkFig2c(b *testing.B) {
	for _, numWorkers := range []int{5, 20, 35} {
		in := benchInstance(b, 800, 20, numWorkers)
		b.Run(fmt.Sprintf("app/workers=%d", numWorkers), func(b *testing.B) {
			runSolver(b, in, solver.HTAAPP)
		})
		b.Run(fmt.Sprintf("gre/workers=%d", numWorkers), func(b *testing.B) {
			runSolver(b, in, solver.HTAGRE)
		})
	}
}

// BenchmarkFig3: the task-diversity sweep of Figure 3 (paper: 10–10,000
// groups at |T| = 10,000, |W| = 300).
func BenchmarkFig3(b *testing.B) {
	for _, numGroups := range []int{2, 20, 200, 1000} {
		in := benchInstance(b, 1000, numGroups, 30)
		b.Run(fmt.Sprintf("app/groups=%d", numGroups), func(b *testing.B) {
			runSolver(b, in, solver.HTAAPP)
		})
		b.Run(fmt.Sprintf("gre/groups=%d", numGroups), func(b *testing.B) {
			runSolver(b, in, solver.HTAGRE)
		})
	}
}

// BenchmarkFig5Session: one simulated online work session per strategy
// (Figures 5a–5c are aggregates of 20 of these).
func BenchmarkFig5Session(b *testing.B) {
	gen, err := workload.NewGenerator(workload.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	corpus := gen.Tasks(22, 40)
	for _, strat := range []crowd.Strategy{crowd.StrategyGRE, crowd.StrategyRel, crowd.StrategyDiv} {
		b.Run(string(strat), func(b *testing.B) {
			params := crowd.DefaultParams()
			sim, err := crowd.NewSimulator(params, corpus)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var completed int
			for i := 0; i < b.N; i++ {
				res, err := sim.RunSession(strat, sim.NewWorker(fmt.Sprintf("w%d", i)))
				if err != nil {
					b.Fatal(err)
				}
				completed = res.Completed
			}
			b.ReportMetric(float64(completed), "tasks/session")
		})
	}
}

// BenchmarkLSAP times the three auxiliary-LSAP solvers over an (n, |W|)
// grid of clique-structured profit matrices shaped like the real HTA
// auxiliary problem: |W| worker-clique column classes of n/|W| columns
// each. All three run through a reused lsap.Workspace, so steady-state
// iterations report 0 allocs/op — the adaptive-loop contract PR 2 added.
// dense is the O(n³) Hungarian, classed the O(n²·|W|) class-collapsed
// exact solver, greedy the ½-approximation.
func BenchmarkLSAP(b *testing.B) {
	for _, n := range []int{200, 400, 1000} {
		for _, numWorkers := range []int{10, 50} {
			xmax := n / numWorkers
			nc := numWorkers + 1
			classOf := make([]int, n)
			for j := range classOf {
				if q := j / xmax; q < numWorkers {
					classOf[j] = q
				} else {
					classOf[j] = numWorkers
				}
			}
			r := rand.New(rand.NewSource(1))
			profits := make([][]float64, n)
			for i := range profits {
				profits[i] = make([]float64, nc)
				for c := 0; c < numWorkers; c++ {
					profits[i][c] = r.Float64() * 5
				}
			}
			costs := lsap.NewBlock(classOf, profits)
			caps := make([]int, nc)
			for _, cl := range classOf {
				caps[cl]++
			}
			name := fmt.Sprintf("n=%d/workers=%d", n, numWorkers)
			b.Run("dense/"+name, func(b *testing.B) {
				if n >= 1000 && testing.Short() {
					b.Skip("cubic Hungarian at n=1000")
				}
				ws := lsap.NewWorkspace()
				lsap.HungarianWS(costs, ws)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lsap.HungarianWS(costs, ws)
				}
			})
			b.Run("classed/"+name, func(b *testing.B) {
				ws := lsap.NewWorkspace()
				if _, err := lsap.HungarianClassedWS(costs, caps, ws); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := lsap.HungarianClassedWS(costs, caps, ws); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("greedy/"+name, func(b *testing.B) {
				ws := lsap.NewWorkspace()
				lsap.GreedyWS(costs, 1, ws)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lsap.GreedyWS(costs, 1, ws)
				}
			})
		}
	}
}

// BenchmarkAblationLSAP isolates the APP→GRE design choice: the exact
// Hungarian vs the ½-approximate greedy on the same auxiliary LSAP sizes.
func BenchmarkAblationLSAP(b *testing.B) {
	for _, n := range []int{200, 400} {
		r := rand.New(rand.NewSource(1))
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				rows[i][j] = r.Float64()
			}
		}
		costs := lsap.NewDense(rows)
		b.Run(fmt.Sprintf("hungarian/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lsap.Hungarian(costs)
			}
		})
		b.Run(fmt.Sprintf("greedy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lsap.Greedy(costs)
			}
		})
	}
}

// BenchmarkAblationMatching compares four matchers for the diversity
// matching M_B: radix-sorting greedy and memory-light suitor (the same
// ½-approximate greedy matching), path growing (another ½-approximation)
// and the exact blossom algorithm.
func BenchmarkAblationMatching(b *testing.B) {
	in := benchInstance(b, 600, 30, 10)
	n := in.NumTasks()
	b.Run("greedysort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.GreedySort(n, in.Diversity)
		}
	})
	b.Run("suitor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.Suitor(n, in.Diversity)
		}
	})
	b.Run("pathgrowing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.PathGrowing(n, in.Diversity)
		}
	})
	b.Run("blossom-exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matching.Blossom(n, in.Diversity)
		}
	})
}

// BenchmarkAblationFlip measures the random pairwise flip (Lines 12–16 of
// Algorithm 1) on vs off — the flip is what the expected approximation
// factor rests on, at negligible cost.
func BenchmarkAblationFlip(b *testing.B) {
	in := benchInstance(b, 600, 30, 15)
	b.Run("with-flip", func(b *testing.B) { runSolver(b, in, solver.HTAGRE) })
	b.Run("without-flip", func(b *testing.B) {
		runSolver(b, in, func(in *core.Instance, opts ...solver.Option) (*solver.Result, error) {
			return solver.HTAGRE(in, append(opts, solver.WithoutFlip())...)
		})
	})
}

// BenchmarkAblationBlockCosts contrasts the implicit column-classed LSAP
// costs against a fully materialized dense matrix of the same profits —
// the representation that lets the solvers run at 10k tasks in O(|T|·|W|)
// memory.
func BenchmarkAblationBlockCosts(b *testing.B) {
	in := benchInstance(b, 500, 25, 10)
	// Build the dense equivalent once via a probe GRE run's cost structure:
	// f[k][l] reproduced through the public pipeline is not exposed, so we
	// approximate the comparison by timing GRE (block costs inside) against
	// GRE preceded by a dense |T|² materialization of pairwise diversities.
	b.Run("block", func(b *testing.B) { runSolver(b, in, solver.HTAGRE) })
	b.Run("dense-materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := in.NumTasks()
			dense := make([]float64, n*n)
			for k := 0; k < n; k++ {
				for l := k + 1; l < n; l++ {
					d := in.Diversity(k, l)
					dense[k*n+l], dense[l*n+k] = d, d
				}
			}
			_ = dense
			if _, err := solver.HTAGRE(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}
