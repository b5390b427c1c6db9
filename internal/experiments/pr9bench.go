package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/workload"
)

// PR9Point is the observability-overhead measurement for the cluster
// plane: the pr7 churn workload on a 3-node loopback cluster run with the
// full PR 9 observability stack live (metrics registries recording,
// gateway head-sampling 1 in 16 requests with remote spans joining on
// every node, ops journals enabled) and with all of it off
// (obs.SetEnabled(false), ops.SetEnabled(false), sampling 0 so no
// SpanContext ever reaches a node). Times are best-of-runs per-event ns
// over interleaved runs on identical seeds.
type PR9Point struct {
	Nodes       int `json:"nodes"`
	SampleEvery int `json:"sample_every"` // gateway head-sampling: 1 in N
	Events      int `json:"events"`

	EnabledNs  int64 `json:"enabled_ns"`  // per-event, observability on
	DisabledNs int64 `json:"disabled_ns"` // per-event, observability off
	// OverheadPct = 100·(EnabledNs − DisabledNs)/DisabledNs. Negative
	// values are measurement noise: the enabled side adds a few atomic
	// counter writes per op, one span allocation per sampled request, and
	// nothing at all on the journal path (no failovers or steals occur
	// during the bench).
	OverheadPct float64 `json:"overhead_pct"`
}

// PR9Report is the payload of BENCH_PR9.json: the cluster observability
// layer's cost on the pr7 gateway workload, against the 2% budget from
// the PR issue.
type PR9Report struct {
	Note           string     `json:"note"`
	Points         []PR9Point `json:"points"`
	MaxOverheadPct float64    `json:"max_overhead_pct"`
	BudgetPct      float64    `json:"budget_pct"`
	WithinBudget   bool       `json:"within_budget"`
}

// pr9SampleEvery is the shipped head-sampling rate the budget is defined
// against: 1 in 16 gateway requests opens a root span, and only those
// carry a SpanContext into the cluster frames.
const pr9SampleEvery = 16

// pr7Shape fixes the cluster workload the pr9 sweep replays, the one the
// retired pr7 throughput sweep measured (BENCH_PR7.json). Concurrency
// (drivers) is what gives the per-peer mailboxes something to coalesce:
// G in-flight ops per moment means score scatters and commits from
// different drivers share frames. The timed mix is complete-dominated
// (completesPerOffer completions per fresh task): completions route to
// one pinned node and pay the pullBest fold over that node's share of
// the backlog; offers scatter a score op to every node.
type pr7Shape struct {
	workers           int
	churners          int
	xmax              int
	totalBuffer       int
	steps             int // timed steps per driver
	completesPerOffer int
	drivers           int
	departFrac        float64
}

var defaultPR7Shape = pr7Shape{
	workers:           32,
	churners:          8,
	xmax:              12,
	totalBuffer:       32768,
	steps:             40,
	completesPerOffer: 4,
	drivers:           32,
	departFrac:        0.6,
}

// totalEvents is the logical event count of the timed phase: every
// complete and every offer is one event.
func (s pr7Shape) totalEvents() int {
	return s.drivers * s.steps * (s.completesPerOffer + 1)
}

// SweepPR9 measures the end-to-end cost of the PR 9 observability stack
// on the pr7 cluster workload at 3 nodes: enabled and disabled runs
// alternate on identical seeds so drift hits both sides equally, and the
// verdict is the median contrast against the 2% budget.
func SweepPR9(o Options) (*PR9Report, error) {
	o.applyDefaults()
	defer obs.SetEnabled(true)
	defer ops.SetEnabled(true)
	report := &PR9Report{
		Note:      "cluster observability overhead on the pr7 gateway workload (BENCH_PR7.json) at 3 nodes: enabled = federated metrics + 1/16 head sampling with remote spans + ops journals (the shipped defaults), disabled = obs.SetEnabled(false) + ops.SetEnabled(false) + sampling 0. Identical seeds, interleaved runs, best-of-runs per-event ns on each side.",
		BudgetPct: 2.0,
	}
	point, err := measurePR9(o, 3, defaultPR7Shape)
	if err != nil {
		return nil, fmt.Errorf("experiments: pr9 nodes=3: %w", err)
	}
	report.Points = append(report.Points, point)
	report.MaxOverheadPct = point.OverheadPct
	report.WithinBudget = report.MaxOverheadPct < report.BudgetPct
	return report, nil
}

// measurePR9 times the pr7 driver loop with observability on and off,
// o.Runs times each, alternating which side goes first per run so thermal
// and scheduler drift cancels (the pr3 protocol, applied to the cluster).
// Each side reports its fastest run, not the median: the workload is
// loopback-HTTP-bound with run-to-run contention noise several times the
// 2% budget, and that noise is strictly one-sided — a co-scheduled
// process can only ever add time — so min-of-interleaved-runs converges
// to the true per-event cost on both sides where a median would gate on
// whichever side drew the quieter scheduler slots.
func measurePR9(o Options, nodes int, shape pr7Shape) (PR9Point, error) {
	point := PR9Point{Nodes: nodes, SampleEvery: pr9SampleEvery, Events: shape.totalEvents()}
	var onRuns, offRuns []time.Duration

	measureOne := func(seed int64, instrumented bool) (time.Duration, error) {
		res, err := runPR9(seed, nodes, shape, instrumented)
		if err != nil {
			return 0, err
		}
		if !res.conserved {
			return 0, fmt.Errorf("conservation violated (instrumented=%v)", instrumented)
		}
		return res.elapsed, nil
	}

	for run := 0; run < o.Runs; run++ {
		seed := o.Seed + int64(run)
		if run == 0 {
			// Warm-up: the first cluster of the process pays one-time costs
			// (connection pool growth, branch training) that must not land
			// on either side of the comparison.
			if _, err := measureOne(seed, true); err != nil {
				return point, err
			}
		}
		order := []bool{true, false}
		if run%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, instrumented := range order {
			d, err := measureOne(seed, instrumented)
			if err != nil {
				return point, err
			}
			if instrumented {
				onRuns = append(onRuns, d)
			} else {
				offRuns = append(offRuns, d)
			}
		}
	}
	point.EnabledNs = minNs(onRuns) / int64(shape.totalEvents())
	point.DisabledNs = minNs(offRuns) / int64(shape.totalEvents())
	if point.DisabledNs > 0 {
		point.OverheadPct = 100 * float64(point.EnabledNs-point.DisabledNs) / float64(point.DisabledNs)
	}
	return point, nil
}

// runPR9 replays one seeded run on a fresh cluster of the given size,
// with the observability stack on or off.
func runPR9(seed int64, nodes int, shape pr7Shape, instrumented bool) (pr7Run, error) {
	obs.SetEnabled(instrumented)
	ops.SetEnabled(instrumented)
	defer obs.SetEnabled(true)
	defer ops.SetEnabled(true)
	c, err := startPR9Cluster(nodes, shape, instrumented)
	if err != nil {
		return pr7Run{}, err
	}
	defer c.stop()
	return drivePR7(c, seed, shape)
}

// pr7Run is one seeded run's outcome.
type pr7Run struct {
	elapsed   time.Duration
	completed int64
	conserved bool
}

// pr7Cluster is the in-process cluster under test: N single-shard
// engines, each behind its own loopback HTTP listener serving the
// cluster RPC plane, and the gateway routing across them.
type pr7Cluster struct {
	gw      *cluster.Gateway
	engines []*shard.Engine
	servers []*http.Server
}

func (c *pr7Cluster) stop() {
	if c.gw != nil {
		c.gw.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	for _, eng := range c.engines {
		eng.Close()
	}
}

// startPR9Cluster builds N single-shard nodes behind loopback listeners
// and a gateway over them, with the cluster observability stack wired end
// to end when instrumented: per-node registries, recorders and journals,
// a sampling gateway recorder, and journal-carrying engines. The
// uninstrumented side keeps the identical topology with sampling 0 and
// isolated (but disabled) registries, so the contrast isolates the
// observability writes.
func startPR9Cluster(nodes int, shape pr7Shape, instrumented bool) (*pr7Cluster, error) {
	c := &pr7Cluster{}
	gwSample := 0
	if instrumented {
		gwSample = pr9SampleEvery
	}
	var peers []cluster.PeerSpec
	for i := 0; i < nodes; i++ {
		eng, err := shard.New(shard.Config{
			Shards:        1,
			StealInterval: -1, // cluster nodes must not steal: stolen tasks escape the gateway ledger
			Registry:      obs.NewRegistry(),
			Journal:       ops.NewJournal(256),
			Stream: stream.Config{
				Xmax:        shape.xmax,
				BufferLimit: shape.totalBuffer / nodes,
			},
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.engines = append(c.engines, eng)
		name := fmt.Sprintf("n%d", i)
		node, err := cluster.NewNode(cluster.NodeConfig{
			Name:   name,
			Engine: eng,
			// Remote spans bypass the node sampler — the gateway's head
			// decision travels by SpanContext presence — so capacity is the
			// only knob that matters here.
			Tracer:   trace.NewRecorder(256, 0),
			Registry: obs.NewRegistry(),
			Journal:  ops.NewJournal(256),
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		srv := &http.Server{Handler: node}
		go srv.Serve(ln)
		c.servers = append(c.servers, srv)
		peers = append(peers, cluster.PeerSpec{Name: name, URL: "http://" + ln.Addr().String()})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Peers:             peers,
		HeartbeatInterval: -1, // no failures in the bench; probing would only add noise
		Registry:          obs.NewRegistry(),
		Tracer:            trace.NewRecorder(256, gwSample),
		Journal:           ops.NewJournal(256),
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.gw = gw
	return c, nil
}

// drivePR7 replays one seeded churn workload through an already-started
// cluster — fill to steady state (untimed), then the timed driver loop —
// and reports the run outcome.
func drivePR7(c *pr7Cluster, seed int64, shape pr7Shape) (pr7Run, error) {
	gen, err := workload.NewGenerator(workload.Config{Seed: seed})
	if err != nil {
		return pr7Run{}, err
	}
	pool := gen.Workers(shape.workers + shape.churners)
	base, churners := pool[:shape.workers], pool[shape.workers:]
	byID := make(map[string]*core.Worker, len(churners))
	for _, w := range churners {
		byID[w.ID] = w
	}
	churn, err := gen.Churn(churners, shape.steps, shape.departFrac)
	if err != nil {
		return pr7Run{}, err
	}
	need := shape.workers*shape.xmax + shape.totalBuffer + shape.drivers*shape.steps + 64
	tasks := gen.Tasks(need/8+1, 8)[:need]
	ctx := context.Background()

	for _, w := range base {
		if _, err := c.gw.AddWorkerCtx(ctx, w); err != nil {
			return pr7Run{}, err
		}
	}

	// Fill phase (untimed): saturate every worker slot, then the buffers.
	// Offered concurrently — sequential RPC round trips would never share
	// a frame and the fill would dominate the wall clock.
	fill := shape.workers*shape.xmax + shape.totalBuffer
	if err := pr7Concurrent(shape.drivers, tasks[:fill], func(t *core.Task) error {
		if _, err := c.gw.OfferTaskCtx(ctx, t); err != nil && !errors.Is(err, stream.ErrBufferFull) {
			return err
		}
		return nil
	}); err != nil {
		return pr7Run{}, err
	}

	// Each driver owns a disjoint slice of the base workers and completes
	// only its own assignments, so the active-task records need no locks.
	type driverState struct {
		workers []*core.Worker
		active  map[string][]string
		offers  []*core.Task
	}
	drivers := make([]*driverState, shape.drivers)
	for d := range drivers {
		drivers[d] = &driverState{active: make(map[string][]string)}
	}
	for i, w := range base {
		d := drivers[i%shape.drivers]
		d.workers = append(d.workers, w)
		ids, err := c.gw.ActiveTasks(w.ID)
		if err != nil {
			return pr7Run{}, err
		}
		for _, t := range ids {
			d.active[w.ID] = append(d.active[w.ID], t.ID)
		}
	}
	for i, t := range tasks[fill:] {
		d := drivers[i%shape.drivers]
		if len(d.offers) < shape.steps {
			d.offers = append(d.offers, t)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, shape.drivers)
	start := time.Now()
	for di, d := range drivers {
		wg.Add(1)
		go func(di int, d *driverState) {
			defer wg.Done()
			churnIdx := 0
			for step := 0; step < shape.steps; step++ {
				// Driver 0 replays the churn trace on the shared step clock.
				if di == 0 {
					for churnIdx < len(churn) && churn[churnIdx].At <= step {
						ev := churn[churnIdx]
						churnIdx++
						if ev.Arrive {
							if _, err := c.gw.AddWorkerCtx(ctx, byID[ev.Worker]); err != nil {
								errCh <- err
								return
							}
						} else if _, err := c.gw.RemoveWorkerCtx(ctx, ev.Worker); err != nil {
							errCh <- err
							return
						}
					}
				}
				// The complete-dominated burst: each completion frees a slot
				// and pulls the best buffered task on the worker's node —
				// the B/N fold the cluster exists to shrink.
				w := d.workers[step%len(d.workers)]
				for b := 0; b < shape.completesPerOffer; b++ {
					ids := d.active[w.ID]
					if len(ids) == 0 {
						break
					}
					next, err := c.gw.CompleteCtx(ctx, w.ID, ids[0])
					if err != nil {
						errCh <- fmt.Errorf("complete %s on %s: %w", ids[0], w.ID, err)
						return
					}
					d.active[w.ID] = ids[1:]
					if next != nil {
						d.active[w.ID] = append(d.active[w.ID], next.ID)
					}
				}
				if step < len(d.offers) {
					if _, err := c.gw.OfferTaskCtx(ctx, d.offers[step]); err != nil && !errors.Is(err, stream.ErrBufferFull) {
						errCh <- err
						return
					}
				}
			}
		}(di, d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errCh)
	for err := range errCh {
		return pr7Run{}, err
	}

	st := c.gw.Stats()
	return pr7Run{
		elapsed:   elapsed,
		completed: st.Completed,
		conserved: st.Conserved(),
	}, nil
}

// pr7Concurrent fans items over n workers, stopping on the first error.
func pr7Concurrent(n int, items []*core.Task, f func(*core.Task) error) error {
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(items); i += n {
				if err := f(items[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// minNs returns the fastest sample in nanoseconds.
func minNs(ds []time.Duration) int64 {
	if len(ds) == 0 {
		return 0
	}
	best := ds[0]
	for _, d := range ds[1:] {
		if d < best {
			best = d
		}
	}
	return best.Nanoseconds()
}

// RenderPR9 prints the report as an aligned table.
func (r *PR9Report) RenderPR9(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%6s %9s %14s %14s %10s\n",
		"nodes", "sampling", "obs on", "obs off", "overhead"); err != nil {
		return err
	}
	for _, p := range r.Points {
		if _, err := fmt.Fprintf(w, "%6d %8s %12dns %12dns %9.2f%%\n",
			p.Nodes, fmt.Sprintf("1/%d", p.SampleEvery),
			p.EnabledNs, p.DisabledNs, p.OverheadPct); err != nil {
			return err
		}
	}
	verdict := "within"
	if !r.WithinBudget {
		verdict = "OVER"
	}
	_, err := fmt.Fprintf(w, "\nmax overhead %.2f%% — %s the %.0f%% budget (per-event ns, tracing 1/%d + journal + federated metrics vs all off)\n",
		r.MaxOverheadPct, verdict, r.BudgetPct, pr9SampleEvery)
	return err
}

// WritePR9JSON writes the BENCH_PR9.json payload.
func (r *PR9Report) WritePR9JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
