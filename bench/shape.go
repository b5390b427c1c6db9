// Package bench is the repository's layered benchmark. Four workloads
// drive the product through its public APIs — the HTTP platform over
// loopback (platform.Client), the sharded engine (shard.New), the cluster
// gateway and nodes (cluster.NewGateway, cluster.NewNode) and the batch
// solvers (solver.HTAAPP, solver.HTAGRE) — and report the end-to-end
// metrics a user of the system sees. A traced run times the calls into
// each layer from outside and reports a per-layer breakdown.
//
// Nothing here reaches into internal/experiments: the older harnesses
// there measure with their own stopwatches and schemas, and this package
// is meant to replace them.
package bench

import "fmt"

// Kind selects the stack a workload drives.
type Kind int

const (
	// Stream is HTTP → platform → shard.Engine.
	Stream Kind = iota
	// Cluster is HTTP → platform → cluster.Gateway → loopback RPC → nodes.
	Cluster
	// Batch calls the HTA solvers directly, with no serving layer.
	Batch
)

// op names one kind of call a simulated user makes.
type op int

const (
	opComplete op = iota // POST /api/workers/{id}/complete
	opOffer              // POST /api/tasks
	opRead               // GET /api/workers/{id}/tasks
	opRegister           // POST /api/workers
	opLeave              // DELETE /api/workers/{id}
	opSolveAPP           // solver.HTAAPP
	opSolveGRE           // solver.HTAGRE
	numOps
)

var opNames = [numOps]string{"complete", "offer", "read", "register", "leave", "hta-app", "hta-gre"}

func (o op) String() string { return opNames[o] }

// Shape fixes one workload's inputs. The four shapes the benchmark runs
// are the Workloads table; tests run the same code on tiny shapes.
type Shape struct {
	Name string
	Kind Kind

	// Serving workloads (Stream, Cluster).
	Shards      int // shard.Engine partitions; per node for Cluster
	Nodes       int // cluster nodes (Cluster only)
	Clients     int // client goroutines, each with one keep-alive connection
	Workers     int // steady workers, registered at setup
	Churners    int // workers that arrive and depart within every churn cycle
	Xmax        int
	BufferLimit int // per shard (Stream) or per node (Cluster)
	Fill        int // tasks placed into worker slots at setup
	Hold        int // tasks held in the buffers throughout the run
	Cycle       int // steps per churn cycle; phases end on cycle boundaries
	OfferEvery  int // one POST /api/tasks every OfferEvery steps
	OfferBatch  int // tasks per POST /api/tasks
	Reads       int // GET /api/workers/{id}/tasks per step
	DigestSteps int // leading steps whose display sets feed the decision digest (0 = none)
	Side        op  // the call reported as side_p50_ms/side_p95_ms

	// Batch workload.
	Instances int // seeded HTA instances, all solved in round one
	Timed     int // instances solved in the timed phase: the first Timed
	Tasks     int // |T| per instance
	Groups    int // task groups per instance
	// Workers and Xmax above give |W| and Xmax.
}

// Workloads is the benchmark's fixed workload table, mirrored by the
// "workloads" list of BENCHMARK.json.
//
// Every serving workload is a closed loop: a simulated worker waits for
// its next display set before completing another task, and all workers
// are multiplexed over Clients goroutines. A step is one completion plus
// the shape's reads and offers; churners arrive and leave inside each
// cycle, so the number of pending tasks is the same at every cycle
// boundary.
var Workloads = []Shape{
	{
		// A saturated crowd over a deep backlog: every completion pays the
		// pullBest fold over half the buffer, so stream/metric changes show.
		Name: "stream-deep", Kind: Stream, Shards: 2, Clients: 1,
		Workers: 64, Churners: 16, Xmax: 15, BufferLimit: 16384,
		Fill: 64 * 15, Hold: 24576, Cycle: 256, OfferEvery: 1, OfferBatch: 1,
		DigestSteps: 2048, Side: opOffer,
	},
	{
		// Many workers, half the slots filled and an empty buffer: reads sit
		// beside writes, offers scan every worker (bestFree), and the buffer
		// kernel is idle — a buffer-kernel change should not move it.
		Name: "stream-wide", Kind: Stream, Shards: 2, Clients: 1,
		Workers: 1024, Churners: 64, Xmax: 15, BufferLimit: 1024,
		Fill: 1024 * 15 / 2, Hold: 0, Cycle: 256, OfferEvery: 16, OfferBatch: 16, Reads: 2,
		DigestSteps: 2048, Side: opRead,
	},
	{
		// The only workload whose cost is mostly gateway→RPC→node hops, and
		// the only concurrent one: two clients share the gateway, so frame
		// coalescing and contention can show. The buffer stays shallow.
		Name: "cluster-rpc", Kind: Cluster, Shards: 1, Nodes: 2, Clients: 2,
		Workers: 64, Churners: 16, Xmax: 15, BufferLimit: 1024,
		Fill: 64 * 15, Hold: 512, Cycle: 128, OfferEvery: 1, OfferBatch: 1,
		Side: opOffer,
	},
	{
		// The paper's own response time and objective (Fig. 2a at scale
		// 0.1): HTA-APP then HTA-GRE on each instance, serial kernel, no
		// serving layer. The objective is averaged over many instances,
		// because it moves with the instances a seed draws; the solve
		// times over fewer, each solved many times, because they move with
		// the machine's speed.
		Name: "batch-solve", Kind: Batch,
		Instances: 24, Timed: 8, Tasks: 1000, Groups: 20, Workers: 20, Xmax: 20,
		Side: opSolveGRE,
	},
}

// Lookup returns the named workload from Workloads.
func Lookup(name string) (Shape, error) {
	for _, s := range Workloads {
		if s.Name == name {
			return s, nil
		}
	}
	return Shape{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Metric describes one reported metric. Every end-to-end metric is
// reported by every untraced run and every per-layer metric by every
// traced run; a layer a workload does not reach reports 0.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end: allowed worsening, as a share of the parent's median
	Layer  string  `json:"layer,omitempty"` // per-layer: the module measured
	Moves  string  `json:"moves,omitempty"` // per-layer: the end-to-end metric it should move, and where
}

// EndToEnd lists the metrics of an untraced run, mirrored by the
// "end_to_end" list of BENCHMARK.json. The two latency slots name roles,
// because every metric must exist on every workload: "wait" is the call
// after which a worker holds a new display set (POST …/complete; an
// instance's HTA-APP solve on batch-solve), "side" the workload's other
// user-facing call (Shape.Side). A bound is three times the widest
// variation of the metric at the seed commit — its spread over ten seeds,
// the difference between two runs of one seed, or the drift between two
// sets of runs — at least 3% and capped just under setup_s's, which must
// be the largest (README.md, "Bounds").
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.24},
	{Name: "wait_p50_ms", Unit: "ms", Better: "lower", Bound: 0.23},
	{Name: "wait_p95_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "side_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "side_p95_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "motivation_mean", Unit: "motiv", Better: "higher", Bound: 0.04},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

// PerLayer lists the metrics of a traced run, mirrored by the "per_layer"
// list of BENCHMARK.json, each with the end-to-end metric it should move.
var PerLayer = []Metric{
	{Name: "platform.handler_self_us_p50", Unit: "us", Better: "lower", Layer: "platform", Moves: "wait_p50_ms @ stream-wide"},
	{Name: "platform.handler_self_us_p99", Unit: "us", Better: "lower", Layer: "platform", Moves: "wait_p95_ms @ stream-wide"},
	{Name: "platform.transport_us_p50", Unit: "us", Better: "lower", Layer: "platform", Moves: "side_p50_ms @ stream-wide"},
	{Name: "platform.backend_calls_per_request", Unit: "count", Better: "lower", Layer: "platform", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "platform.resp_bytes_per_request", Unit: "B", Better: "lower", Layer: "platform", Moves: "side_p50_ms @ stream-wide"},
	{Name: "platform.errors_total", Unit: "count", Better: "lower", Layer: "platform", Moves: "failed @ all"},
	{Name: "shard.complete_us_p50", Unit: "us", Better: "lower", Layer: "shard", Moves: "wait_p50_ms @ stream-deep"},
	{Name: "shard.complete_us_p99", Unit: "us", Better: "lower", Layer: "shard", Moves: "wait_p95_ms @ stream-deep"},
	{Name: "shard.steal_moved_per_round", Unit: "count", Better: "lower", Layer: "shard", Moves: "wait_p95_ms @ stream-deep"},
	{Name: "shard.offer_us_p50", Unit: "us", Better: "lower", Layer: "shard", Moves: "side_p50_ms @ stream-deep; events_per_s @ stream-wide"},
	{Name: "shard.read_us_p50", Unit: "us", Better: "lower", Layer: "shard", Moves: "side_p50_ms @ stream-wide"},
	{Name: "shard.actor_overhead_ns_per_event", Unit: "ns", Better: "lower", Layer: "shard", Moves: "events_per_s @ stream-wide"},
	{Name: "shard.backlog_mean", Unit: "count", Better: "lower", Layer: "shard", Moves: "none: input-property check (deep vs empty)"},
	{Name: "stream.complete_ns", Unit: "ns", Better: "lower", Layer: "stream", Moves: "wait_p50_ms @ stream-deep"},
	{Name: "stream.offer_ns", Unit: "ns", Better: "lower", Layer: "stream", Moves: "side_p50_ms @ stream-deep; events_per_s @ stream-wide"},
	{Name: "stream.allocs_per_event", Unit: "count", Better: "lower", Layer: "stream", Moves: "events_per_s @ stream-deep"},
	{Name: "metric.row_ns_per_elem", Unit: "ns", Better: "lower", Layer: "metric", Moves: "wait_p50_ms @ stream-deep"},
	{Name: "cluster.gateway_complete_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "cluster.gateway_offer_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "side_p50_ms @ cluster-rpc"},
	{Name: "cluster.gateway_read_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "cluster.frames_per_event", Unit: "count", Better: "lower", Layer: "cluster", Moves: "events_per_s @ cluster-rpc"},
	{Name: "cluster.ops_per_frame", Unit: "count", Better: "higher", Layer: "cluster", Moves: "events_per_s @ cluster-rpc"},
	{Name: "cluster.req_bytes_per_frame", Unit: "B", Better: "lower", Layer: "cluster", Moves: "events_per_s @ cluster-rpc"},
	{Name: "cluster.resp_bytes_per_frame", Unit: "B", Better: "lower", Layer: "cluster", Moves: "events_per_s @ cluster-rpc"},
	{Name: "cluster.rpc_rtt_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "cluster.rpc_rtt_us_p99", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p95_ms @ cluster-rpc"},
	{Name: "cluster.node_handle_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "cluster.rpc_wait_us_p50", Unit: "us", Better: "lower", Layer: "cluster", Moves: "wait_p50_ms @ cluster-rpc"},
	{Name: "cluster.rpc_errors_total", Unit: "count", Better: "lower", Layer: "cluster", Moves: "failed @ cluster-rpc"},
	{Name: "solver.app_matching_ms_p50", Unit: "ms", Better: "lower", Layer: "solver", Moves: "wait_p50_ms @ batch-solve"},
	{Name: "solver.gre_matching_ms_p50", Unit: "ms", Better: "lower", Layer: "solver", Moves: "side_p50_ms @ batch-solve"},
	{Name: "solver.app_lsap_ms_p50", Unit: "ms", Better: "lower", Layer: "solver", Moves: "wait_p50_ms @ batch-solve"},
	{Name: "solver.gre_lsap_ms_p50", Unit: "ms", Better: "lower", Layer: "solver", Moves: "side_p50_ms @ batch-solve"},
	{Name: "solver.rest_ms_p50", Unit: "ms", Better: "lower", Layer: "solver", Moves: "wait_p50_ms, side_p50_ms @ batch-solve"},
	{Name: "core.instance_build_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "setup_s @ batch-solve"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower", Layer: "runtime", Moves: "events_per_s @ all serving"},
	{Name: "runtime.bytes_per_event", Unit: "B", Better: "lower", Layer: "runtime", Moves: "events_per_s @ all serving"},
	{Name: "runtime.gc_cycles_per_1k_events", Unit: "count", Better: "lower", Layer: "runtime", Moves: "wait_p95_ms @ cluster-rpc"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower", Layer: "runtime", Moves: "wait_p95_ms @ cluster-rpc"},
	{Name: "obs.overhead_pct", Unit: "%", Better: "lower", Layer: "obs", Moves: "events_per_s @ stream-deep, cluster-rpc"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "bench", Moves: "none: reported"},
	{Name: "ladder.assigner.ns_per_event", Unit: "ns", Better: "lower", Layer: "stream", Moves: "events_per_s @ stream-deep, stream-wide"},
	{Name: "ladder.assigner.complete_ns_p99", Unit: "ns", Better: "lower", Layer: "stream", Moves: "wait_p95_ms @ stream-deep"},
	{Name: "ladder.engine1.ns_per_event", Unit: "ns", Better: "lower", Layer: "shard", Moves: "events_per_s @ stream-deep, stream-wide"},
	{Name: "ladder.engine1.allocs_per_event", Unit: "count", Better: "lower", Layer: "shard", Moves: "events_per_s @ stream-deep, stream-wide"},
	{Name: "ladder.engine1.complete_ns_p50", Unit: "ns", Better: "lower", Layer: "shard", Moves: "wait_p50_ms @ stream-deep"},
	{Name: "ladder.engine1.complete_ns_p99", Unit: "ns", Better: "lower", Layer: "shard", Moves: "wait_p95_ms @ stream-deep"},
	{Name: "ladder.engine2.ns_per_event", Unit: "ns", Better: "lower", Layer: "shard", Moves: "events_per_s @ stream-deep, stream-wide"},
	{Name: "ladder.engine2.allocs_per_event", Unit: "count", Better: "lower", Layer: "shard", Moves: "events_per_s @ stream-deep, stream-wide"},
	{Name: "ladder.engine2.complete_ns_p50", Unit: "ns", Better: "lower", Layer: "shard", Moves: "wait_p50_ms @ stream-deep"},
	{Name: "ladder.engine2.complete_ns_p99", Unit: "ns", Better: "lower", Layer: "shard", Moves: "wait_p95_ms @ stream-deep"},
	{Name: "ladder.accounted_pct", Unit: "%", Better: "higher", Layer: "bench", Moves: "none: ladder + platform time over HTTP time, should be near 100"},
}
