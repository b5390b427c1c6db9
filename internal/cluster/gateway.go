// Package cluster promotes the sharded streaming engine past the
// single-process ceiling: N hta-server nodes each own a segment of a
// consistent-hash ring over worker IDs (shard.Ring, the engine's own
// ring, over "node-<name>" labels), and a thin gateway makes the shard
// engine's routing decision (shard.Route) with the nodes as its members:
// they score themselves over stdlib HTTP RPC instead of under shard
// locks in process, and the engine's Admission type keeps the duplicate
// filter and the submitted and dropped counts.
//
// The comms layer is built so the network never dominates:
//
//   - batching: concurrent operations destined for the same node coalesce
//     into one framed RPC (each sender drains whatever has queued for its
//     peer into the next frame);
//   - pipelining: up to Window frames per peer are in flight at once, so
//     a slow response never stalls the queue behind it;
//   - pooled persistent connections (http.Transport keep-alives) and
//     pooled encode/decode buffers keep the per-frame overhead flat;
//   - frames carry IDs and nodes deduplicate replays, so a frame whose
//     response was lost can be retried without double-applying writes —
//     the RPC analogue of the platform client's idempotency keys.
//
// Membership is heartbeat-driven: the gateway probes each node and
// rebuilds the ring without unresponsive ones. The gateway's Admission
// maps every live task to its owning node; when a node dies, its pending
// tasks requeue onto the survivors, and the gateway's global accounting
// (submitted = active + completed + buffered + dropped + expired) keeps
// holding.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// ErrNoNodes is returned when every cluster member has been removed from
// the ring — there is nowhere left to route.
var ErrNoNodes = errors.New("cluster: no live nodes")

// PeerSpec names one cluster member and its base URL.
type PeerSpec struct {
	Name string
	URL  string // e.g. http://127.0.0.1:9001
}

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Peers is the initial membership. Names must be unique; URLs are the
	// nodes' base addresses (the /cluster/ routes hang off them).
	Peers []PeerSpec
	// HTTPClient carries all RPC traffic. Defaults to a client with a
	// pooled keep-alive transport sized for the pipelining window, so
	// frames reuse persistent connections instead of dialing per request.
	HTTPClient *http.Client
	// MaxBatch caps the ops coalesced into one frame (default 64).
	MaxBatch int
	// Window caps the frames in flight per peer (default 4) — pipelining,
	// so one slow response does not stall the queue behind it.
	Window int
	// FrameRetries is the attempts per frame including the first (default
	// 3). Retries reuse the frame ID; the node's replay cache makes them
	// idempotent.
	FrameRetries int
	// RetryBackoff is the base delay between frame retries (default 25ms,
	// doubling per attempt, capped at 1s).
	RetryBackoff time.Duration
	// HeartbeatInterval is the health-probe period (default 500ms).
	// Negative disables the background loop — tests drive CheckHealth
	// directly for determinism.
	HeartbeatInterval time.Duration
	// FailAfter is the consecutive failures (health probes or frames)
	// before a node is declared dead and its tasks requeued (default 3).
	FailAfter int
	// Registry receives the gateway instruments (obs.Default() when nil),
	// including the per-peer RPC internals, and is merged into the
	// federated snapshot as node "gateway".
	Registry *obs.Registry
	// Logger receives membership events (slog.Default() when nil).
	Logger *slog.Logger
	// Tracer records the gateway's RPC and heartbeat spans and is the
	// local ring cluster-trace stitching merges with the nodes' rings
	// (trace.Default() when nil).
	Tracer *trace.Recorder
	// Journal records membership events — failovers, re-partitions, joins,
	// snapshot cuts (ops.Default() when nil).
	Journal *ops.Journal
	// FederationInterval bounds the staleness of the cached federated
	// metrics snapshot (default 2s; negative = refetch on every read).
	FederationInterval time.Duration
}

// placement records where a live (active or buffered) task lives, so a
// node death can requeue exactly the tasks it held.
type placement struct {
	node string
	task *core.Task
}

// gwMetrics are the gateway instruments.
type gwMetrics struct {
	Nodes     *obs.Gauge   // current live member count
	NodeDrops *obs.Counter // members declared dead
	Requeued  *obs.Counter // tasks requeued off dead nodes
	Lost      *obs.Counter // tasks dropped because requeue failed
}

func newGwMetrics(r *obs.Registry) *gwMetrics {
	if r == nil {
		r = obs.Default()
	}
	return &gwMetrics{
		Nodes: r.Gauge("hta_cluster_nodes",
			"live members on the cluster ring"),
		NodeDrops: r.Counter("hta_cluster_node_drops_total",
			"cluster members declared dead by the heartbeat loop"),
		Requeued: r.Counter("hta_cluster_requeued_total",
			"pending tasks requeued onto survivors after a node death"),
		Lost: r.Counter("hta_cluster_lost_total",
			"pending tasks dropped because no survivor could take them"),
	}
}

// Gateway makes the engine's offer decision, shard.Route, over a ring of
// cluster nodes as members, presenting the same surface as a local
// *shard.Engine (it satisfies platform.StreamBackend). One gateway fronts
// N hta-server -node processes; all public traffic flows through it,
// which is what makes the global accounting below exact.
//
// Accounting: the gateway's shard.Admission owns Submitted (offers it
// accepted) and its own Dropped (offers rejected everywhere plus failed
// requeues), under the engine's reject rule; the gateway owns Completed
// (completions it routed); nodes own their internal drops
// (worker-removal overflow) and expiries, gathered live, drops absorbed
// at death. At quiescence the global conservation law Submitted = Active
// + Completed + Buffered + Dropped + Expired holds across the whole
// cluster, including after node failures. The Admission is also the one
// ID-keyed task map: each live ID maps to its node and task, and leaves
// on completion, removal drop, reject or failed requeue. Three
// documented caveats: node-internal steal drops are invisible to it (run
// cluster nodes with the steal loop off); a node that runs its own
// expiry sweep (-deadline-aware) expires tasks without telling the
// gateway, so their IDs stay live here, and dropNode requeues them; and
// drops a node suffers between its last heartbeat and its death are lost
// from the global count.
type Gateway struct {
	cfg     GatewayConfig
	log     *slog.Logger
	met     *gwMetrics
	reg     *obs.Registry
	tracer  *trace.Recorder
	journal *ops.Journal

	// fedMu serializes federation scrapes and guards the TTL cache — a
	// burst of /metrics reads coalesces into one fan-out per interval.
	fedMu   sync.Mutex
	fedAt   time.Time
	fedSnap obs.Snapshot
	fedOK   bool

	// opGate is the snapshot barrier: every op holds it for read, a
	// merged snapshot holds it for write — a cluster-wide cut, the RPC
	// analogue of the engine's liveness lock.
	opGate sync.RWMutex

	// mu guards membership: the ring over the live names (indexed like
	// order; nil once every member is dead), the peer table, and the
	// per-node drop counters the death accounting absorbs.
	mu          sync.Mutex
	ring        *shard.Ring
	peers       map[string]*peer
	order       []string // live member names, sorted — deterministic scatter order
	lastDropped map[string]int64
	deadDropped int64

	// locMu guards the worker→node pin map. Workers are placed by ring
	// lookup at registration and pinned, so membership changes never
	// reroute an existing worker's calls to a node that has never heard
	// of it — the ring decides placement, the pin decides routing. A
	// worker's record does not change after registration, so the pin also
	// keeps it and Worker reads it without an RPC. locGen counts pin
	// removals, so a read that fills a pin after its RPC can tell whether
	// the worker left meanwhile.
	locMu     sync.RWMutex
	workerLoc map[string]workerPin
	locGen    uint64

	// adm admits offers: the cluster-wide filter over live task IDs, each
	// mapped to its placement, Submitted, and the gateway-level drops
	// (total rejects + failed requeues).
	adm       *shard.Admission[placement]
	completed atomic.Int64

	closed atomic.Bool
	hbStop chan struct{}
	hbDone chan struct{}
}

// workerPin is a worker's entry in the gateway's pin map: the node that
// owns it and the record it registered with.
type workerPin struct {
	node   string
	worker *core.Worker
}

// NewGateway validates the configuration, builds the ring and peer table,
// and starts the heartbeat loop (unless disabled).
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("cluster: gateway needs >= 1 peer")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 4
	}
	if cfg.FrameRetries <= 0 {
		cfg.FrameRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 2 * cfg.Window,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Journal == nil {
		cfg.Journal = ops.Default()
	}
	if cfg.FederationInterval == 0 {
		cfg.FederationInterval = 2 * time.Second
	}
	names := make([]string, 0, len(cfg.Peers))
	peers := make(map[string]*peer, len(cfg.Peers))
	for _, ps := range cfg.Peers {
		if ps.Name == "" || ps.URL == "" {
			return nil, fmt.Errorf("cluster: peer needs name and URL (got %q, %q)", ps.Name, ps.URL)
		}
		if _, dup := peers[ps.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer %q", ps.Name)
		}
		names = append(names, ps.Name)
		peers[ps.Name] = newPeer(ps.Name, strings.TrimRight(ps.URL, "/"), cfg.HTTPClient,
			cfg.Registry, cfg.MaxBatch, cfg.Window, cfg.FrameRetries, cfg.RetryBackoff)
	}
	sort.Strings(names)
	ring, err := nodeRing(names)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:         cfg,
		log:         cfg.Logger,
		met:         newGwMetrics(cfg.Registry),
		reg:         cfg.Registry,
		tracer:      cfg.Tracer,
		journal:     cfg.Journal,
		ring:        ring,
		peers:       peers,
		order:       names,
		lastDropped: make(map[string]int64, len(peers)),
		workerLoc:   make(map[string]workerPin),
		adm:         shard.NewAdmission[placement](nil, nil),
		hbStop:      make(chan struct{}),
		hbDone:      make(chan struct{}),
	}
	g.met.Nodes.Set(float64(len(names)))
	if cfg.HeartbeatInterval > 0 {
		go g.heartbeat()
	} else {
		close(g.hbDone)
	}
	return g, nil
}

// Close stops the heartbeat loop and fails all queued RPC. Idempotent.
func (g *Gateway) Close() error {
	if g.closed.Swap(true) {
		return nil
	}
	close(g.hbStop)
	<-g.hbDone
	g.mu.Lock()
	peers := make([]*peer, 0, len(g.peers))
	for _, p := range g.peers {
		peers = append(peers, p)
	}
	g.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
	return nil
}

// livePeers snapshots the live members in deterministic (sorted-name)
// order.
func (g *Gateway) livePeers() []*peer {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*peer, 0, len(g.order))
	for _, name := range g.order {
		if p := g.peers[name]; p != nil && !p.down.Load() {
			out = append(out, p)
		}
	}
	return out
}

// nodeRing builds the ring over the sorted live names, with the point
// labels "node-<name>"; nil when no member is left.
func nodeRing(names []string) (*shard.Ring, error) {
	if len(names) == 0 {
		return nil, nil
	}
	labels := make([]string, len(names))
	for i, n := range names {
		labels[i] = "node-" + n
	}
	return shard.NewRing(labels)
}

// fanOut sends op to every live peer at once, so the frames travel
// concurrently, and returns the peers that answered OK with their
// results, in sorted-name order. A node failing mid-scatter is routed
// around.
func (g *Gateway) fanOut(ctx context.Context, op Op) ([]*peer, []OpResult) {
	peers := g.livePeers()
	calls := make([]*call, len(peers))
	for i, p := range peers {
		calls[i] = p.doAsyncCtx(ctx, op)
	}
	answered, results := peers[:0], make([]OpResult, 0, len(peers))
	for i, p := range peers {
		if res, err := p.wait(calls[i]); err == nil && res.OK {
			answered, results = append(answered, p), append(results, res)
		}
	}
	return answered, results
}

// owner resolves the node responsible for a worker: the registration pin
// when one exists, the ring otherwise. After Close it fails with
// shard.ErrClosed, so every per-worker call does.
func (g *Gateway) owner(workerID string) (*peer, error) {
	if g.closed.Load() {
		return nil, shard.ErrClosed
	}
	g.locMu.RLock()
	pin, pinned := g.workerLoc[workerID]
	g.locMu.RUnlock()
	name := pin.node
	g.mu.Lock()
	defer g.mu.Unlock()
	if !pinned {
		if g.ring == nil {
			return nil, ErrNoNodes
		}
		name = g.order[g.ring.Lookup(workerID)]
	}
	p := g.peers[name]
	if p == nil || p.down.Load() {
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, name)
	}
	return p, nil
}

// resultErr maps a node-side failure back onto the sentinel errors the
// platform layer understands; plain messages keep the node's wording, so
// "unknown worker" / "not active" matching still works across the wire.
func resultErr(res OpResult) error {
	switch res.Code {
	case codeFull:
		return stream.ErrBufferFull
	case codeClosed:
		return shard.ErrClosed
	}
	if res.Err != "" {
		return errors.New(res.Err)
	}
	return errors.New("cluster: op failed")
}

// OfferTask is OfferTaskCtx with a background context.
func (g *Gateway) OfferTask(t *core.Task) (string, error) {
	return g.OfferTaskCtx(context.Background(), t)
}

// OfferTaskCtx routes an arriving task across the cluster: the shard
// engine's decision over the live nodes (shard.Route), whose scatter is a
// score op to every node (one batched frame each, traveling
// concurrently) — commit down the ranking of the nodes that scored free,
// else buffer on the least backlogged node. Returns the assigned worker's
// ID ("" if buffered), or stream.ErrBufferFull when every node is full.
func (g *Gateway) OfferTaskCtx(ctx context.Context, t *core.Task) (string, error) {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	if g.closed.Load() {
		return "", shard.ErrClosed
	}
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", errors.New("cluster: nil task or empty ID")
	}
	if !g.adm.Admit(t.ID) {
		return "", fmt.Errorf("cluster: duplicate task %q", t.ID)
	}
	wid, node, err := g.routeTask(ctx, t)
	if err != nil {
		// Rejected everywhere: the engine's reject rule.
		g.adm.Reject(t.ID)
		return "", err
	}
	g.adm.Place(t.ID, placement{node: node, task: t})
	return wid, nil
}

// routeTask is the shared decision (shard.Route) over the live nodes,
// for offers and failover requeues (which must not re-count Submitted).
// A sampled ctx opens one RPC span per scatter/commit/buffer leg, each
// propagated to its node, so the stitched trace shows the whole routing
// fan-out.
func (g *Gateway) routeTask(ctx context.Context, t *core.Task) (wid, node string, err error) {
	rec := core.RecordOf(t)
	n := &nodes{g: g, task: &rec}
	wid, at, err := shard.Route(ctx, n, t)
	if len(n.peers) == 0 {
		return "", "", ErrNoNodes
	}
	if err != nil {
		return "", "", err
	}
	return wid, n.peers[at].name, nil
}

// nodes is the live peers as routing members of one task's decision,
// which carries its encoded task. Its scatter fixes the members: the
// peers that answered, in sorted-name order.
type nodes struct {
	g     *Gateway
	peers []*peer
	task  *core.TaskRecord
}

// Scatter sends the score op to every live node at once, so the frames
// travel concurrently. A node failing mid-scatter is routed around.
func (n *nodes) Scatter(ctx context.Context, _ *core.Task) []shard.Score {
	var results []OpResult
	n.peers, results = n.g.fanOut(ctx, Op{Op: opScore, Task: n.task})
	scores := make([]shard.Score, len(results))
	for i, res := range results {
		scores[i] = shard.Score{Gain: res.Gain, Rel: res.Rel, Free: res.Free, Backlog: res.Backlog}
	}
	return scores
}

// Rescore has nothing to fill: a node answers the score op in full,
// since asking it again would cost an RPC round trip, where the scan it
// spares costs a few microseconds.
func (n *nodes) Rescore(context.Context, *core.Task, []shard.Score) {}

func (n *nodes) Commit(ctx context.Context, i int, _ *core.Task) (string, bool) {
	res, err := n.peers[i].doCtx(ctx, Op{Op: opCommit, Task: n.task})
	return res.WorkerID, err == nil && res.OK
}

func (n *nodes) Buffer(ctx context.Context, i int, _ *core.Task) error {
	res, err := n.peers[i].doCtx(ctx, Op{Op: opBuffer, Task: n.task})
	if err == nil && !res.OK {
		err = resultErr(res)
	}
	return err
}

// AddWorker is AddWorkerCtx with a background context.
func (g *Gateway) AddWorker(w *core.Worker) ([]*core.Task, error) {
	return g.AddWorkerCtx(context.Background(), w)
}

// AddWorkerCtx places the worker on its owner (the ring's pick, or its
// pin), pins it there, and returns any buffered tasks the arrival drained
// into assignment.
func (g *Gateway) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	if w == nil || w.ID == "" {
		return nil, errors.New("cluster: nil worker or empty ID")
	}
	p, err := g.owner(w.ID)
	if err != nil {
		return nil, err
	}
	rec := core.WorkerRecordOf(w)
	res, err := p.doCtx(ctx, Op{Op: opAddWorker, Worker: &rec})
	if err == nil && !res.OK {
		err = resultErr(res)
	}
	if err != nil {
		return nil, err
	}
	g.locMu.Lock()
	g.workerLoc[w.ID] = workerPin{node: p.name, worker: w}
	g.locMu.Unlock()
	return core.TasksOf(res.Tasks)
}

// RemoveWorker is RemoveWorkerCtx with a background context.
func (g *Gateway) RemoveWorker(id string) ([]*core.Task, error) {
	return g.RemoveWorkerCtx(context.Background(), id)
}

// RemoveWorkerCtx deregisters the worker from its node. Tasks the node
// could not rebuffer come back dropped — the node counted them in its own
// drop counter, so the gateway only releases their IDs (counting them
// here too would double them in the global accounting).
func (g *Gateway) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	res, err := g.onOwner(ctx, Op{Op: opRemoveWorker, WorkerID: id}, func(_ *peer, res OpResult) error {
		g.locMu.Lock()
		delete(g.workerLoc, id)
		g.locGen++
		g.locMu.Unlock()
		for _, twr := range res.Tasks {
			g.adm.Release(twr.ID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return core.TasksOf(res.Tasks)
}

// Complete is CompleteCtx with a background context.
func (g *Gateway) Complete(workerID, taskID string) (*core.Task, error) {
	return g.CompleteCtx(context.Background(), workerID, taskID)
}

// CompleteCtx marks the task finished on the worker's node and returns
// the buffered task (if any) the completion pulled into the freed slot.
func (g *Gateway) CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error) {
	res, err := g.complete(ctx, workerID, taskID)
	if err != nil || res.Next == nil {
		return nil, err
	}
	// The pulled task moved buffer→active on the same node; its
	// placement already points there.
	return res.Next.Task()
}

// CompleteRead is CompleteCtx with the read-back the platform answers a
// completion with: the node returns the worker's display set in the
// complete op's result, so the whole call is one frame. A node that
// predates the display marker returns no set; the gateway then reads it
// with an active_tasks op, a second frame. The worker record comes from
// the registration pin (see Worker).
func (g *Gateway) CompleteRead(ctx context.Context, workerID, taskID string) (shard.Completion, error) {
	var c shard.Completion
	res, err := g.complete(ctx, workerID, taskID)
	if err != nil {
		return c, err
	}
	if res.Next != nil {
		if c.Next, err = res.Next.Task(); err != nil {
			return c, err
		}
	}
	if res.Display {
		c.Active, err = core.TasksOf(res.Tasks)
	} else {
		c.Active, err = g.ActiveTasks(workerID)
	}
	if err == nil {
		c.Worker, err = g.Worker(workerID)
	}
	if err != nil {
		// The completion stands; only the read-back failed.
		return shard.Completion{Next: c.Next}, nil
	}
	return c, nil
}

// complete is the body of CompleteCtx and CompleteRead: the complete op
// on the worker's node and the gateway's accounting for it.
func (g *Gateway) complete(ctx context.Context, workerID, taskID string) (OpResult, error) {
	return g.onOwner(ctx, Op{Op: opComplete, WorkerID: workerID, TaskID: taskID}, func(*peer, OpResult) error {
		g.completed.Add(1)
		g.adm.Release(taskID)
		return nil
	})
}

// onOwner is the per-worker call: op on the node that owns op.WorkerID,
// under the op gate, with a node-side failure mapped by resultErr. then,
// when set, runs on success before the gate is released, so the
// gateway's own bookkeeping of the op joins the same snapshot cut; its
// error is the call's.
func (g *Gateway) onOwner(ctx context.Context, op Op, then func(p *peer, res OpResult) error) (OpResult, error) {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	p, err := g.owner(op.WorkerID)
	if err != nil {
		return OpResult{}, err
	}
	res, err := p.doCtx(ctx, op)
	if err == nil && !res.OK {
		err = resultErr(res)
	}
	if err == nil && then != nil {
		err = then(p, res)
	}
	if err != nil {
		return OpResult{}, err
	}
	return res, nil
}

// ActiveTasks returns the worker's assigned tasks.
func (g *Gateway) ActiveTasks(workerID string) ([]*core.Task, error) {
	res, err := g.onOwner(context.Background(), Op{Op: opActiveTasks, WorkerID: workerID}, nil)
	if err != nil {
		return nil, err
	}
	return core.TasksOf(res.Tasks)
}

// Worker returns the registered worker record. A worker this gateway
// registered is answered from its pin, after the liveness check every
// per-worker call makes; one registered before the gateway started costs
// one RPC to its owner, and the answer pins it there.
func (g *Gateway) Worker(workerID string) (*core.Worker, error) {
	g.locMu.RLock()
	pin, pinned := g.workerLoc[workerID]
	gen := g.locGen
	g.locMu.RUnlock()
	if pinned {
		if _, err := g.owner(workerID); err != nil {
			return nil, err
		}
		return pin.worker, nil
	}
	var w *core.Worker
	_, err := g.onOwner(context.Background(), Op{Op: opWorker, WorkerID: workerID}, func(p *peer, res OpResult) (err error) {
		if res.Worker == nil {
			return resultErr(res)
		}
		if w, err = res.Worker.Worker(); err != nil {
			return err
		}
		g.locMu.Lock()
		if _, pinned := g.workerLoc[workerID]; !pinned && g.locGen == gen {
			g.workerLoc[workerID] = workerPin{node: p.name, worker: w}
		}
		g.locMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

// Trust returns the worker's trust multiplier from its owning node.
func (g *Gateway) Trust(workerID string) (float64, error) {
	res, err := g.onOwner(context.Background(), Op{Op: opTrust, WorkerID: workerID}, nil)
	return res.Value, err
}

// SetTrust updates the worker's trust multiplier on its owning node
// (stream.Assigner.SetTrust semantics). Tasks drained by a lifted
// quarantine are returned.
func (g *Gateway) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	res, err := g.onOwner(context.Background(), Op{Op: opSetTrust, WorkerID: workerID, Trust: &trust}, nil)
	if err != nil {
		return nil, err
	}
	return core.TasksOf(res.Tasks)
}

// SetWindow records the worker's availability-window end on its owning
// node (0 clears it).
func (g *Gateway) SetWindow(workerID string, until int64) error {
	_, err := g.onOwner(context.Background(), Op{Op: opSetWindow, WorkerID: workerID, Window: &until}, nil)
	return err
}

// Window returns the worker's recorded availability-window end (0 =
// unknown) from its owning node.
func (g *Gateway) Window(workerID string) (int64, error) {
	res, err := g.onOwner(context.Background(), Op{Op: opWindow, WorkerID: workerID}, nil)
	return res.Until, err
}

// Completed returns how many tasks the worker finished.
func (g *Gateway) Completed(workerID string) (int, error) {
	res, err := g.onOwner(context.Background(), Op{Op: opCompleted, WorkerID: workerID}, nil)
	return res.Count, err
}

// WorkerIDs gathers all registered worker IDs, grouped by node in sorted
// node order.
func (g *Gateway) WorkerIDs() []string {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	_, results := g.fanOut(context.Background(), Op{Op: opWorkers})
	var out []string
	for _, res := range results {
		out = append(out, res.IDs...)
	}
	return out
}

// Objective sums every node's streaming objective. Exact at quiescence.
func (g *Gateway) Objective() float64 {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	_, results := g.fanOut(context.Background(), Op{Op: opObjective})
	var total float64
	for _, res := range results {
		total += res.Value
	}
	return total
}

// Stats merges every live node's load picture into one cluster-wide
// accounting, renumbering per-shard entries into a global sequence.
// Submitted/Completed come from the gateway's own counters; Dropped folds
// the gateway's rejects, live nodes' internal drops, and the absorbed
// counts of dead nodes.
func (g *Gateway) Stats() shard.Stats {
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	return g.statsLocked()
}

func (g *Gateway) statsLocked() shard.Stats {
	st := shard.Stats{}
	// A failing node's drops are covered by its lastDropped cache.
	peers, results := g.fanOut(context.Background(), Op{Op: opStats})
	var liveDropped int64
	offset := 0
	for i, res := range results {
		if res.Stats == nil {
			continue
		}
		p, ns := peers[i], *res.Stats
		for _, ps := range ns.PerShard {
			ps.Shard += offset
			st.PerShard = append(st.PerShard, ps)
		}
		offset += ns.Shards
		st.Shards += ns.Shards
		st.Workers += ns.Workers
		st.Active += ns.Active
		st.Buffered += ns.Buffered
		st.Expired += ns.Expired
		liveDropped += ns.Dropped
		g.noteNodeDropped(p.name, ns.Dropped)
	}
	g.mu.Lock()
	dead := g.deadDropped
	g.mu.Unlock()
	st.Submitted = g.adm.Submitted()
	st.Completed = g.completed.Load()
	st.Dropped = g.adm.Dropped() + dead + liveDropped
	return st
}

// noteNodeDropped records the freshest view of a node's internal drop
// counter — the value absorbed into the global count if the node dies.
func (g *Gateway) noteNodeDropped(name string, dropped int64) {
	g.mu.Lock()
	if dropped > g.lastDropped[name] {
		g.lastDropped[name] = dropped
	}
	g.mu.Unlock()
}

// mergedSnapshot is the cluster snapshot document: one consistent cut of
// every live node's engine snapshot plus the gateway's own counters.
type mergedSnapshot struct {
	Version   int            `json:"version"`
	Submitted int64          `json:"submitted"`
	Completed int64          `json:"completed"`
	Dropped   int64          `json:"dropped"` // gateway rejects + absorbed dead-node drops
	Nodes     []nodeSnapshot `json:"nodes"`
}

type nodeSnapshot struct {
	Name   string          `json:"name"`
	Engine json.RawMessage `json:"engine"`
}

// Snapshot writes a merged cluster snapshot. It holds the op gate for
// write — no operation is in flight anywhere while the per-node cuts are
// taken, so the merged document is a consistent global view (each node's
// own snapshot is a consistent cut of its engine too).
func (g *Gateway) Snapshot(w io.Writer) error {
	g.opGate.Lock()
	defer g.opGate.Unlock()
	if g.closed.Load() {
		return shard.ErrClosed
	}
	doc := mergedSnapshot{Version: 1}
	for _, p := range g.livePeers() {
		raw, err := p.snapshot(context.Background())
		if err != nil {
			return fmt.Errorf("cluster: snapshot of %s: %w", p.name, err)
		}
		if !json.Valid(raw) {
			return fmt.Errorf("cluster: snapshot of %s: truncated document", p.name)
		}
		doc.Nodes = append(doc.Nodes, nodeSnapshot{Name: p.name, Engine: raw})
	}
	g.mu.Lock()
	dead := g.deadDropped
	g.mu.Unlock()
	doc.Submitted = g.adm.Submitted()
	doc.Completed = g.completed.Load()
	doc.Dropped = g.adm.Dropped() + dead
	g.journal.Emit(ops.EventSnapshot, "gateway", "nodes", strconv.Itoa(len(doc.Nodes)))
	buf, err := encodeJSON(&doc)
	if err != nil {
		return err
	}
	defer putBuf(buf)
	_, err = w.Write(buf.Bytes())
	return err
}

// heartbeat is the background health loop.
func (g *Gateway) heartbeat() {
	defer close(g.hbDone)
	tick := time.NewTicker(g.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.hbStop:
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.HeartbeatInterval)
		g.CheckHealth(ctx)
		cancel()
	}
}

// CheckHealth probes every live member once and applies the failure
// policy: FailAfter consecutive failures (probes or frames) remove the
// node from the ring and requeue its pending tasks. Exported so tests can
// drive membership deterministically with the background loop disabled.
func (g *Gateway) CheckHealth(ctx context.Context) {
	for _, p := range g.livePeers() {
		hctx, sp := g.tracer.Start(ctx, "cluster.heartbeat", trace.Str("peer", p.name))
		h, err := p.health(hctx)
		sp.End()
		if err != nil {
			if int(p.fails.Add(1)) >= g.cfg.FailAfter {
				g.dropNode(p.name)
			}
			continue
		}
		p.fails.Store(0)
		g.noteNodeDropped(p.name, h.Dropped)
	}
}

// dropNode declares a member dead: removes it from the ring, absorbs its
// last known internal drop count, fails its queued RPC, unpins its
// workers, and requeues its pending tasks onto the survivors. Requeued
// tasks do not re-count Submitted — they were counted when first
// accepted; requeues that fail everywhere count Dropped.
func (g *Gateway) dropNode(name string) {
	// Heartbeat-only caller: safe to take the op gate for read (requeue
	// routes ops), which also serializes failover against snapshots.
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	g.mu.Lock()
	p := g.peers[name]
	at := sort.SearchStrings(g.order, name)
	if p == nil || p.down.Load() || at == len(g.order) || g.order[at] != name {
		g.mu.Unlock()
		return
	}
	g.order = append(g.order[:at], g.order[at+1:]...)
	g.ring, _ = nodeRing(g.order) // cannot fail: a subset of valid names
	g.deadDropped += g.lastDropped[name]
	live := len(g.order)
	g.mu.Unlock()
	p.markDown()
	g.met.Nodes.Set(float64(live))
	g.met.NodeDrops.Inc()

	g.locMu.Lock()
	for id, pin := range g.workerLoc {
		if pin.node == name {
			delete(g.workerLoc, id)
		}
	}
	g.locGen++
	g.locMu.Unlock()

	// The orphans stay live while they requeue, so a re-offer of one is
	// still refused.
	orphans := g.adm.Select(func(p placement) bool { return p.node == name })
	requeued, lost := 0, 0
	for _, o := range orphans {
		_, node, err := g.routeTask(context.Background(), o.task)
		if err != nil {
			g.adm.Reject(o.task.ID)
			lost++
			continue
		}
		g.adm.Place(o.task.ID, placement{node: node, task: o.task})
		requeued++
	}
	g.met.Requeued.Add(float64(requeued))
	g.met.Lost.Add(float64(lost))
	g.journal.Emit(ops.EventFailover, name,
		"live", strconv.Itoa(live),
		"requeued", strconv.Itoa(requeued),
		"lost", strconv.Itoa(lost))
	g.journal.Emit(ops.EventRepartition, name,
		"reason", "failover", "live", strconv.Itoa(live))
	g.log.Warn("cluster node dropped",
		"node", name, "live", live, "requeued", requeued, "lost", lost)
}

// AddNode joins a fresh member to the ring. The node is probed once
// before joining; only keys landing on its arcs move, and existing
// workers stay pinned to their original nodes, so in-flight traffic is
// unaffected. Rejoining a previously removed name is refused — its
// pre-death state would double-count against the requeued tasks.
func (g *Gateway) AddNode(name, url string) error {
	if g.closed.Load() {
		return shard.ErrClosed
	}
	if name == "" || url == "" {
		return errors.New("cluster: AddNode needs name and URL")
	}
	g.opGate.RLock()
	defer g.opGate.RUnlock()
	g.mu.Lock()
	if _, exists := g.peers[name]; exists {
		g.mu.Unlock()
		return fmt.Errorf("cluster: member %q already known (rejoin under a fresh name)", name)
	}
	g.mu.Unlock()
	p := newPeer(name, strings.TrimRight(url, "/"), g.cfg.HTTPClient,
		g.reg, g.cfg.MaxBatch, g.cfg.Window, g.cfg.FrameRetries, g.cfg.RetryBackoff)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	h, err := p.health(ctx)
	cancel()
	if err != nil {
		return fmt.Errorf("cluster: join probe of %q: %w", name, err)
	}
	g.mu.Lock()
	if _, exists := g.peers[name]; exists {
		g.mu.Unlock()
		return fmt.Errorf("cluster: member %q already known (rejoin under a fresh name)", name)
	}
	order := append(append([]string(nil), g.order...), name)
	sort.Strings(order)
	ring, err := nodeRing(order)
	if err != nil {
		g.mu.Unlock()
		return err
	}
	g.peers[name] = p
	g.order, g.ring = order, ring
	g.lastDropped[name] = h.Dropped
	live := len(g.order)
	g.mu.Unlock()
	g.met.Nodes.Set(float64(live))
	g.journal.Emit(ops.EventNodeJoin, name, "live", strconv.Itoa(live))
	g.journal.Emit(ops.EventRepartition, name,
		"reason", "join", "live", strconv.Itoa(live))
	g.log.Info("cluster node joined", "node", name, "live", live)
	return nil
}

// Members returns the live member names in sorted order.
func (g *Gateway) Members() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.order...)
}

// FramesSent and OpsSent aggregate the RPC telemetry across all peers
// (including dead ones): total frames shipped and ops they carried. The
// ratio is the realized coalescing factor the batching layer achieved.
func (g *Gateway) FramesSent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, p := range g.peers {
		n += p.frames.Load()
	}
	return n
}

// OpsSent is documented with FramesSent.
func (g *Gateway) OpsSent() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var n int64
	for _, p := range g.peers {
		n += p.ops.Load()
	}
	return n
}
