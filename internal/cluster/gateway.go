// Package cluster promotes the sharded streaming engine past the
// single-process ceiling: N hta-server nodes each own a segment of a
// consistent-hash ring over worker IDs (shard.Ring, the engine's own
// ring, over "node-<name>" labels), and a thin gateway is the engine's
// body (shard.Body) over the nodes as its parts. A node is a shard.Part
// behind stdlib HTTP RPC (peer): each call is one op, which the node
// applies to its engine through the same interface (applyOp). The body
// brings the offer decision's admission, the liveness barrier, the
// per-worker calls and the merged reads; the gateway brings what only it
// has: the ring over live names with worker pins as its owner lookup,
// the concurrent scatter, heartbeats, failover requeue, joins and
// federation. The body writes the gateway's snapshot as it writes an
// engine's, from the nodes' cuts, so the cluster's document is an
// ordinary engine document that shard.Restore reads at any shard count.
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
// maps every live task to its owning node (placement); when a node dies, its pending
// tasks requeue onto the survivors, and the gateway's global accounting
// (submitted = active + completed + buffered + dropped + expired) keeps
// holding.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
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
	// Journal records membership events — failovers, re-partitions, joins
	// (ops.Default() when nil).
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

// Gateway is the engine's body over a ring of cluster nodes as parts,
// presenting the same surface as a local *shard.Engine (it satisfies
// platform.StreamBackend). One gateway fronts N hta-server -node
// processes; all public traffic flows through it, which is what makes the
// global accounting below exact.
//
// Accounting: the gateway's shard.Admission owns Submitted (offers it
// accepted) and its own Dropped (offers rejected everywhere plus failed
// requeues), under the engine's reject rule; the body owns Completed
// (completions it routed); nodes own their internal drops (worker-removal
// overflow) and expiries, gathered live, drops absorbed at death. At
// quiescence the global conservation law Submitted = Active + Completed +
// Buffered + Dropped + Expired holds across the whole cluster, including
// after node failures. The Admission is also the one ID-keyed task map:
// each live ID maps to its node and task, and leaves on completion,
// removal drop, reject or failed requeue. Three documented caveats:
// node-internal steal drops are invisible to it (run cluster nodes with
// the steal loop off); a node that runs its own expiry sweep
// (-deadline-aware) expires tasks without telling the gateway, so their
// IDs stay live here, and dropNode requeues them; and drops a node
// suffers between its last heartbeat and its death are lost from the
// global count.
type Gateway struct {
	*shard.Body[placement]
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

	// mu guards membership: the ring over the live names (indexed like
	// order; nil once every member is dead) and the peer table. Workers
	// are placed by ring lookup at registration and pinned to their node
	// (peer.pins), so membership changes never reroute an existing
	// worker's calls to a node that has never heard of it — the ring
	// decides placement, the pin decides routing.
	mu    sync.Mutex
	ring  *shard.Ring
	peers map[string]*peer
	order []string // live member names, sorted — deterministic scatter order

	// adm admits offers: the cluster-wide filter over live task IDs, each
	// mapped to its placement, Submitted, and the gateway-level drops
	// (total rejects + failed requeues).
	adm *shard.Admission[placement]

	hbStop chan struct{}
	hbDone chan struct{}
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
		cfg:     cfg,
		log:     cfg.Logger,
		met:     newGwMetrics(cfg.Registry),
		reg:     cfg.Registry,
		tracer:  cfg.Tracer,
		journal: cfg.Journal,
		ring:    ring,
		peers:   peers,
		order:   names,
		adm:     shard.NewAdmission[placement](nil, nil),
		hbStop:  make(chan struct{}),
		hbDone:  make(chan struct{}),
	}
	g.Body = shard.NewBody(g.adm, nodeSet{g}, g.stop)
	g.met.Nodes.Set(float64(len(names)))
	if cfg.HeartbeatInterval > 0 {
		go g.heartbeat()
	} else {
		close(g.hbDone)
	}
	return g, nil
}

// Close waits out the operations in flight, stops the heartbeat loop and
// fails all queued RPC. Idempotent; operations after Close return
// shard.ErrClosed.
func (g *Gateway) Close() error {
	g.Body.Close()
	return nil
}

// stop is the part of Close only the gateway has.
func (g *Gateway) stop() {
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

// owner resolves the node that serves a worker's calls: the live member
// that pinned it, else the ring's pick.
func (g *Gateway) owner(workerID string) (*peer, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ring == nil {
		return nil, ErrNoNodes
	}
	var p *peer
	for _, name := range g.order {
		if q := g.peers[name]; q.pinned(workerID) {
			p = q
			break
		}
	}
	if p == nil {
		p = g.peers[g.order[g.ring.Lookup(workerID)]]
	}
	if p.down.Load() {
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, p.name)
	}
	return p, nil
}

// nodeSet is the live nodes as the gateway body's part set.
type nodeSet struct{ g *Gateway }

func (s nodeSet) Owner(workerID string) (shard.Part, error) {
	p, err := s.g.owner(workerID)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (s nodeSet) Parts() (parts []shard.Part) {
	for _, p := range s.g.livePeers() {
		parts = append(parts, p)
	}
	return parts
}

// Route is the shared decision (shard.Route) over the live nodes, for
// offers and failover requeues (which must not re-count Submitted), and
// the task's placement on the node that took it. A sampled ctx opens one
// RPC span per scatter/commit/buffer leg, each propagated to its node, so
// the stitched trace shows the whole routing fan-out.
func (s nodeSet) Route(ctx context.Context, t *core.Task) (string, error) {
	rec := core.RecordOf(t)
	d := &decision{g: s.g, task: &rec}
	wid, at, err := shard.Route(ctx, d, t)
	if len(d.peers) == 0 {
		return "", ErrNoNodes
	}
	if err == nil {
		s.g.adm.Place(t.ID, placement{node: d.peers[at].name, task: t})
	}
	return wid, err
}

// decision is the live peers as routing members of one task's decision,
// which carries its encoded task. Its scatter fixes the members: the
// peers that answered, in sorted-name order.
type decision struct {
	g     *Gateway
	peers []*peer
	task  *core.TaskRecord
}

// Scatter sends the score op to every live node before it waits for any,
// so the frames travel concurrently. A node failing mid-scatter is routed
// around.
func (d *decision) Scatter(ctx context.Context, _ *core.Task) []shard.Score {
	peers := d.g.livePeers()
	calls := make([]*call, len(peers))
	for i, p := range peers {
		calls[i] = p.doAsyncCtx(ctx, Op{Op: opScore, Task: d.task})
	}
	d.peers = peers[:0]
	scores := make([]shard.Score, 0, len(peers))
	for i, p := range peers {
		if res, err := p.wait(calls[i]); err == nil && res.OK {
			d.peers = append(d.peers, p)
			scores = append(scores, scoreOf(res))
		}
	}
	return scores
}

// Rescore has nothing to fill: a node answers the score op in full,
// since asking it again would cost an RPC round trip, where the scan it
// spares costs a few microseconds.
func (d *decision) Rescore(context.Context, *core.Task, []shard.Score) {}

func (d *decision) Commit(ctx context.Context, i int, _ *core.Task) (string, bool) {
	return d.peers[i].commit(ctx, d.task)
}

func (d *decision) Buffer(ctx context.Context, i int, _ *core.Task) error {
	_, err := d.peers[i].rpc(ctx, Op{Op: opBuffer, Task: d.task})
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
		p.noteDropped(h.Dropped)
	}
}

// dropNode declares a member dead: removes it from the ring, which
// unpins its workers, absorbs its last known internal drop count, fails
// its queued RPC, and requeues its pending tasks onto the survivors.
// Requeued tasks do not re-count Submitted — they were counted when first
// accepted; requeues that fail everywhere count Dropped.
func (g *Gateway) dropNode(name string) {
	// Heartbeat-only caller: safe to enter the barrier (requeue routes
	// ops), which also serializes failover against snapshots.
	if g.Begin() != nil {
		return
	}
	defer g.End()
	g.mu.Lock()
	p := g.peers[name]
	at := sort.SearchStrings(g.order, name)
	if p == nil || p.down.Load() || at == len(g.order) || g.order[at] != name {
		g.mu.Unlock()
		return
	}
	g.order = append(g.order[:at], g.order[at+1:]...)
	g.ring, _ = nodeRing(g.order) // cannot fail: a subset of valid names
	live := len(g.order)
	g.mu.Unlock()
	g.Absorb(p.lastDropped.Load())
	p.markDown()
	g.met.Nodes.Set(float64(live))
	g.met.NodeDrops.Inc()

	// The orphans stay live while they requeue, so a re-offer of one is
	// still refused.
	orphans := g.adm.Select(func(p placement) bool { return p.node == name })
	requeued, lost := 0, 0
	for _, o := range orphans {
		if _, err := (nodeSet{g}).Route(context.Background(), o.task); err != nil {
			g.adm.Reject(o.task.ID)
			lost++
			continue
		}
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
	if err := g.Begin(); err != nil {
		return err
	}
	defer g.End()
	if name == "" || url == "" {
		return errors.New("cluster: AddNode needs name and URL")
	}
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
	p.noteDropped(h.Dropped)
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
func (g *Gateway) FramesSent() int64 { return g.sent(func(p *peer) int64 { return p.frames.Load() }) }

// OpsSent is documented with FramesSent.
func (g *Gateway) OpsSent() int64 { return g.sent(func(p *peer) int64 { return p.ops.Load() }) }

func (g *Gateway) sent(count func(*peer) int64) (n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.peers {
		n += count(p)
	}
	return n
}
