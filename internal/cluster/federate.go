package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/trace"
)

// Federation: the gateway-side pull half of cluster-wide observability.
// Each node already serves its local telemetry on its public mux
// (/metrics?format=snapshot, /debug/trace?format=wire, /api/events);
// the gateway fans out over the live members, merges, and re-serves the
// cluster view. These methods satisfy platform.ClusterObserver, which is
// how the platform layer mounts them without importing this package.

// fetch GETs base+path from p's node and reads the body with read. The
// readers may stop short of EOF, so the body is drained before it is
// closed. A sampled context propagates its trace identity in headers, so
// the node's handling of a heartbeat joins the heartbeat's trace.
func fetch[T any](ctx context.Context, p *peer, path string, read func(io.Reader) (T, error)) (out T, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	if err != nil {
		return out, err
	}
	if sc, ok := trace.SpanContextFromContext(ctx); ok {
		req.Header.Set("X-Trace-Id", sc.TraceID.String())
		req.Header.Set("X-Span-Id", sc.SpanID.String())
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: %s%s: HTTP %d", p.name, path, resp.StatusCode)
	}
	return read(resp.Body)
}

// ClusterTraces stitches the gateway's retention ring with every live
// node's ring: fragments are labeled with their origin (attr "node"),
// merged by trace ID, and returned as whole distributed traces — the
// gateway RPC spans and the node-side apply spans of one request under
// one trace ID. Nodes that fail to answer are skipped; the stitched
// view degrades to the fragments that arrived.
func (g *Gateway) ClusterTraces(ctx context.Context, n int) []trace.WireTrace {
	local := g.tracer.WireSnapshot(n)
	trace.AnnotateWire(local, "node", "gateway")
	groups := [][]trace.WireTrace{local}
	for _, p := range g.livePeers() {
		wt, err := fetch(ctx, p, "/debug/trace?format=wire&n="+strconv.Itoa(n), trace.ReadWire)
		if err != nil {
			continue
		}
		trace.AnnotateWire(wt, "node", p.name)
		groups = append(groups, wt)
	}
	return trace.MergeWire(groups...)
}

// ClusterEvents merges the gateway's journal with every live node's into
// one timeline. A dead node's events are unreachable, but the incidents
// that matter about it (the failover, the re-partition) live in the
// gateway's own journal.
func (g *Gateway) ClusterEvents(ctx context.Context) []ops.Event {
	lists := [][]ops.Event{g.journal.Snapshot(0)}
	for _, p := range g.livePeers() {
		// local=1 keeps a gateway fronting gateways (not supported
		// today, but harmless) from recursing.
		evs, err := fetch(ctx, p, "/api/events?local=1", ops.ReadEvents)
		if err != nil {
			continue
		}
		lists = append(lists, evs)
	}
	return ops.Merge(lists...)
}

// FederatedSnapshot returns the merged cluster metrics snapshot: every
// live node's registry plus the gateway's own (as node "gateway"),
// counters summed into rollups, gauges and histograms labeled per node
// (histograms also merged bucket-wise into rollups). Reads within
// FederationInterval of each other share one cached fan-out; concurrent
// reads coalesce behind the same scrape.
func (g *Gateway) FederatedSnapshot(ctx context.Context) obs.Snapshot {
	g.fedMu.Lock()
	defer g.fedMu.Unlock()
	if g.fedOK && g.cfg.FederationInterval > 0 && time.Since(g.fedAt) < g.cfg.FederationInterval {
		return g.fedSnap
	}
	per := map[string]obs.Snapshot{"gateway": g.reg.Snapshot()}
	for _, p := range g.livePeers() {
		snap, err := fetch(ctx, p, "/metrics?format=snapshot", obs.ReadSnapshot)
		if err != nil {
			continue
		}
		per[p.name] = snap
	}
	g.fedSnap, g.fedAt, g.fedOK = obs.MergeSnapshots(per), time.Now(), true
	return g.fedSnap
}
