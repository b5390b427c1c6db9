package shard

import (
	"context"
	"errors"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// Cluster-support surface: the engine as one member of the cluster
// gateway's routing decision (Route over nodes), made of the same parts
// OfferTask's decision over this engine's shards is made of:
//
//   - BestGain is the node's Score: the head of its shards' ranking;
//   - TryAssign is the node's commit: the commit walk over its shards;
//   - BufferAny is the node's buffer: the buffer walk over its shards.
//
// The gateway's Admission admits the task and holds its ID; these
// methods only count it in this engine's Admission (Accept), so the
// per-node conservation law (submitted = active + completed + buffered +
// dropped + expired) keeps holding when traffic arrives over RPC instead
// of the local API.

// BestGain is the head of the ranking of t over this engine's shards: the
// score of the shard TryAssign commits to first. free is false when every
// worker on every shard is full — the gain values are then meaningless.
// The head is never pending: settle fills the pending scores unless a
// computed one ranks before them.
func (e *Engine) BestGain(t *core.Task) (gain, rel float64, free bool) {
	if err := e.begin(); err != nil {
		return 0, 0, false
	}
	defer e.live.RUnlock()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return 0, 0, false
	}
	ctx, m := context.Background(), shards{e}
	scores := m.Scatter(ctx, t)
	s := scores[settle(ctx, m, t, scores)[0]]
	return s.Gain, s.Rel, s.Free
}

// TryAssign is the commit walk of t over this engine's shards: it never
// buffers and returns ok=false instead of an error when no shard commits
// — the cluster router will commit to another node or buffer explicitly.
// On success the task is counted in the engine's Admission.
func (e *Engine) TryAssign(t *core.Task) (wid string, ok bool) {
	if err := e.begin(); err != nil {
		return "", false
	}
	defer e.live.RUnlock()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", false
	}
	start := time.Now()
	defer func() { e.metrics.RouteLatency.Observe(time.Since(start).Seconds()) }()
	if len(e.parts) == 1 {
		// A walk over one member is one commit; scoring it first would
		// only add a second shard call.
		e.parts[0].call(func(asn *stream.Assigner) { wid, ok = asn.TryAssign(t) })
	} else {
		ctx, m := context.Background(), shards{e}
		var at int
		wid, at = commitWalk(ctx, m, m.Scatter(ctx, t), t)
		ok = at >= 0
	}
	if ok {
		e.adm.Accept()
	}
	return wid, ok
}

// BufferAny parks t by the buffer walk over live backlogs without
// attempting assignment — the buffer half of a cluster routing decision
// that picked this node. Returns stream.ErrBufferFull when every local
// buffer is at its limit. Accepted tasks are counted in the engine's
// Admission, like TryAssign.
func (e *Engine) BufferAny(t *core.Task) error {
	if err := e.begin(); err != nil {
		return err
	}
	defer e.live.RUnlock()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("shard: nil task or keywords")
	}
	if err := e.bufferLive(t); err != nil {
		return err
	}
	e.adm.Accept()
	return nil
}
