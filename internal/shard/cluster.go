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
// Deduplication is split the same way it is between engine and assigner:
// the cluster router owns the global filter, while these methods still
// register accepted tasks locally so the node's own OfferTask path stays
// coherent. Accepted tasks count toward this engine's Submitted, so the
// per-node conservation law (submitted = active + completed + buffered +
// dropped) keeps holding when traffic arrives over RPC instead of the
// local API.

// BestGain is the head of the ranking of t over this engine's shards: the
// score of the shard TryAssign commits to first. free is false when every
// worker on every shard is full — the gain values are then meaningless.
func (e *Engine) BestGain(t *core.Task) (gain, rel float64, free bool) {
	release, err := e.begin()
	if err != nil {
		return 0, 0, false
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return 0, 0, false
	}
	scores := e.scatter(t)
	s := scores[rank(scores)[0]]
	return s.Gain, s.Rel, s.Free
}

// TryAssign is the commit walk of t over this engine's shards: it never
// buffers and returns ok=false instead of an error when no shard commits
// — the cluster router will commit to another node or buffer explicitly.
// On success the task is registered in the local duplicate filter and
// counted submitted, so node-local accounting stays conserved.
func (e *Engine) TryAssign(t *core.Task) (wid string, ok bool) {
	release, err := e.begin()
	if err != nil {
		return "", false
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return "", false
	}
	start := time.Now()
	defer func() { e.metrics.RouteLatency.Observe(time.Since(start).Seconds()) }()
	if len(e.actors) == 1 {
		// A walk over one member is one commit; scoring it first would
		// only add a mailbox round trip.
		e.actors[0].call(func(asn *stream.Assigner) { wid, ok = asn.TryAssign(t) })
	} else {
		var at int
		wid, at = commitWalk(context.Background(), shards{e}, e.scatter(t), t)
		ok = at >= 0
	}
	if ok {
		e.noteSubmitted(t.ID)
	}
	return wid, ok
}

// BufferAny parks t by the buffer walk over live backlogs without
// attempting assignment — the buffer half of a cluster routing decision
// that picked this node. Returns stream.ErrBufferFull when every local
// buffer is at its limit. Accepted tasks are registered and counted
// submitted, like TryAssign.
func (e *Engine) BufferAny(t *core.Task) error {
	release, err := e.begin()
	if err != nil {
		return err
	}
	defer release()
	if t == nil || t.Keywords == nil || t.ID == "" {
		return errors.New("shard: nil task or keywords")
	}
	if err := e.bufferLive(t); err != nil {
		return err
	}
	e.noteSubmitted(t.ID)
	return nil
}

// noteSubmitted records a task accepted through the cluster-support
// surface in the engine-wide counters and duplicate filter.
func (e *Engine) noteSubmitted(id string) {
	e.submitted.Add(1)
	e.metrics.Submitted.Inc()
	if len(e.actors) > 1 {
		e.markSeen(id)
	}
}
