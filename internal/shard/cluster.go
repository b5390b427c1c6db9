package shard

import (
	"context"
	"errors"
	"time"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// The engine as a Part, one node of the cluster gateway's decision: its
// Score, Commit and Buffer are the head of its shards' ranking, the
// commit walk and the buffer walk over them. The gateway's Admission
// holds the task's ID; Commit and Buffer only count it here (Accept), so
// the node's own conservation law keeps holding for traffic that arrives
// over RPC. The walks run under a background context, so their events
// and rescores join no caller's trace.

var errNilTask = errors.New("shard: nil task or keywords")

func validTask(t *core.Task) bool { return t != nil && t.Keywords != nil && t.ID != "" }

// Score is the head of the ranking of t over this engine's shards, the
// shard Commit commits to first, with the engine's whole backlog. Free is
// false when every worker on every shard is full; the gain values are
// then meaningless. The head is never pending: settle fills the pending
// scores unless a computed one ranks before them.
func (e *Engine) Score(_ context.Context, t *core.Task) (Score, error) {
	if err := e.Begin(); err != nil {
		return Score{}, err
	}
	defer e.End()
	if !validTask(t) {
		return Score{}, errNilTask
	}
	ctx, m := context.Background(), shards{e}
	scores := m.Scatter(ctx, t)
	s := scores[settle(ctx, m, t, scores)[0]]
	s.Backlog = e.BufferLen()
	return s, nil
}

// Commit is the commit walk of t over this engine's shards: it never
// buffers and returns ok=false when no shard commits — the cluster router
// then commits to another node or buffers explicitly. On success the task
// is counted in the engine's Admission.
func (e *Engine) Commit(_ context.Context, t *core.Task) (wid string, ok bool) {
	if e.Begin() != nil {
		return "", false
	}
	defer e.End()
	if !validTask(t) {
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

// Buffer parks t by the buffer walk over live backlogs without attempting
// assignment — the buffer half of a cluster routing decision that picked
// this node. Returns stream.ErrBufferFull when every local buffer is at
// its limit. An accepted task is counted in the engine's Admission, like
// Commit.
func (e *Engine) Buffer(_ context.Context, t *core.Task) error {
	if err := e.Begin(); err != nil {
		return err
	}
	defer e.End()
	if !validTask(t) {
		return errNilTask
	}
	if err := e.bufferLive(t); err != nil {
		return err
	}
	e.adm.Accept()
	return nil
}
