package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// Cut is a snapshot document, the one form the engine and the gateway
// write and Restore reads: the totals at the top level and one PerShard
// entry per shard. Tasks and workers are core records, the form the
// workload files and cluster frames use too. A part's Cut fills Shards,
// Dropped, Expired and PerShard; Version and the other totals are the
// body's.
type Cut struct {
	Version   int   `json:"version"`
	Shards    int   `json:"shards"`
	Submitted int64 `json:"submitted"`
	// Completed is omitted when 0, as documents written before it joined
	// the top level lack it; Restore then sums the per-shard counts.
	Completed int64      `json:"completed,omitempty"`
	Dropped   int64      `json:"dropped"`
	Expired   int64      `json:"expired,omitempty"`
	PerShard  []ShardCut `json:"per_shard"`
}

// ShardCut is one shard of a Cut: its workers, its buffer and its
// counters.
type ShardCut struct {
	Shard     int               `json:"shard"`
	Completed int64             `json:"completed"`
	Dropped   int64             `json:"dropped"`
	Expired   int64             `json:"expired,omitempty"`
	Workers   []WorkerCut       `json:"workers"`
	Buffer    []core.TaskRecord `json:"buffer,omitempty"`
}

// WorkerCut is one worker of a ShardCut.
type WorkerCut struct {
	core.WorkerRecord
	Done   int               `json:"done"`
	Active []core.TaskRecord `json:"active,omitempty"`
	// Trust is the reputation multiplier; omitted (nil) when 1.0 so
	// pre-trust snapshots and trust-free engines serialize identically.
	Trust *float64 `json:"trust,omitempty"`
	// Window is the recorded availability-window end (UnixNano); omitted
	// when unknown (0), the same additive-field pattern as Trust.
	Window *int64 `json:"window,omitempty"`
}

// Snapshot writes the body's Cut as one indented JSON document.
func (b *Body[V]) Snapshot(w io.Writer) error {
	c, err := b.Cut()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Cut reads the parts with no operation in flight (Exclusive), so an
// admitted offer is placed or rejected before the cut and the
// conservation law holds in the document. The parts' entries are
// renumbered into one shard sequence in set order, and the totals are
// merged as Stats merges them: the parts' drops and expiries plus the
// body's own counters. A part that fails to cut fails the whole.
func (b *Body[V]) Cut() (c Cut, err error) {
	err = b.Exclusive(func() error {
		c.Version = 1
		for _, p := range b.set.Parts() {
			pc, err := p.Cut()
			if err != nil {
				return err
			}
			for _, s := range pc.PerShard {
				s.Shard += c.Shards
				c.PerShard = append(c.PerShard, s)
			}
			c.Shards += pc.Shards
			c.Dropped += pc.Dropped
			c.Expired += pc.Expired
		}
		var dropped int64
		c.Submitted, c.Completed, dropped = b.Counts()
		c.Dropped += dropped
		c.Expired += b.carried.expired.Load()
		return nil
	})
	return c, err
}

// Cut is the shard as one entry: every worker with its record, done
// count, active set, trust and window, then the buffer and the counters.
func (p *part) Cut() (Cut, error) {
	s := ShardCut{Completed: p.completed.Load(), Dropped: p.dropped.Load(), Expired: p.expired.Load()}
	p.call(func(asn *stream.Assigner) {
		for _, id := range asn.WorkerIDs() {
			wk, _ := asn.Worker(id)
			done, _ := asn.Completed(id)
			active, _ := asn.ActiveTasks(id)
			wc := WorkerCut{WorkerRecord: core.WorkerRecordOf(wk), Done: done, Active: core.RecordsOf(active)}
			if trust, err := asn.Trust(id); err == nil && trust != 1 {
				wc.Trust = &trust
			}
			if wnd, err := asn.Window(id); err == nil && wnd != 0 {
				wc.Window = &wnd
			}
			s.Workers = append(s.Workers, wc)
		}
		s.Buffer = core.RecordsOf(asn.BufferedInto(nil))
	})
	return Cut{Shards: 1, Dropped: s.Dropped, Expired: s.Expired, PerShard: []ShardCut{s}}, nil
}

// ReadCut decodes a snapshot document: the one reader of what Snapshot
// writes, for Restore and for the gateway's reads of its nodes' cuts.
func ReadCut(r io.Reader) (Cut, error) {
	var c Cut
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return c, fmt.Errorf("shard: decoding snapshot: %w", err)
	}
	if c.Version != 1 {
		return c, fmt.Errorf("shard: unsupported snapshot version %d", c.Version)
	}
	return c, nil
}

// Restore rebuilds an engine from a snapshot document. The shard count
// comes from cfg, not the snapshot — workers are re-partitioned by the
// ring, active sets are re-materialized on each worker exactly as saved,
// and buffered tasks are re-buffered on the owning worker-free shard with
// the smallest backlog. The counters carry over from the document's
// totals, so the global conservation invariant holds across the restart.
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	snap, err := ReadCut(r)
	if err != nil {
		return nil, err
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restore(snap); err != nil {
		e.Close()
		return nil, fmt.Errorf("shard: snapshot: %w", err)
	}
	return e, nil
}

// restore loads snap into the fresh engine e: every worker with its
// active set, then the buffers.
func (e *Engine) restore(snap Cut) error {
	completed := snap.Completed
	for _, ss := range snap.PerShard {
		if snap.Completed == 0 {
			completed += ss.Completed
		}
		for _, ws := range ss.Workers {
			w, err := ws.Worker()
			if err != nil {
				return err
			}
			active, err := core.TasksOf(ws.Active)
			if err != nil {
				return err
			}
			e.parts[e.ring.Lookup(w.ID)].call(func(asn *stream.Assigner) {
				if _, err = asn.AddWorker(w); err == nil {
					err = asn.RestoreDone(w.ID, ws.Done)
				}
				// Trust is applied before any buffer re-materialization,
				// so a restored quarantine never sees a drain.
				if err == nil && ws.Trust != nil {
					_, err = asn.SetTrust(w.ID, *ws.Trust)
				}
				if err == nil && ws.Window != nil {
					err = asn.SetWindow(w.ID, *ws.Window)
				}
				for _, t := range active {
					if err == nil {
						err = asn.ForceAssign(w.ID, t)
					}
				}
			})
			if err != nil {
				return err
			}
			for _, t := range active {
				e.adm.Register(t.ID)
			}
			if e.windows != nil {
				// The tracker starts a fresh session for the restored
				// worker; a saved window is re-declared so it keeps
				// precedence over the learned estimate.
				e.windows.Arrive(w.ID, e.now())
				if ws.Window != nil {
					e.windows.Declare(w.ID, *ws.Window)
				}
			}
		}
	}
	// Buffered tasks: the saved shard layout may not exist any more (the
	// restored engine can have a different shard count), so they go to
	// the currently least backlogged shards.
	for _, ss := range snap.PerShard {
		buffer, err := core.TasksOf(ss.Buffer)
		if err != nil {
			return err
		}
		for _, t := range buffer {
			if err := e.bufferLive(t); err != nil {
				// Smaller total buffer capacity than the snapshot had:
				// count the overflow (picked up by Stats via the
				// per-shard sum), keep the invariant.
				e.parts[0].dropped.Add(1)
				e.metrics.Dropped.Inc()
			} else {
				e.adm.Register(t.ID)
			}
		}
	}
	// Fresh parts restart their counters at zero; the body carries the
	// whole history, which the document's totals hold.
	e.carried.submitted.Store(snap.Submitted)
	e.carried.dropped.Store(snap.Dropped)
	e.carried.expired.Store(snap.Expired)
	e.completed.Store(completed)
	return nil
}
