package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// snapshot wire format. Tasks and workers are core records, the form
// the workload files and cluster frames use too.
type workerSnap struct {
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

type shardSnap struct {
	Shard     int               `json:"shard"`
	Completed int64             `json:"completed"`
	Dropped   int64             `json:"dropped"`
	Expired   int64             `json:"expired,omitempty"`
	Workers   []workerSnap      `json:"workers"`
	Buffer    []core.TaskRecord `json:"buffer,omitempty"`
}

type engineSnap struct {
	Version   int         `json:"version"`
	Shards    int         `json:"shards"`
	Submitted int64       `json:"submitted"`
	Dropped   int64       `json:"dropped"`
	Expired   int64       `json:"expired,omitempty"`
	PerShard  []shardSnap `json:"per_shard"`
}

// Snapshot writes the engine state as one JSON document — the merge of
// per-shard snapshots. It reads with no operation in flight (Exclusive),
// so an admitted offer is placed or rejected before the cut, and the
// conservation invariant holds in the file.
func (e *Engine) Snapshot(w io.Writer) error {
	var snap engineSnap
	if err := e.Exclusive(func() error { snap = e.snapshot(); return nil }); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// snapshot reads the engine state. The caller holds the barrier for
// writing, so it reads every assigner without its shard lock.
func (e *Engine) snapshot() engineSnap {
	// Dropped in the snapshot is the engine-wide total (offer rejections
	// + removal/steal overflow + restored history): one number that
	// Restore carries forward whole, so the conservation equation closes
	// across the restart.
	submitted, _, dropped := e.Counts()
	snap := engineSnap{
		Version:   1,
		Shards:    len(e.parts),
		Submitted: submitted,
		Dropped:   dropped,
		Expired:   e.carried.expired.Load(),
	}
	var buffered []*core.Task
	for _, p := range e.parts {
		snap.Dropped += p.dropped.Load()
		snap.Expired += p.expired.Load()
		ss := shardSnap{
			Shard:     p.id,
			Completed: p.completed.Load(),
			Dropped:   p.dropped.Load(),
			Expired:   p.expired.Load(),
		}
		for _, id := range p.asn.WorkerIDs() {
			wk, _ := p.asn.Worker(id)
			done, _ := p.asn.Completed(id)
			active, _ := p.asn.ActiveTasks(id)
			ws := workerSnap{WorkerRecord: core.WorkerRecordOf(wk), Done: done,
				Active: core.RecordsOf(active)}
			if trust, terr := p.asn.Trust(id); terr == nil && trust != 1 {
				ws.Trust = &trust
			}
			if wnd, werr := p.asn.Window(id); werr == nil && wnd != 0 {
				ws.Window = &wnd
			}
			ss.Workers = append(ss.Workers, ws)
		}
		buffered = p.asn.BufferedInto(buffered[:0])
		ss.Buffer = core.RecordsOf(buffered)
		snap.PerShard = append(snap.PerShard, ss)
	}
	return snap
}

// Restore rebuilds an engine from a Snapshot document. The shard count
// comes from cfg, not the snapshot — workers are re-partitioned by the
// ring, active sets are re-materialized on each worker exactly as saved,
// and buffered tasks are re-buffered on the owning worker-free shard with
// the smallest backlog. Counters carry over, so the global conservation
// invariant holds across the restart.
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	var snap engineSnap
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("shard: decoding snapshot: %w", err)
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported snapshot version %d", snap.Version)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	restore := func() error {
		var completed int64
		for _, ss := range snap.PerShard {
			completed += ss.Completed
			for _, wsnap := range ss.Workers {
				w, err := wsnap.Worker()
				if err != nil {
					return fmt.Errorf("shard: snapshot: %w", err)
				}
				p := e.parts[e.ring.Lookup(w.ID)]
				var aerr error
				p.call(func(asn *stream.Assigner) {
					if _, aerr = asn.AddWorker(w); aerr != nil {
						return
					}
					if aerr = asn.RestoreDone(w.ID, wsnap.Done); aerr != nil {
						return
					}
					if wsnap.Trust != nil {
						// Applied before any buffer re-materialization, so a
						// restored quarantine never sees a drain.
						if _, aerr = asn.SetTrust(w.ID, *wsnap.Trust); aerr != nil {
							return
						}
					}
					if wsnap.Window != nil {
						aerr = asn.SetWindow(w.ID, *wsnap.Window)
					}
				})
				if aerr != nil {
					return aerr
				}
				if e.windows != nil {
					// The tracker starts a fresh session for the restored
					// worker; a saved window is re-declared so it keeps
					// precedence over the learned estimate.
					e.windows.Arrive(w.ID, e.now())
					if wsnap.Window != nil {
						e.windows.Declare(w.ID, *wsnap.Window)
					}
				}
				for _, rec := range wsnap.Active {
					t, terr := rec.Task()
					if terr != nil {
						return fmt.Errorf("shard: snapshot: %w", terr)
					}
					e.adm.Register(t.ID)
					p.call(func(asn *stream.Assigner) { aerr = asn.ForceAssign(w.ID, t) })
					if aerr != nil {
						return aerr
					}
				}
			}
		}
		// Buffered tasks: the saved shard layout may not exist any more
		// (the restored engine can have a different shard count), so they
		// go to the currently least backlogged shards.
		for _, ss := range snap.PerShard {
			for _, rec := range ss.Buffer {
				t, terr := rec.Task()
				if terr != nil {
					return fmt.Errorf("shard: snapshot: %w", terr)
				}
				if err := e.bufferLive(t); err != nil {
					// Smaller total buffer capacity than the snapshot
					// had: count the overflow (picked up by Stats via
					// the per-shard sum), keep the invariant.
					e.parts[0].dropped.Add(1)
					e.metrics.Dropped.Inc()
				} else {
					e.adm.Register(t.ID)
				}
			}
		}
		// Fresh parts restart their counters at zero; the body carries
		// the whole history (snap.Dropped already folded the old parts'
		// drops in).
		e.carried.submitted.Store(snap.Submitted)
		e.carried.dropped.Store(snap.Dropped)
		e.carried.expired.Store(snap.Expired)
		e.completed.Store(completed)
		return nil
	}
	if err := restore(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
