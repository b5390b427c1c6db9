package shard

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/stream"
)

// snapshot wire format. Keywords are serialized as (universe, indices)
// pairs, the same representation the workload files use.
type taskSnap struct {
	ID       string  `json:"id"`
	Group    string  `json:"group,omitempty"`
	Reward   float64 `json:"reward,omitempty"`
	Universe int     `json:"universe"`
	Keywords []int   `json:"keywords"`
	// Deadline is the absolute UnixNano expiry (0 = never); omitted for
	// undeadlined tasks so pre-deadline snapshots serialize identically.
	Deadline int64 `json:"deadline,omitempty"`
}

type workerSnap struct {
	ID       string     `json:"id"`
	Alpha    float64    `json:"alpha"`
	Beta     float64    `json:"beta"`
	Universe int        `json:"universe"`
	Keywords []int      `json:"keywords"`
	Done     int        `json:"done"`
	Active   []taskSnap `json:"active,omitempty"`
	// Trust is the reputation multiplier; omitted (nil) when 1.0 so
	// pre-trust snapshots and trust-free engines serialize identically.
	Trust *float64 `json:"trust,omitempty"`
	// Window is the recorded availability-window end (UnixNano); omitted
	// when unknown (0), the same additive-field pattern as Trust.
	Window *int64 `json:"window,omitempty"`
}

type shardSnap struct {
	Shard     int          `json:"shard"`
	Completed int64        `json:"completed"`
	Dropped   int64        `json:"dropped"`
	Expired   int64        `json:"expired,omitempty"`
	Workers   []workerSnap `json:"workers"`
	Buffer    []taskSnap   `json:"buffer,omitempty"`
}

type engineSnap struct {
	Version   int         `json:"version"`
	Shards    int         `json:"shards"`
	Submitted int64       `json:"submitted"`
	Dropped   int64       `json:"dropped"`
	Expired   int64       `json:"expired,omitempty"`
	PerShard  []shardSnap `json:"per_shard"`
}

func taskToSnap(t *core.Task) taskSnap {
	return taskSnap{ID: t.ID, Group: t.Group, Reward: t.Reward,
		Universe: t.Keywords.Len(), Keywords: t.Keywords.Indices(),
		Deadline: t.Deadline}
}

func snapToTask(s taskSnap) (*core.Task, error) {
	if s.Universe < 1 {
		return nil, fmt.Errorf("shard: snapshot task %q: universe %d", s.ID, s.Universe)
	}
	for _, k := range s.Keywords {
		if k < 0 || k >= s.Universe {
			return nil, fmt.Errorf("shard: snapshot task %q: keyword %d outside universe %d", s.ID, k, s.Universe)
		}
	}
	return &core.Task{ID: s.ID, Group: s.Group, Reward: s.Reward,
		Keywords: bitset.FromIndices(s.Universe, s.Keywords...),
		Deadline: s.Deadline}, nil
}

// Snapshot writes the engine state as one JSON document — the merge of
// per-shard snapshots. All shard actors are parked on a barrier for the
// duration, so the cut is globally consistent: the conservation invariant
// that held in memory holds in the file.
func (e *Engine) Snapshot(w io.Writer) error {
	if err := e.begin(); err != nil {
		return err
	}
	defer e.live.RUnlock()
	snap := engineSnap{
		Version:   1,
		Shards:    len(e.actors),
		Submitted: e.adm.Submitted() + e.baseSubmitted,
	}
	// Dropped in the snapshot is the engine-wide total (offer rejections
	// + removal/steal overflow + restored history): one number that
	// Restore carries forward whole, so the conservation equation closes
	// across the restart.
	snap.Dropped = e.adm.Dropped() + e.baseDropped
	snap.Expired = e.baseExpired
	e.quiesce(func() {
		var bufScratch []*core.Task
		for _, a := range e.actors {
			snap.Dropped += a.dropped.Load()
			snap.Expired += a.expired.Load()
			ss := shardSnap{
				Shard:     a.id,
				Completed: a.completed.Load(),
				Dropped:   a.dropped.Load(),
				Expired:   a.expired.Load(),
			}
			for _, id := range a.asn.WorkerIDs() {
				wk, _ := a.asn.Worker(id)
				done, _ := a.asn.Completed(id)
				active, _ := a.asn.ActiveTasks(id)
				wsnap := workerSnap{
					ID: id, Alpha: wk.Alpha, Beta: wk.Beta,
					Universe: wk.Keywords.Len(), Keywords: wk.Keywords.Indices(),
					Done: done,
				}
				if trust, terr := a.asn.Trust(id); terr == nil && trust != 1 {
					wsnap.Trust = &trust
				}
				if wnd, werr := a.asn.Window(id); werr == nil && wnd != 0 {
					wsnap.Window = &wnd
				}
				for _, t := range active {
					wsnap.Active = append(wsnap.Active, taskToSnap(t))
				}
				ss.Workers = append(ss.Workers, wsnap)
			}
			bufScratch = a.asn.BufferedInto(bufScratch[:0])
			for _, t := range bufScratch {
				ss.Buffer = append(ss.Buffer, taskToSnap(t))
			}
			snap.PerShard = append(snap.PerShard, ss)
		}
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// quiesce parks every shard actor on a barrier, runs f with exclusive
// access to all assigners (the channel handshake gives the caller
// happens-before on each actor's state), then releases the actors.
// Serialized by snapMu: two overlapping barriers could park the pool in
// incompatible orders and deadlock.
func (e *Engine) quiesce(f func()) {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	n := len(e.actors)
	arrived := make(chan struct{}, n)
	releaseCh := make(chan struct{})
	for _, a := range e.actors {
		a.send(func() {
			arrived <- struct{}{}
			<-releaseCh
		})
	}
	for i := 0; i < n; i++ {
		<-arrived
	}
	f()
	close(releaseCh)
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
				for _, k := range wsnap.Keywords {
					if k < 0 || k >= wsnap.Universe {
						return fmt.Errorf("shard: snapshot worker %q: keyword %d outside universe %d",
							wsnap.ID, k, wsnap.Universe)
					}
				}
				w := &core.Worker{
					ID: wsnap.ID, Alpha: wsnap.Alpha, Beta: wsnap.Beta,
					Keywords: bitset.FromIndices(wsnap.Universe, wsnap.Keywords...),
				}
				a := e.actors[e.ring.Lookup(w.ID)]
				var aerr error
				a.call(func(asn *stream.Assigner) {
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
				for _, tsnap := range wsnap.Active {
					t, terr := snapToTask(tsnap)
					if terr != nil {
						return terr
					}
					e.adm.Register(t.ID)
					a.call(func(asn *stream.Assigner) { aerr = asn.ForceAssign(w.ID, t) })
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
			for _, tsnap := range ss.Buffer {
				t, terr := snapToTask(tsnap)
				if terr != nil {
					return terr
				}
				if err := e.bufferLive(t); err != nil {
					// Smaller total buffer capacity than the snapshot
					// had: count the overflow (picked up by Stats via
					// the actor sum), keep the invariant.
					e.actors[0].dropped.Add(1)
					e.metrics.Dropped.Inc()
				} else {
					e.adm.Register(t.ID)
				}
			}
		}
		// Fresh actors restart their counters at zero; the base* fields
		// carry the whole history (snap.Dropped already folded the old
		// actors' drops in).
		e.baseSubmitted = snap.Submitted
		e.baseDropped = snap.Dropped
		e.baseCompleted = completed
		e.baseExpired = snap.Expired
		return nil
	}
	if err := restore(); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}
