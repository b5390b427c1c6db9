package adaptive

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/htacs/ata/internal/core"
)

// Snapshot/Restore persist an engine's full state as JSON so a platform
// (cmd/hta-server) can survive restarts mid-experiment without losing the
// task pool, the per-worker (α, β) estimates or the in-flight assignments.
// Configuration (Xmax, solver, distance) is not part of the snapshot — it
// belongs to the process, and Restore takes a Config as usual.

// workerSnap is a worker: its record, then the engine's state for it.
type workerSnap struct {
	core.WorkerRecord
	Available bool              `json:"available"`
	Started   bool              `json:"started"`
	Total     int               `json:"total_completed"`
	DivGains  []float64         `json:"div_gains,omitempty"`
	RelGains  []float64         `json:"rel_gains,omitempty"`
	Assigned  []core.TaskRecord `json:"assigned,omitempty"`
	Completed []string          `json:"completed,omitempty"` // IDs within Assigned
}

type engineSnap struct {
	Version   int               `json:"version"`
	Iteration int               `json:"iteration"`
	Pool      []core.TaskRecord `json:"pool"`
	Workers   []workerSnap      `json:"workers"`
}

const snapshotVersion = 1

// Snapshot writes the engine state as a single JSON document.
func (e *Engine) Snapshot(w io.Writer) error {
	snap := engineSnap{Version: snapshotVersion, Iteration: e.iteration,
		Pool: core.RecordsOf(e.pool)}
	for _, id := range e.order {
		ws := e.workers[id]
		wsnap := workerSnap{
			WorkerRecord: core.WorkerRecordOf(ws.Worker),
			Available:    ws.Available,
			Started:      ws.started,
			Total:        ws.TotalCompleted,
			DivGains:     ws.divGains,
			RelGains:     ws.relGains,
			Assigned:     core.RecordsOf(ws.Assigned),
		}
		for _, t := range ws.Completed {
			wsnap.Completed = append(wsnap.Completed, t.ID)
		}
		snap.Workers = append(snap.Workers, wsnap)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("adaptive: encoding snapshot: %w", err)
	}
	return nil
}

// Restore rebuilds an engine from a snapshot, using the given runtime
// configuration (solver, distance, Xmax, randomness).
func Restore(r io.Reader, cfg Config) (*Engine, error) {
	var snap engineSnap
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("adaptive: decoding snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("adaptive: unsupported snapshot version %d", snap.Version)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.iteration = snap.Iteration
	pool, err := core.TasksOf(snap.Pool)
	if err != nil {
		return nil, fmt.Errorf("adaptive: snapshot: %w", err)
	}
	if err := e.AddTasks(pool...); err != nil {
		return nil, err
	}
	for _, wsnap := range snap.Workers {
		worker, err := wsnap.Worker()
		if err != nil {
			return nil, fmt.Errorf("adaptive: snapshot: %w", err)
		}
		ws, err := e.AddWorker(worker)
		if err != nil {
			return nil, err
		}
		// AddWorker resets the weights to the prior; restore the estimates.
		worker.Alpha, worker.Beta = wsnap.Alpha, wsnap.Beta
		ws.Available = wsnap.Available
		ws.started = wsnap.Started
		ws.TotalCompleted = wsnap.Total
		ws.divGains = wsnap.DivGains
		ws.relGains = wsnap.RelGains
		if ws.Assigned, err = core.TasksOf(wsnap.Assigned); err != nil {
			return nil, fmt.Errorf("adaptive: snapshot: %w", err)
		}
		byID := make(map[string]*core.Task, len(ws.Assigned))
		for _, t := range ws.Assigned {
			byID[t.ID] = t
		}
		for _, id := range wsnap.Completed {
			t, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("adaptive: snapshot worker %q completed unknown task %q", wsnap.ID, id)
			}
			ws.Completed = append(ws.Completed, t)
		}
	}
	return e, nil
}
