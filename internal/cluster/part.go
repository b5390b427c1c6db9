package cluster

import (
	"context"
	"errors"
	"fmt"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// The peer as a shard.Part: each call is one op to the node, which
// applies it to its engine through the same interface (applyOp), but Cut,
// which reads the node's snapshot route. The gateway's Body makes the
// per-worker calls, set reads and cuts through it; the offer decision
// sends the score, commit and buffer ops itself (decision), to share one
// encoded task and scatter concurrently.

// rpc sends op and waits for its result, with a node-side failure mapped
// by resultErr.
func (p *peer) rpc(ctx context.Context, op Op) (OpResult, error) {
	res, err := p.doCtx(ctx, op)
	if err == nil && !res.OK {
		err = resultErr(res)
	}
	return res, err
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

func scoreOf(res OpResult) shard.Score {
	return shard.Score{Gain: res.Gain, Rel: res.Rel, Free: res.Free, Backlog: res.Backlog}
}

func (p *peer) Score(ctx context.Context, t *core.Task) (shard.Score, error) {
	rec := core.RecordOf(t)
	res, err := p.rpc(ctx, Op{Op: opScore, Task: &rec})
	return scoreOf(res), err
}

func (p *peer) Commit(ctx context.Context, t *core.Task) (string, bool) {
	rec := core.RecordOf(t)
	return p.commit(ctx, &rec)
}

func (p *peer) commit(ctx context.Context, rec *core.TaskRecord) (string, bool) {
	res, err := p.doCtx(ctx, Op{Op: opCommit, Task: rec})
	return res.WorkerID, err == nil && res.OK
}

func (p *peer) Buffer(ctx context.Context, t *core.Task) error {
	rec := core.RecordOf(t)
	_, err := p.rpc(ctx, Op{Op: opBuffer, Task: &rec})
	return err
}

// AddWorkerCtx registers the worker on the node and pins its record here.
func (p *peer) AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error) {
	rec := core.WorkerRecordOf(w)
	res, err := p.rpc(ctx, Op{Op: opAddWorker, Worker: &rec})
	if err == nil {
		p.pinMu.Lock()
		p.pins[w.ID] = w
		p.pinMu.Unlock()
	}
	return tasksOf(res, err)
}

// RemoveWorkerCtx deregisters the worker from the node and unpins it.
// Tasks the node could not rebuffer come back dropped; the node counted
// them in its own drop counter.
func (p *peer) RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error) {
	res, err := p.rpc(ctx, Op{Op: opRemoveWorker, WorkerID: id})
	if err == nil {
		p.pinMu.Lock()
		delete(p.pins, id)
		p.pinGen++
		p.pinMu.Unlock()
	}
	return tasksOf(res, err)
}

// Finish is one complete op: the node returns the pulled task and the
// worker's display set in its result. A node that predates the display
// marker returns no set; the peer then reads it with an active_tasks op,
// a second frame. The worker record comes from the pin (see Worker).
func (p *peer) Finish(ctx context.Context, workerID, taskID string, read bool) (shard.Completion, error) {
	var c shard.Completion
	res, err := p.rpc(ctx, Op{Op: opComplete, WorkerID: workerID, TaskID: taskID})
	if err != nil {
		return c, err
	}
	if res.Next != nil {
		if c.Next, err = res.Next.Task(); err != nil {
			return c, err
		}
	}
	if !read {
		return c, nil
	}
	if res.Display {
		c.Active, err = core.TasksOf(res.Tasks)
	} else {
		c.Active, err = p.ActiveTasks(workerID)
	}
	if err == nil {
		c.Worker, err = p.Worker(workerID)
	}
	if err != nil {
		// The completion stands; only the read-back failed.
		return shard.Completion{Next: c.Next}, nil
	}
	return c, nil
}

func (p *peer) ActiveTasks(workerID string) ([]*core.Task, error) {
	return tasksOf(p.ask(Op{Op: opActiveTasks, WorkerID: workerID}))
}

// ask is rpc for the calls that carry no trace context.
func (p *peer) ask(op Op) (OpResult, error) { return p.rpc(context.Background(), op) }

// tasksOf reads the tasks of an op's result.
func tasksOf(res OpResult, err error) ([]*core.Task, error) {
	if err != nil {
		return nil, err
	}
	return core.TasksOf(res.Tasks)
}

// Worker returns the record the worker registered with, kept by its pin
// with no RPC: a worker's record does not change after registration. A
// worker registered before this gateway started costs one worker op, and
// the answer pins it, unless the worker left while the op was on the way.
func (p *peer) Worker(workerID string) (*core.Worker, error) {
	p.pinMu.RLock()
	w, gen := p.pins[workerID], p.pinGen
	p.pinMu.RUnlock()
	if w != nil {
		return w, nil
	}
	res, err := p.ask(Op{Op: opWorker, WorkerID: workerID})
	if err == nil && res.Worker == nil {
		err = resultErr(res)
	}
	if err == nil {
		w, err = res.Worker.Worker()
	}
	if err != nil {
		return nil, err
	}
	p.pinMu.Lock()
	if _, pinned := p.pins[workerID]; !pinned && p.pinGen == gen {
		p.pins[workerID] = w
	}
	p.pinMu.Unlock()
	return w, nil
}

// pinned reports whether the worker is pinned to this node.
func (p *peer) pinned(workerID string) bool {
	p.pinMu.RLock()
	defer p.pinMu.RUnlock()
	return p.pins[workerID] != nil
}

func (p *peer) Completed(workerID string) (int, error) {
	res, err := p.ask(Op{Op: opCompleted, WorkerID: workerID})
	return res.Count, err
}

func (p *peer) Trust(workerID string) (float64, error) {
	res, err := p.ask(Op{Op: opTrust, WorkerID: workerID})
	return res.Value, err
}

func (p *peer) SetTrust(workerID string, trust float64) ([]*core.Task, error) {
	return tasksOf(p.ask(Op{Op: opSetTrust, WorkerID: workerID, Trust: &trust}))
}

func (p *peer) Window(workerID string) (int64, error) {
	res, err := p.ask(Op{Op: opWindow, WorkerID: workerID})
	return res.Until, err
}

func (p *peer) SetWindow(workerID string, until int64) error {
	_, err := p.ask(Op{Op: opSetWindow, WorkerID: workerID, Window: &until})
	return err
}

// WorkerIDs, Objective and Stats answer empty when the node fails, so a
// set read leaves it out.
func (p *peer) WorkerIDs() []string {
	res, _ := p.ask(Op{Op: opWorkers})
	return res.IDs
}

func (p *peer) Objective() float64 {
	res, _ := p.ask(Op{Op: opObjective})
	return res.Value
}

// Stats also records the node's drop count, which dropNode absorbs into
// the global count if the node dies.
func (p *peer) Stats() shard.Stats {
	res, err := p.ask(Op{Op: opStats})
	if err != nil || res.Stats == nil {
		return shard.Stats{}
	}
	p.noteDropped(res.Stats.Dropped)
	return *res.Stats
}

// Cut is the node's snapshot document (GET /cluster/snapshot), read by
// the reader Restore uses.
func (p *peer) Cut() (shard.Cut, error) {
	c, err := fetch(context.Background(), p, "/cluster/snapshot", shard.ReadCut)
	if err != nil {
		return c, fmt.Errorf("cluster: snapshot of %s: %w", p.name, err)
	}
	return c, nil
}

// noteDropped records the freshest view of the node's internal drop
// counter.
func (p *peer) noteDropped(n int64) {
	for {
		cur := p.lastDropped.Load()
		if n <= cur || p.lastDropped.CompareAndSwap(cur, n) {
			return
		}
	}
}
