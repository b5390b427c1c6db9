package bench

import (
	"errors"
	"fmt"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/platform"
	"github.com/htacs/ata/internal/stream"
)

// target is what a simulated crowd drives: the calls a worker's UI and a
// requester make. httpTarget speaks the public HTTP API; the ladder's
// inproc target makes, in process, the backend calls the platform's
// handlers make for the same request.
type target interface {
	register(w *core.Worker) ([]*core.Task, error)
	// complete finishes a task and returns the worker's next display set
	// with the α, β the platform reports for the worker.
	complete(workerID, taskID string) (set []*core.Task, alpha, beta float64, err error)
	read(workerID string) ([]*core.Task, error)
	offer(tasks []*core.Task) error
	leave(workerID string) error
}

// httpTarget drives platform.Client. Display sets come back as TaskViews;
// each task is decoded once and cached by ID until it is completed.
type httpTarget struct {
	c     *platform.Client
	tasks map[string]*core.Task
	set   []*core.Task
}

func newHTTPTarget(c *platform.Client) *httpTarget {
	return &httpTarget{c: c, tasks: make(map[string]*core.Task)}
}

func (h *httpTarget) views(vs []platform.TaskView) ([]*core.Task, error) {
	h.set = h.set[:0]
	for _, v := range vs {
		t := h.tasks[v.ID]
		if t == nil {
			for _, k := range v.Keywords {
				if k < 0 || k >= universe {
					return nil, fmt.Errorf("bench: task %q keyword %d outside the universe", v.ID, k)
				}
			}
			t = &core.Task{ID: v.ID, Group: v.Group, Reward: v.Reward, Keywords: bitset.FromIndices(universe, v.Keywords...)}
			h.tasks[v.ID] = t
		}
		h.set = append(h.set, t)
	}
	return h.set, nil
}

func (h *httpTarget) register(w *core.Worker) ([]*core.Task, error) {
	vs, err := h.c.Register(w.ID, w.Keywords.Indices())
	if err != nil {
		return nil, err
	}
	return h.views(vs)
}

func (h *httpTarget) complete(workerID, taskID string) ([]*core.Task, float64, float64, error) {
	resp, err := h.c.Complete(workerID, taskID)
	if err != nil {
		return nil, 0, 0, err
	}
	delete(h.tasks, taskID)
	set, err := h.views(resp.Tasks)
	return set, resp.Alpha, resp.Beta, err
}

func (h *httpTarget) read(workerID string) ([]*core.Task, error) {
	vs, err := h.c.Tasks(workerID)
	if err != nil {
		return nil, err
	}
	return h.views(vs)
}

func (h *httpTarget) offer(tasks []*core.Task) error { return h.c.AddTasks(tasks) }

func (h *httpTarget) leave(workerID string) error { return h.c.Leave(workerID) }

// engine is the surface shared by *stream.Assigner and *shard.Engine that
// the ladder drives.
type engine interface {
	AddWorker(w *core.Worker) ([]*core.Task, error)
	RemoveWorker(id string) ([]*core.Task, error)
	OfferTask(t *core.Task) (string, error)
	Complete(workerID, taskID string) (*core.Task, error)
	ActiveTasks(workerID string) ([]*core.Task, error)
	Worker(workerID string) (*core.Worker, error)
}

// inproc makes the backend calls the platform's streaming handlers make
// per request: registration with the platform's neutral α = β = 0.5, a
// completion followed by the Worker and ActiveTasks read-back, one
// OfferTask per uploaded task with a full buffer counted, not failed.
type inproc struct {
	e       engine
	dropped int64
}

func (p *inproc) register(w *core.Worker) ([]*core.Task, error) {
	return p.e.AddWorker(&core.Worker{ID: w.ID, Alpha: 0.5, Beta: 0.5, Keywords: w.Keywords})
}

func (p *inproc) complete(workerID, taskID string) ([]*core.Task, float64, float64, error) {
	if _, err := p.e.Complete(workerID, taskID); err != nil {
		return nil, 0, 0, err
	}
	wk, err := p.e.Worker(workerID)
	if err != nil {
		return nil, 0, 0, err
	}
	set, err := p.e.ActiveTasks(workerID)
	return set, wk.Alpha, wk.Beta, err
}

func (p *inproc) read(workerID string) ([]*core.Task, error) { return p.e.ActiveTasks(workerID) }

func (p *inproc) offer(tasks []*core.Task) error {
	for _, t := range tasks {
		if _, err := p.e.OfferTask(t); errors.Is(err, stream.ErrBufferFull) {
			p.dropped++
		} else if err != nil {
			return err
		}
	}
	return nil
}

func (p *inproc) leave(workerID string) error {
	_, err := p.e.RemoveWorker(workerID)
	return err
}
