package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// StreamBackend is the streaming-engine surface the streaming backend
// drives. Both implementations are one shard.Body, which provides every
// method here, Snapshot included: the in-process *shard.Engine runs it
// over its shards, and the multi-node *cluster.Gateway over a ring of
// hta-server nodes, each a shard.Part behind RPC — so a single binary
// flag, not a different API, decides whether the deployment is one
// process or a cluster, and both write the same snapshot document.
type StreamBackend interface {
	OfferTaskCtx(ctx context.Context, t *core.Task) (string, error)
	AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error)
	RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error)
	CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error)
	// CompleteRead is CompleteCtx plus the worker record and its display
	// set after the completion, read in the same step: one shard call on
	// the engine, one frame through the gateway.
	CompleteRead(ctx context.Context, workerID, taskID string) (shard.Completion, error)
	ActiveTasks(workerID string) ([]*core.Task, error)
	Worker(workerID string) (*core.Worker, error)
	Completed(workerID string) (int, error)
	// SetTrust/Trust carry the quality layer's reputation multiplier into
	// the assignment objective (stream.Config.WithTrust); 0 quarantines.
	SetTrust(workerID string, trust float64) ([]*core.Task, error)
	Trust(workerID string) (float64, error)
	// SetWindow/Window carry the predictive layer's availability-window
	// end (UnixNano; 0 = unknown, clears); advisory routing bias under
	// stream.Config.DeadlineAware.
	SetWindow(workerID string, until int64) error
	Window(workerID string) (int64, error)
	WorkerIDs() []string
	Stats() shard.Stats
	Objective() float64
	Snapshot(w io.Writer) error
}

var (
	_ StreamBackend = (*shard.Engine)(nil)
	_ StreamBackend = (*cluster.Gateway)(nil)
)

// AddTasksResult is the response of POST /api/tasks in sharded mode: the
// fate of the offered batch. With redundancy each uploaded task becomes
// Replicas assignment copies, so Assigned+Buffered+Dropped =
// len(tasks)·Replicas.
type AddTasksResult struct {
	Assigned int `json:"assigned"`
	Buffered int `json:"buffered"`
	Dropped  int `json:"dropped"`
	Replicas int `json:"replicas,omitempty"`
}

// streaming is the backend over a StreamBackend, plus the replication of
// each uploaded task into redundancy copies and, with the quality layer,
// its checks and endpoints (quality.go). Every request is one streaming
// event — there are no global iterations, no completion counters, and no
// mutex here: the StreamBackend serializes internally and requests
// touching different shards proceed in parallel.
type streaming struct {
	eng        StreamBackend
	quality    *quality.Tracker // nil: no quality layer
	redundancy int
}

func (b *streaming) addTasks(ctx context.Context, tasks []*core.Task) (any, error) {
	res := AddTasksResult{}
	if b.redundancy > 1 {
		res.Replicas = b.redundancy
	}
	for _, t := range tasks {
		if b.quality != nil {
			// The engine refuses only live IDs; a task the tracker holds
			// answers for is refused here.
			if b.quality.Answered(t.ID) {
				return nil, withStatus(http.StatusBadRequest, fmt.Errorf("platform: duplicate task %q: already answered", t.ID))
			}
			// Logical registration: applies the auto-gold rule before any
			// replica can be answered.
			b.quality.ObserveTask(t.ID)
		}
		for j := 0; j < b.redundancy; j++ {
			replica := t
			if b.redundancy > 1 {
				// Copies share the keyword set (read-only); the "~" replica
				// suffix is outside the generator ID alphabet, so logical
				// IDs round-trip via quality.LogicalID.
				cp := *t
				cp.ID = quality.ReplicaID(t.ID, j)
				replica = &cp
			}
			wid, err := b.eng.OfferTaskCtx(ctx, replica)
			switch {
			case err == nil && wid != "":
				res.Assigned++
			case err == nil:
				res.Buffered++
			case errors.Is(err, stream.ErrBufferFull):
				// Counted by the engine; the batch keeps going — parity with
				// a task intake that sheds load instead of failing wholesale.
				res.Dropped++
			case errors.Is(err, shard.ErrClosed):
				return nil, withStatus(http.StatusServiceUnavailable, err)
			default:
				return nil, withStatus(http.StatusBadRequest, err)
			}
		}
	}
	return res, nil
}

func (b *streaming) register(ctx context.Context, w *core.Worker) ([]TaskView, error) {
	assigned, err := b.eng.AddWorkerCtx(ctx, w)
	if err != nil {
		return nil, withStatus(shardErrStatus(err, http.StatusConflict), err)
	}
	return taskViews(assigned), nil
}

func (b *streaming) setWindow(id string, until int64) error {
	if err := b.eng.SetWindow(id, until); err != nil {
		return withStatus(shardErrStatus(err, http.StatusNotFound), err)
	}
	return nil
}

func (b *streaming) tasks(id string) ([]TaskView, error) {
	active, err := b.eng.ActiveTasks(id)
	if err != nil {
		return nil, withStatus(shardErrStatus(err, http.StatusNotFound), err)
	}
	return taskViews(active), nil
}

func (b *streaming) complete(ctx context.Context, id string, req completeRequest) (CompleteResponse, error) {
	if len(req.Answers) > 0 {
		msg := "platform: this deployment has no graded questions"
		if b.quality != nil {
			msg = "platform: submit answers via POST /api/answers"
		}
		return CompleteResponse{}, withStatus(http.StatusBadRequest, errors.New(msg))
	}
	c, err := b.eng.CompleteRead(ctx, id, req.TaskID)
	if err != nil {
		status := http.StatusConflict
		if strings.Contains(err.Error(), "unknown worker") || strings.Contains(err.Error(), "not active") {
			status = http.StatusNotFound
		}
		return CompleteResponse{}, withStatus(shardErrStatus(err, status), err)
	}
	// In streaming mode "reassigned" means the freed slot pulled a
	// buffered task, so the display set changed beyond the removal.
	if c.Worker == nil {
		// The worker left between the completion and the read-back; the
		// completion itself stands.
		return CompleteResponse{Reassigned: c.Next != nil}, nil
	}
	return CompleteResponse{
		Reassigned: c.Next != nil,
		Alpha:      c.Worker.Alpha,
		Beta:       c.Worker.Beta,
		Tasks:      taskViews(c.Active),
	}, nil
}

func (b *streaming) leave(ctx context.Context, id string) (any, error) {
	dropped, err := b.eng.RemoveWorkerCtx(ctx, id)
	if err != nil {
		return nil, withStatus(shardErrStatus(err, http.StatusNotFound), err)
	}
	return map[string]any{"left": true, "dropped": len(dropped)}, nil
}

// ShardStatsView is the wire form of GET /api/stats in sharded mode: the
// engine's conservation accounting plus the per-worker picture.
type ShardStatsView struct {
	shard.Stats
	Objective float64      `json:"objective"`
	Conserved bool         `json:"conserved"`
	WorkerSet []WorkerView `json:"worker_set"`
}

func (b *streaming) stats() any {
	view := ShardStatsView{
		Stats:     b.eng.Stats(),
		Objective: b.eng.Objective(),
	}
	view.Conserved = view.Stats.Conserved()
	for _, id := range b.eng.WorkerIDs() {
		wk, err := b.eng.Worker(id)
		if err != nil {
			continue // departed between listing and read
		}
		done, _ := b.eng.Completed(id)
		view.WorkerSet = append(view.WorkerSet, WorkerView{
			ID: id, Alpha: wk.Alpha, Beta: wk.Beta,
			Completed: done, Available: true,
		})
	}
	return view
}

func (b *streaming) snapshot(w io.Writer) error { return b.eng.Snapshot(w) }

// taskViews renders a streaming display set (always pending: completions
// leave the active set immediately).
func taskViews(ts []*core.Task) []TaskView {
	views := make([]TaskView, 0, len(ts))
	for _, t := range ts {
		views = append(views, taskView(t))
	}
	return views
}

// shardErrStatus maps engine errors onto HTTP statuses, with a fallback
// for the endpoint-specific default. Cluster routing failures (a node
// mid-failover, or no live nodes) are 503s: the condition is transient
// from the client's point of view — retry after the ring re-partitions.
func shardErrStatus(err error, fallback int) int {
	if errors.Is(err, shard.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, stream.ErrBufferFull) {
		return http.StatusInsufficientStorage
	}
	if errors.Is(err, cluster.ErrPeerDown) || errors.Is(err, cluster.ErrNoNodes) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

// ShardStats fetches the sharded deployment's statistics. Only valid
// against a server running with ServerConfig.Shards.
func (c *Client) ShardStats() (*ShardStatsView, error) {
	var out ShardStatsView
	if err := c.do(http.MethodGet, "/api/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
