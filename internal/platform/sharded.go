package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// Sharded-streaming handlers: the same HTTP surface as the batch handlers
// in platform.go, served from a StreamBackend. Every request is one
// streaming event — there are no global iterations, no server-side
// completion counters, and no server mutex: the backend serializes
// internally and requests touching different shards proceed in parallel.

// StreamBackend is the streaming-engine surface the sharded handlers
// drive. Two implementations exist: the in-process *shard.Engine, and the
// multi-node *cluster.Gateway, which serves the identical protocol by
// routing ops across a ring of hta-server nodes — so a single binary
// flag, not a different API, decides whether the deployment is one
// process or a cluster.
type StreamBackend interface {
	OfferTaskCtx(ctx context.Context, t *core.Task) (string, error)
	AddWorkerCtx(ctx context.Context, w *core.Worker) ([]*core.Task, error)
	RemoveWorkerCtx(ctx context.Context, id string) ([]*core.Task, error)
	CompleteCtx(ctx context.Context, workerID, taskID string) (*core.Task, error)
	// CompleteRead is CompleteCtx plus the worker record and its display
	// set after the completion, read in the same step: one actor call on
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

func (s *Server) handleShardAddTasks(w http.ResponseWriter, r *http.Request) {
	var req addTasksRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return
	}
	tasks := make([]*core.Task, 0, len(req.Tasks))
	for _, t := range req.Tasks {
		for _, k := range t.Keywords {
			if k < 0 || k >= s.cfg.Universe {
				writeErr(w, http.StatusBadRequest,
					fmt.Errorf("platform: task %q keyword %d outside universe", t.ID, k))
				return
			}
		}
		if t.DeadlineMS < 0 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("platform: task %q deadline_ms %d is negative", t.ID, t.DeadlineMS))
			return
		}
		tasks = append(tasks, &core.Task{
			ID: t.ID, Group: t.Group, Reward: t.Reward,
			Keywords: bitset.FromIndices(s.cfg.Universe, t.Keywords...),
			Deadline: t.DeadlineMS * int64(time.Millisecond),
		})
	}
	res := AddTasksResult{}
	if s.cfg.Redundancy > 1 {
		res.Replicas = s.cfg.Redundancy
	}
	for _, t := range tasks {
		if s.cfg.Quality != nil {
			// The engine refuses only live IDs; a task the tracker holds
			// answers for is refused here.
			if s.cfg.Quality.Answered(t.ID) {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: duplicate task %q: already answered", t.ID))
				return
			}
			// Logical registration: applies the auto-gold rule before any
			// replica can be answered.
			s.cfg.Quality.ObserveTask(t.ID)
		}
		for j := 0; j < s.cfg.Redundancy; j++ {
			replica := t
			if s.cfg.Redundancy > 1 {
				// Copies share the keyword set (read-only); the "~" replica
				// suffix is outside the generator ID alphabet, so logical
				// IDs round-trip via quality.LogicalID.
				cp := *t
				cp.ID = quality.ReplicaID(t.ID, j)
				replica = &cp
			}
			wid, err := s.cfg.Shards.OfferTaskCtx(r.Context(), replica)
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
				writeErr(w, http.StatusServiceUnavailable, err)
				return
			default:
				writeErr(w, http.StatusBadRequest, err)
				return
			}
		}
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleShardRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return
	}
	if len(req.Keywords) < 6 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("platform: worker must choose at least 6 keywords, got %d", len(req.Keywords)))
		return
	}
	for _, k := range req.Keywords {
		if k < 0 || k >= s.cfg.Universe {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: keyword %d outside universe", k))
			return
		}
	}
	if req.WindowMS < 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("platform: window_ms %d is negative", req.WindowMS))
		return
	}
	worker := &core.Worker{
		ID: req.ID, Alpha: 0.5, Beta: 0.5,
		Keywords: bitset.FromIndices(s.cfg.Universe, req.Keywords...),
	}
	assigned, err := s.cfg.Shards.AddWorkerCtx(r.Context(), worker)
	if err != nil {
		writeErr(w, shardErrStatus(err, http.StatusConflict), err)
		return
	}
	if req.WindowMS > 0 {
		// Advisory: the worker registered fine; if it raced its own
		// departure the declaration has nothing to bias any more.
		_ = s.cfg.Shards.SetWindow(worker.ID, req.WindowMS*int64(time.Millisecond))
	}
	views := make([]TaskView, 0, len(assigned))
	for _, t := range assigned {
		views = append(views, shardTaskView(t))
	}
	writeJSON(w, http.StatusCreated, views)
}

func (s *Server) handleShardTasks(w http.ResponseWriter, r *http.Request) {
	active, err := s.cfg.Shards.ActiveTasks(r.PathValue("id"))
	if err != nil {
		writeErr(w, shardErrStatus(err, http.StatusNotFound), err)
		return
	}
	views := make([]TaskView, 0, len(active))
	for _, t := range active {
		views = append(views, shardTaskView(t))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleShardComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req completeRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return
	}
	if len(req.Answers) > 0 {
		if s.cfg.Quality != nil {
			writeErr(w, http.StatusBadRequest, errors.New("platform: submit answers via POST /api/answers"))
		} else {
			writeErr(w, http.StatusBadRequest, errors.New("platform: this deployment has no graded questions"))
		}
		return
	}
	c, err := s.cfg.Shards.CompleteRead(r.Context(), id, req.TaskID)
	if err != nil {
		status := http.StatusConflict
		if strings.Contains(err.Error(), "unknown worker") || strings.Contains(err.Error(), "not active") {
			status = http.StatusNotFound
		}
		writeErr(w, shardErrStatus(err, status), err)
		return
	}
	// In streaming mode "reassigned" means the freed slot pulled a
	// buffered task, so the display set changed beyond the removal.
	if c.Worker == nil {
		// The worker left between the completion and the read-back; the
		// completion itself stands.
		writeJSON(w, http.StatusOK, CompleteResponse{Reassigned: c.Next != nil})
		return
	}
	views := make([]TaskView, 0, len(c.Active))
	for _, t := range c.Active {
		views = append(views, shardTaskView(t))
	}
	writeJSON(w, http.StatusOK, CompleteResponse{
		Reassigned: c.Next != nil,
		Alpha:      c.Worker.Alpha,
		Beta:       c.Worker.Beta,
		Tasks:      views,
	})
}

func (s *Server) handleShardLeave(w http.ResponseWriter, r *http.Request) {
	dropped, err := s.cfg.Shards.RemoveWorkerCtx(r.Context(), r.PathValue("id"))
	if err != nil {
		writeErr(w, shardErrStatus(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"left": true, "dropped": len(dropped)})
}

// ShardStatsView is the wire form of GET /api/stats in sharded mode: the
// engine's conservation accounting plus the per-worker picture.
type ShardStatsView struct {
	shard.Stats
	Objective float64      `json:"objective"`
	Conserved bool         `json:"conserved"`
	WorkerSet []WorkerView `json:"worker_set"`
}

func (s *Server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	view := ShardStatsView{
		Stats:     s.cfg.Shards.Stats(),
		Objective: s.cfg.Shards.Objective(),
	}
	view.Conserved = view.Stats.Conserved()
	for _, id := range s.cfg.Shards.WorkerIDs() {
		wk, err := s.cfg.Shards.Worker(id)
		if err != nil {
			continue // departed between listing and read
		}
		done, _ := s.cfg.Shards.Completed(id)
		view.WorkerSet = append(view.WorkerSet, WorkerView{
			ID: id, Alpha: wk.Alpha, Beta: wk.Beta,
			Completed: done, Available: true,
		})
	}
	writeJSON(w, http.StatusOK, view)
}

// windowRequest is the body of POST /api/workers/{id}/window: an
// availability-window declaration after registration (absolute Unix
// milliseconds; 0 clears it).
type windowRequest struct {
	WindowMS int64 `json:"window_ms"`
}

func (s *Server) handleShardWindow(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return
	}
	if req.WindowMS < 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("platform: window_ms %d is negative", req.WindowMS))
		return
	}
	id := r.PathValue("id")
	if err := s.cfg.Shards.SetWindow(id, req.WindowMS*int64(time.Millisecond)); err != nil {
		writeErr(w, shardErrStatus(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"worker": id, "window_ms": req.WindowMS})
}

// shardTaskView renders a streaming task (always pending: completions
// leave the active set immediately).
func shardTaskView(t *core.Task) TaskView {
	return TaskView{
		ID: t.ID, Group: t.Group, Reward: t.Reward,
		Keywords:   t.Keywords.Indices(),
		DeadlineMS: t.Deadline / int64(time.Millisecond),
	}
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
