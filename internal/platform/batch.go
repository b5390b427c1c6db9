package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/question"
)

// batch is the backend over the adaptive engine. Every verb serializes on
// one mutex: the engine is not concurrency-safe and assignment iterations
// must be atomic with respect to worker arrivals.
//
// Iterations are global (the paper solves HTA over all available workers at
// once), so a completion by one worker can refresh every worker's display
// set. A client holding a stale set will get HTTP 404 when completing a
// task that is no longer assigned; it should refetch via Tasks and
// continue — exactly what a browser-based worker UI does when the platform
// pushes a new page of tasks.
type batch struct {
	mu             sync.Mutex
	eng            *adaptive.Engine
	questions      *question.Bank // nil: no graded questions
	perWorkerLimit int            // ServerConfig.ReassignPerWorker
	totalLimit     int            // ServerConfig.ReassignTotal

	sinceIteration int            // completions since the last iteration
	perWorker      map[string]int // completions per worker since their last assignment
	graded         int            // questions graded so far
	correct        int            // of which answered correctly
}

func (b *batch) addTasks(_ context.Context, tasks []*core.Task) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.eng.AddTasks(tasks...); err != nil {
		return nil, withStatus(http.StatusBadRequest, err)
	}
	return map[string]int{"pool_size": b.eng.PoolSize()}, nil
}

func (b *batch) register(ctx context.Context, w *core.Worker) ([]TaskView, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws, err := b.eng.AddWorker(w)
	if err != nil {
		return nil, withStatus(http.StatusConflict, err)
	}
	// A new worker notifies the assignment service, which assigns a fresh
	// T_w immediately (Figure 4).
	if _, err := b.eng.NextIterationCtx(ctx); err != nil {
		return nil, withStatus(http.StatusInternalServerError, err)
	}
	b.resetCounters()
	return b.views(ws), nil
}

func (b *batch) tasks(id string) ([]TaskView, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws, err := b.eng.Worker(id)
	if err != nil {
		return nil, withStatus(http.StatusNotFound, err)
	}
	return b.views(ws), nil
}

func (b *batch) complete(ctx context.Context, id string, req completeRequest) (CompleteResponse, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws, err := b.eng.Worker(id)
	if err != nil {
		return CompleteResponse{}, withStatus(http.StatusNotFound, err)
	}
	graded, correct, err := b.grade(req)
	if err != nil {
		return CompleteResponse{}, withStatus(http.StatusBadRequest, err)
	}
	if err := b.eng.CompleteCtx(ctx, id, req.TaskID); err != nil {
		status := http.StatusConflict
		if strings.Contains(err.Error(), "not assigned") {
			status = http.StatusNotFound
		}
		return CompleteResponse{}, withStatus(status, err)
	}
	b.graded += graded
	b.correct += correct
	b.sinceIteration++
	b.perWorker[id]++

	// Assignment-service policy: reassign when some worker exhausted its
	// budget or the system accumulated enough completions overall.
	reassign := b.perWorker[id] >= b.perWorkerLimit ||
		b.sinceIteration >= b.totalLimit ||
		len(ws.Completed) == len(ws.Assigned)
	if reassign {
		if _, err := b.eng.NextIterationCtx(ctx); err != nil {
			return CompleteResponse{}, withStatus(http.StatusInternalServerError, err)
		}
		b.resetCounters()
	}
	return CompleteResponse{
		Reassigned: reassign,
		Alpha:      ws.Alpha(),
		Beta:       ws.Beta(),
		Graded:     graded,
		Correct:    correct,
		Tasks:      b.views(ws),
	}, nil
}

// grade checks submitted answers against the ground truth, if the
// platform carries a question bank. Answers must belong to the completed
// task.
func (b *batch) grade(req completeRequest) (graded, correct int, err error) {
	if len(req.Answers) == 0 {
		return 0, 0, nil
	}
	if b.questions == nil {
		return 0, 0, errors.New("platform: this deployment has no graded questions")
	}
	valid := make(map[string]bool)
	for _, q := range b.questions.ForTask(req.TaskID) {
		valid[q.ID] = true
	}
	for _, ans := range req.Answers {
		if !valid[ans.QuestionID] {
			return 0, 0, fmt.Errorf("platform: question %q does not belong to task %q", ans.QuestionID, req.TaskID)
		}
	}
	for _, ans := range req.Answers {
		ok, err := b.questions.Grade(ans.QuestionID, ans.Option)
		if err != nil {
			return 0, 0, err
		}
		graded++
		if ok {
			correct++
		}
	}
	return graded, correct, nil
}

func (b *batch) leave(_ context.Context, id string) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.eng.SetAvailable(id, false); err != nil {
		return nil, withStatus(http.StatusNotFound, err)
	}
	return map[string]bool{"left": true}, nil
}

func (b *batch) stats() any {
	b.mu.Lock()
	defer b.mu.Unlock()
	stats := StatsView{
		Iteration: b.eng.Iteration(),
		PoolSize:  b.eng.PoolSize(),
		Graded:    b.graded,
		Correct:   b.correct,
	}
	if b.graded > 0 {
		stats.QualityPercent = 100 * float64(b.correct) / float64(b.graded)
	}
	for _, ws := range b.eng.Workers() {
		stats.Workers = append(stats.Workers, WorkerView{
			ID:        ws.Worker.ID,
			Alpha:     ws.Alpha(),
			Beta:      ws.Beta(),
			Completed: ws.TotalCompleted,
			Available: ws.Available,
		})
	}
	return stats
}

func (b *batch) snapshot(w io.Writer) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.eng.Snapshot(w)
}

func (b *batch) resetCounters() {
	b.sinceIteration = 0
	for k := range b.perWorker {
		b.perWorker[k] = 0
	}
}

// views renders a worker's current display set, with done flags and the
// bank's questions. Caller holds mu.
func (b *batch) views(ws *adaptive.WorkerState) []TaskView {
	done := make(map[string]bool, len(ws.Completed))
	for _, t := range ws.Completed {
		done[t.ID] = true
	}
	out := make([]TaskView, 0, len(ws.Assigned))
	for _, t := range ws.Assigned {
		view := taskView(t)
		view.Done = done[t.ID]
		if b.questions != nil {
			for _, q := range b.questions.ForTask(t.ID) {
				view.Questions = append(view.Questions, QuestionView{
					ID: q.ID, Prompt: q.Prompt, Options: q.Options,
				})
			}
		}
		out = append(out, view)
	}
	return out
}
