package core

import (
	"fmt"

	"github.com/htacs/ata/internal/bitset"
)

// TaskRecord is the stored form of a task: its keyword vector as the
// universe size and the set indices. Shard and batch snapshots, cluster
// frames and workload files all write a task as this record, in this
// field order, and read it back through Task, the one validation.
type TaskRecord struct {
	ID       string  `json:"id"`
	Group    string  `json:"group,omitempty"`
	Reward   float64 `json:"reward,omitempty"`
	Universe int     `json:"universe"`
	Keywords []int   `json:"keywords"`
	// Deadline is the absolute UnixNano expiry (0 = never); omitted for
	// undeadlined tasks so pre-deadline documents read unchanged.
	Deadline int64 `json:"deadline,omitempty"`
}

// WorkerRecord is the stored form of a worker, read back through
// Worker.
type WorkerRecord struct {
	ID       string  `json:"id"`
	Alpha    float64 `json:"alpha"`
	Beta     float64 `json:"beta"`
	Universe int     `json:"universe"`
	Keywords []int   `json:"keywords"`
}

// RecordOf is t's stored form.
func RecordOf(t *Task) TaskRecord {
	return TaskRecord{ID: t.ID, Group: t.Group, Reward: t.Reward,
		Universe: t.Keywords.Len(), Keywords: t.Keywords.Indices(),
		Deadline: t.Deadline}
}

// RecordsOf is the stored form of a task list, nil when ts is empty.
func RecordsOf(ts []*Task) []TaskRecord {
	if len(ts) == 0 {
		return nil
	}
	out := make([]TaskRecord, len(ts))
	for i, t := range ts {
		out[i] = RecordOf(t)
	}
	return out
}

// Task validates the record and builds its task. It rejects a universe
// below 1, a keyword outside [0, universe) and a negative deadline.
func (r TaskRecord) Task() (*Task, error) {
	if err := checkKeywords("task", r.ID, r.Universe, r.Keywords); err != nil {
		return nil, err
	}
	if r.Deadline < 0 {
		return nil, fmt.Errorf("core: task %q: deadline %d", r.ID, r.Deadline)
	}
	return &Task{ID: r.ID, Group: r.Group, Reward: r.Reward,
		Keywords: bitset.FromIndices(r.Universe, r.Keywords...),
		Deadline: r.Deadline}, nil
}

// TasksOf reads a list of task records, failing on the first invalid
// one. An empty list reads as an empty, non-nil slice.
func TasksOf(rs []TaskRecord) ([]*Task, error) {
	out := make([]*Task, 0, len(rs))
	for _, r := range rs {
		t, err := r.Task()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// WorkerRecordOf is w's stored form.
func WorkerRecordOf(w *Worker) WorkerRecord {
	return WorkerRecord{ID: w.ID, Alpha: w.Alpha, Beta: w.Beta,
		Universe: w.Keywords.Len(), Keywords: w.Keywords.Indices()}
}

// Worker validates the record and builds its worker. It rejects a
// universe below 1 and a keyword outside [0, universe).
func (r WorkerRecord) Worker() (*Worker, error) {
	if err := checkKeywords("worker", r.ID, r.Universe, r.Keywords); err != nil {
		return nil, err
	}
	return &Worker{ID: r.ID, Alpha: r.Alpha, Beta: r.Beta,
		Keywords: bitset.FromIndices(r.Universe, r.Keywords...)}, nil
}

func checkKeywords(kind, id string, universe int, keywords []int) error {
	if universe < 1 {
		return fmt.Errorf("core: %s %q: universe %d", kind, id, universe)
	}
	for _, k := range keywords {
		if k < 0 || k >= universe {
			return fmt.Errorf("core: %s %q: keyword %d outside universe %d", kind, id, k, universe)
		}
	}
	return nil
}
