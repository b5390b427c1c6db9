package core

import (
	"reflect"
	"testing"

	"github.com/htacs/ata/internal/bitset"
)

func TestRecordRoundTrip(t *testing.T) {
	task := &Task{ID: "t1", Group: "g", Reward: 0.05, Keywords: bitset.FromIndices(16, 1, 4), Deadline: 7}
	back, err := RecordOf(task).Task()
	if err != nil || !reflect.DeepEqual(back, task) {
		t.Fatalf("task round trip = %+v, %v; want %+v", back, err, task)
	}
	worker := &Worker{ID: "w1", Alpha: 0.25, Beta: 0.75, Keywords: bitset.FromIndices(16, 0, 15)}
	wback, err := WorkerRecordOf(worker).Worker()
	if err != nil || !reflect.DeepEqual(wback, worker) {
		t.Fatalf("worker round trip = %+v, %v; want %+v", wback, err, worker)
	}
	if RecordsOf(nil) != nil {
		t.Error("RecordsOf(nil) is not nil")
	}
	if ts, err := TasksOf(nil); err != nil || ts == nil || len(ts) != 0 {
		t.Errorf("TasksOf(nil) = %v, %v; want an empty list", ts, err)
	}
	for _, bad := range []TaskRecord{
		{ID: "u", Universe: 0},
		{ID: "k", Universe: 8, Keywords: []int{8}},
		{ID: "n", Universe: 8, Keywords: []int{-1}},
		{ID: "d", Universe: 8, Deadline: -1},
	} {
		if _, err := bad.Task(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
		if _, err := TasksOf([]TaskRecord{{ID: "ok", Universe: 8}, bad}); err == nil {
			t.Errorf("list with %+v accepted", bad)
		}
	}
	for _, bad := range []WorkerRecord{{ID: "u", Universe: -1}, {ID: "k", Universe: 4, Keywords: []int{4}}} {
		if _, err := bad.Worker(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}
