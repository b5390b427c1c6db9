package ata

// The stored form of a task and a worker (core.TaskRecord and
// core.WorkerRecord) is read in four places: shard snapshots, batch
// snapshots, cluster frames and workload files. Each must refuse what the
// record's one validation refuses.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/cluster"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/workload"
)

// withFields appends JSON members to the object rec.
func withFields(rec, fields string) string {
	return strings.TrimSuffix(rec, "}") + "," + fields + "}"
}

func shardConfig() shard.Config {
	return shard.Config{Shards: 1, StealInterval: -1, Registry: obs.NewRegistry(),
		Journal: ops.NewJournal(16), Tracer: trace.NewRecorder(1, 0),
		Stream: stream.Config{Xmax: 2}}
}

func readShardSnapshot(worker bool, rec string) error {
	doc := `{"version":1,"shards":1,"submitted":1,"dropped":0,"per_shard":[{"shard":0,"completed":0,"dropped":0,"workers":[],"buffer":[` + rec + `]}]}`
	if worker {
		doc = `{"version":1,"shards":1,"submitted":0,"dropped":0,"per_shard":[{"shard":0,"completed":0,"dropped":0,"workers":[` +
			withFields(rec, `"done":0`) + `]}]}`
	}
	e, err := shard.Restore(strings.NewReader(doc), shardConfig())
	if err == nil {
		e.Close()
	}
	return err
}

func readBatchSnapshot(worker bool, rec string) error {
	doc := `{"version":1,"iteration":0,"pool":[` + rec + `],"workers":null}`
	if worker {
		doc = `{"version":1,"iteration":0,"pool":null,"workers":[` +
			withFields(rec, `"available":true,"started":false,"total_completed":0`) + `]}`
	}
	_, err := adaptive.Restore(strings.NewReader(doc), adaptive.Config{Xmax: 2})
	return err
}

func readFrame(worker bool, rec string) error {
	eng, err := shard.New(shardConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	node, err := cluster.NewNode(cluster.NodeConfig{Name: "n1", Engine: eng,
		Registry: obs.NewRegistry(), Journal: ops.NewJournal(16), Tracer: trace.NewRecorder(1, 0)})
	if err != nil {
		return err
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	frame := `{"id":"f1","ops":[{"op":"score","task":` + rec + `}]}`
	if worker {
		frame = `{"id":"f1","ops":[{"op":"add_worker","worker":` + rec + `}]}`
	}
	resp, err := http.Post(srv.URL+"/cluster/batch", "application/json", strings.NewReader(frame))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var res cluster.FrameResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return err
	}
	if len(res.Results) != 1 {
		return errors.New("frame answered without one result")
	}
	if !res.Results[0].OK {
		return errors.New(res.Results[0].Err)
	}
	return nil
}

func readWorkloadLine(worker bool, rec string) error {
	var err error
	if worker {
		_, err = workload.ReadWorkers(strings.NewReader(rec + "\n"))
	} else {
		_, err = workload.ReadTasks(strings.NewReader(rec + "\n"))
	}
	return err
}

// TestStoredFormsRejectInvalidRecords feeds every reader the same invalid
// records: a universe below 1, a keyword outside the universe and a
// negative deadline.
func TestStoredFormsRejectInvalidRecords(t *testing.T) {
	readers := []struct {
		name string
		read func(worker bool, rec string) error
	}{
		{"shard snapshot", readShardSnapshot},
		{"batch snapshot", readBatchSnapshot},
		{"cluster frame", readFrame},
		{"workload file", readWorkloadLine},
	}
	cases := []struct {
		name   string
		worker bool
		rec    string
	}{
		{"worker with universe 0", true, `{"id":"w0","alpha":0.5,"beta":0.5,"universe":0,"keywords":[]}`},
		{"worker keyword out of range", true, `{"id":"w1","alpha":0.5,"beta":0.5,"universe":8,"keywords":[8]}`},
		{"task with universe 0", false, `{"id":"t0","universe":0,"keywords":[]}`},
		{"task with negative deadline", false, `{"id":"t1","universe":8,"keywords":[1],"deadline":-5}`},
		{"task keyword out of range", false, `{"id":"t2","universe":8,"keywords":[-1]}`},
	}
	valid := map[bool]string{
		true:  `{"id":"w2","alpha":0.5,"beta":0.5,"universe":8,"keywords":[1,2]}`,
		false: `{"id":"t3","universe":8,"keywords":[1],"deadline":5}`,
	}
	for _, r := range readers {
		for worker, rec := range valid {
			if err := r.read(worker, rec); err != nil {
				t.Errorf("%s refuses the valid record %s: %v", r.name, rec, err)
			}
		}
		for _, c := range cases {
			if err := r.read(c.worker, c.rec); err == nil {
				t.Errorf("%s accepts a %s: %s", r.name, c.name, c.rec)
			}
		}
	}
}
