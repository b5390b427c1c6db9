package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/htacs/ata/internal/workload"
)

// TestPreloadDeadlinesAreOffsets runs the real binary on a task file whose
// deadlines are offsets from trace start, as hta-gen -deadlines writes
// them. One task is due 300ms after load and the rest a minute after, so
// the expiry sweep must expire exactly the first; read as absolute
// instants, every deadline would be decades past and all would expire at
// once.
func TestPreloadDeadlinesAreOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the real binary")
	}
	const n = 20
	tasks := genTasks(n)
	for i, task := range tasks {
		task.Deadline = int64(time.Minute)
		if i == 0 {
			task.Deadline = int64(300 * time.Millisecond)
		}
	}
	path := filepath.Join(t.TempDir(), "tasks.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.WriteTasks(f, tasks); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p := startServer(t, buildServerBinary(t), "-shards", "2", "-universe", strconv.Itoa(testUniverse),
		"-deadline-aware", "-expire-interval", "50ms", "-tasks", path)
	defer p.terminate(t)
	var st struct {
		Submitted int64 `json:"submitted"`
		Expired   int64 `json:"expired"`
	}
	stats := func() {
		t.Helper()
		if err := json.Unmarshal([]byte(httpGetBody(t, "http://"+p.addr+"/api/stats")), &st); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if stats(); st.Expired > 0 || time.Now().After(deadline) {
			break
		}
	}
	// Several more sweeps: nothing else is due for a minute.
	time.Sleep(300 * time.Millisecond)
	stats()
	if st.Submitted != n || st.Expired != 1 {
		t.Fatalf("stats: submitted %d, expired %d; want %d submitted, 1 expired", st.Submitted, st.Expired, n)
	}
}
