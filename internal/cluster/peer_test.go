package cluster

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/stream"
)

// TestGatewayCloseEndsSenders drives concurrent offers through a gateway,
// so each peer starts senders up to its window, and checks that Close
// leaves no sender goroutine behind.
func TestGatewayCloseEndsSenders(t *testing.T) {
	tc := newTestCluster(t, 2, 1, 256, 4)
	gw := tc.gw
	workers, tasks := testWorkload(t, 11, 16, 400)
	for _, w := range workers {
		if _, err := gw.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	const G = 8
	var wg sync.WaitGroup
	per := len(tasks) / G
	for d := 0; d < G; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for _, task := range tasks[d*per : (d+1)*per] {
				if _, err := gw.OfferTask(task); err != nil && err != stream.ErrBufferFull {
					t.Errorf("offer %s: %v", task.ID, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()

	gw.mu.Lock()
	peers := make([]*peer, 0, len(gw.peers))
	for _, p := range gw.peers {
		peers = append(peers, p)
	}
	gw.mu.Unlock()
	started := 0
	for _, p := range peers {
		p.mu.Lock()
		if p.senders > p.window {
			t.Errorf("peer %s runs %d senders, window %d", p.name, p.senders, p.window)
		}
		started += p.senders
		p.mu.Unlock()
	}
	if started == 0 {
		t.Fatal("no sender ran")
	}

	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		p.mu.Lock()
		if p.senders != 0 || p.inflight != 0 {
			t.Errorf("peer %s after Close: %d senders, %d in flight", p.name, p.senders, p.inflight)
		}
		p.mu.Unlock()
	}
	// A sender that has signalled its end may still be returning; give it
	// a moment to leave the goroutine list.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "(*peer).sender") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a sender is still running after Close:\n%s", stacks)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := peers[0].doCtx(context.Background(), Op{Op: opWorkers}); err == nil {
		t.Fatal("an op on a closed peer succeeded")
	}
}
