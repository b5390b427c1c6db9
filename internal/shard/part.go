package shard

import (
	"sync"
	"sync/atomic"

	"github.com/htacs/ata/internal/stream"
)

// part is one shard: a bare stream.Assigner guarded by its own mutex.
// Every shard call runs in the caller's goroutine under that lock, so each
// shard serializes only its own workers' events and an uncontended call
// costs a lock and an unlock.
//
// Protocol rules that keep the engine deadlock-free:
//
//   - a goroutine holds at most one shard lock; Snapshot, which reads
//     every shard, takes none and holds the engine's liveness lock for
//     writing instead;
//   - nothing that runs under a shard lock takes another shard lock, so
//     cross-shard operations (scatter, rescore, steal, expiry, restore)
//     visit the shards one at a time.
type part struct {
	id  int
	mu  sync.Mutex
	asn *stream.Assigner

	// completed, dropped and expired survive worker removal (the
	// assigner's per-worker done counters die with RemoveWorker), so the
	// engine's conservation accounting stays exact under churn.
	completed atomic.Int64
	dropped   atomic.Int64
	expired   atomic.Int64

	metrics *partMetrics
}

// call runs fn on the shard's assigner under the shard lock and publishes
// the free-capacity gauge before releasing it.
func (p *part) call(fn func(asn *stream.Assigner)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn(p.asn)
	p.metrics.Free.Set(float64(p.asn.FreeCapacity()))
}
