package shard

import (
	"sync"
	"sync/atomic"

	"github.com/htacs/ata/internal/obs"
)

// Admission is the bookkeeping around an offer decision, shared by the
// engine and the cluster gateway: the duplicate-ID filter and the
// submitted and dropped counters of the conservation law. A task is
// admitted once and counted submitted. A rejected task leaves the filter
// and counts one drop, so it may be offered again later, as on the bare
// stream.Assigner. All methods are safe for concurrent use.
type Admission struct {
	// filter is off on a one-shard engine, whose assigner keeps its own
	// duplicate filter; the counters then run alone.
	filter bool
	mu     sync.Mutex
	seen   map[string]struct{}

	submitted, dropped atomic.Int64
	// subMet and dropMet mirror the counters into instruments when set.
	subMet, dropMet *obs.Counter
}

// NewAdmission returns the bookkeeping of one offer path. With filter
// unset it registers no IDs. submitted and dropped may be nil.
func NewAdmission(filter bool, submitted, dropped *obs.Counter) *Admission {
	return &Admission{filter: filter, seen: make(map[string]struct{}),
		subMet: submitted, dropMet: dropped}
}

// Admit registers id and counts it submitted. It returns false, counting
// nothing, when id is registered already.
func (a *Admission) Admit(id string) bool {
	if a.filter {
		a.mu.Lock()
		_, dup := a.seen[id]
		if !dup {
			a.seen[id] = struct{}{}
		}
		a.mu.Unlock()
		if dup {
			return false
		}
	}
	a.count()
	return true
}

// Accept counts a task submitted that was admitted elsewhere: by a
// one-shard engine's assigner, or by the gateway in front of this node.
// It registers id like Admit, without the duplicate check.
func (a *Admission) Accept(id string) {
	a.Register(id)
	a.count()
}

// Register puts id in the filter without counting it (a restored task).
func (a *Admission) Register(id string) {
	if a.filter {
		a.mu.Lock()
		a.seen[id] = struct{}{}
		a.mu.Unlock()
	}
}

// Reject is the fate of an admitted task no member took: it leaves the
// filter and counts one drop.
func (a *Admission) Reject(id string) {
	if a.filter {
		a.mu.Lock()
		delete(a.seen, id)
		a.mu.Unlock()
	}
	a.dropped.Add(1)
	if a.dropMet != nil {
		a.dropMet.Inc()
	}
}

func (a *Admission) count() {
	a.submitted.Add(1)
	if a.subMet != nil {
		a.subMet.Inc()
	}
}

// Submitted is the number of tasks admitted or accepted.
func (a *Admission) Submitted() int64 { return a.submitted.Load() }

// Dropped is the number of rejections.
func (a *Admission) Dropped() int64 { return a.dropped.Load() }
