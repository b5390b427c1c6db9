package shard

import (
	"sync"
	"sync/atomic"

	"github.com/htacs/ata/internal/obs"
)

// Admission is the bookkeeping around an offer decision, shared by the
// engine and the cluster gateway: the duplicate filter and the submitted
// and dropped counters of the conservation law. It is held only by the
// layer that admits; no layer below it keeps a filter.
//
// The filter's contract: an ID is refused while it is live (buffered or
// active). Once it completes, expires or is dropped, the layer releases
// it and it may be offered again. So the filter never holds more IDs
// than there are live tasks. Each live ID maps to a V the layer may set
// once the task is placed: the gateway keeps the task and its node, the
// engine keeps nothing. All methods are safe for concurrent use.
type Admission[V any] struct {
	mu   sync.Mutex
	live map[string]V

	submitted, dropped atomic.Int64
	// subMet and dropMet mirror the counters into instruments when set.
	subMet, dropMet *obs.Counter
}

// NewAdmission returns the bookkeeping of one offer path. submitted and
// dropped may be nil.
func NewAdmission[V any](submitted, dropped *obs.Counter) *Admission[V] {
	return &Admission[V]{live: make(map[string]V), subMet: submitted, dropMet: dropped}
}

// Admit marks id live and counts it submitted. It returns false, counting
// nothing, when id is live already.
func (a *Admission[V]) Admit(id string) bool {
	a.mu.Lock()
	_, dup := a.live[id]
	if !dup {
		var zero V
		a.live[id] = zero
	}
	a.mu.Unlock()
	if dup {
		return false
	}
	a.count()
	return true
}

// Accept counts a task submitted that the gateway in front of this node
// admitted. The ID is not marked live: the gateway's filter holds it.
func (a *Admission[V]) Accept() { a.count() }

// Register marks id live without counting it (a restored task).
func (a *Admission[V]) Register(id string) {
	var zero V
	a.mu.Lock()
	a.live[id] = zero
	a.mu.Unlock()
}

// Place sets the value of id if id is still live; a task that finished
// while its placement was on the way stays released.
func (a *Admission[V]) Place(id string, v V) {
	a.mu.Lock()
	if _, ok := a.live[id]; ok {
		a.live[id] = v
	}
	a.mu.Unlock()
}

// Select returns the values of the live IDs that match, in no set order.
func (a *Admission[V]) Select(match func(V) bool) []V {
	var out []V
	a.mu.Lock()
	for _, v := range a.live {
		if match(v) {
			out = append(out, v)
		}
	}
	a.mu.Unlock()
	return out
}

// Release ends id's life: it completed, expired or was dropped below the
// admitting layer, and may be offered again.
func (a *Admission[V]) Release(id string) {
	a.mu.Lock()
	delete(a.live, id)
	a.mu.Unlock()
}

// Reject is the fate of an admitted task no member took: it is released
// and counts one drop.
func (a *Admission[V]) Reject(id string) {
	a.Release(id)
	a.dropped.Add(1)
	if a.dropMet != nil {
		a.dropMet.Inc()
	}
}

func (a *Admission[V]) count() {
	a.submitted.Add(1)
	if a.subMet != nil {
		a.subMet.Inc()
	}
}

// Len is the number of live IDs.
func (a *Admission[V]) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}

// Submitted is the number of tasks admitted or accepted.
func (a *Admission[V]) Submitted() int64 { return a.submitted.Load() }

// Dropped is the number of rejections.
func (a *Admission[V]) Dropped() int64 { return a.dropped.Load() }
