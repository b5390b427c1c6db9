// Package replay is the bounded replay store behind exactly-once retries:
// the platform's idempotency keys and the cluster nodes' frame IDs. A key
// maps to the response its first application recorded, so a retry
// replays that response instead of applying again. Recorded keys are
// evicted oldest first once the store holds its capacity, and a retry
// that arrives while the first application is still running waits for
// it rather than racing it.
package replay

import (
	"container/list"
	"sync"
)

// Store maps keys to recorded responses of type V. All methods are safe
// for concurrent use.
type Store[V any] struct {
	mu    sync.Mutex
	cap   int
	done  map[string]V
	infly map[string]chan struct{}
	order *list.List // recorded keys, oldest first
}

// New returns a store that keeps the last capacity recorded responses.
func New[V any](capacity int) *Store[V] {
	return &Store[V]{
		cap:   capacity,
		done:  make(map[string]V, max(capacity, 0)),
		infly: make(map[string]chan struct{}),
		order: list.New(),
	}
}

// Begin looks key up once. A recorded key returns its response and
// recorded. A key being applied right now returns a channel that closes
// when that application commits or aborts. Otherwise the caller now owns
// key and must Commit or Abort it.
func (s *Store[V]) Begin(key string) (v V, recorded bool, inflight <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.done[key]; ok {
		return v, true, nil
	}
	if ch, ok := s.infly[key]; ok {
		return v, false, ch
	}
	s.infly[key] = make(chan struct{})
	return v, false, nil
}

// Claim is Begin that waits out in-flight applications: it returns the
// recorded response and true, or false once the caller owns key. A
// waiter whose application aborted looks again, so of several waiters
// exactly one applies the key and the others replay its response.
func (s *Store[V]) Claim(key string) (V, bool) {
	for {
		v, recorded, inflight := s.Begin(key)
		if inflight == nil {
			return v, recorded
		}
		<-inflight
	}
}

// Commit records v as key's response and wakes its waiters. The caller
// must not change v afterwards.
func (s *Store[V]) Commit(key string, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(key)
	if _, ok := s.done[key]; !ok {
		s.done[key] = v
		s.order.PushBack(key)
		for s.order.Len() > s.cap {
			old := s.order.Remove(s.order.Front()).(string)
			delete(s.done, old)
		}
	}
}

// Abort gives key up without recording a response, so the next Claim of
// it applies again.
func (s *Store[V]) Abort(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release(key)
}

// release wakes key's waiters. Caller holds mu.
func (s *Store[V]) release(key string) {
	if ch, ok := s.infly[key]; ok {
		close(ch)
		delete(s.infly, key)
	}
}
