package replay

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCommittedKeyReplays(t *testing.T) {
	s := New[string](4)
	if _, ok := s.Claim("k"); ok {
		t.Fatal("fresh key claimed as recorded")
	}
	s.Commit("k", "first")
	for i := 0; i < 2; i++ {
		if v, ok := s.Claim("k"); !ok || v != "first" {
			t.Fatalf("replay %d: (%q, %v), want (\"first\", true)", i, v, ok)
		}
	}
	// A second commit of a recorded key keeps the first response.
	s.Commit("k", "second")
	if v, _ := s.Claim("k"); v != "first" {
		t.Fatalf("recorded response replaced by %q", v)
	}
}

func TestEvictsOldestAtCapacity(t *testing.T) {
	s := New[int](2)
	for i, k := range []string{"a", "b", "c"} {
		if _, ok := s.Claim(k); ok {
			t.Fatalf("fresh key %s claimed as recorded", k)
		}
		s.Commit(k, i)
	}
	if _, ok := s.Claim("a"); ok {
		t.Fatal("oldest key survived past capacity")
	}
	s.Abort("a")
	for i, k := range []string{"b", "c"} {
		if v, ok := s.Claim(k); !ok || v != i+1 {
			t.Fatalf("key %s: (%d, %v), want (%d, true)", k, v, ok, i+1)
		}
	}
}

// TestAbortedKeyAppliesOnce: the first application of a key aborts while
// several retries of it wait. Exactly one waiter applies the key again,
// and every other waiter replays that application's response.
func TestAbortedKeyAppliesOnce(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New[int](4)
		if _, ok := s.Claim("k"); ok {
			t.Fatal("fresh key claimed as recorded")
		}
		const waiters = 4
		var applied atomic.Int32
		replayed := make(chan int, waiters)
		var wg sync.WaitGroup
		for w := 0; w < waiters; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if v, ok := s.Claim("k"); ok {
					replayed <- v
					return
				}
				applied.Add(1)
				time.Sleep(time.Millisecond)
				s.Commit("k", 7)
			}()
		}
		time.Sleep(2 * time.Millisecond)
		s.Abort("k")
		wg.Wait()
		close(replayed)
		if n := applied.Load(); n != 1 {
			t.Fatalf("round %d: %d waiters applied the aborted key, want 1", round, n)
		}
		for v := range replayed {
			if v != 7 {
				t.Fatalf("round %d: a waiter replayed %d, want 7", round, v)
			}
		}
	}
}
