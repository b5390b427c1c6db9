package platform

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/htacs/ata/internal/adaptive"
)

// lostResponseHandler applies the inner handler normally but replaces the
// first n responses with a 500 AFTER the application — the
// "applied-but-reply-lost" failure that makes naive mutation retries
// double-count.
func lostResponseHandler(n int64, h http.Handler) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			http.Error(w, `{"error":"response lost in transit"}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}), &calls
}

func TestIdempotentRetryAppliesMutationOnce(t *testing.T) {
	ts, _ := newTestServer(t, 10)
	lossy, calls := lostResponseHandler(1, ts.Config.Handler)
	fs := httptest.NewServer(lossy)
	t.Cleanup(fs.Close)
	client := NewClient(fs.URL, fs.Client(), fastRetry(4), WithIdempotency())

	// The first attempt registers the worker but its response is lost.
	// The keyed retry must succeed by replay, not by re-registering —
	// re-registering would 409 on the duplicate worker.
	views, err := client.Register("w-idem", sixKeywords(0))
	if err != nil {
		t.Fatalf("keyed Register through a lost response: %v", err)
	}
	if views == nil {
		t.Fatal("replayed response carried no task views")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (apply + replay)", got)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Workers) != 1 {
		t.Fatalf("worker registered %d times, want exactly 1", len(stats.Workers))
	}
}

func TestIdempotentKeysAreUniquePerRequest(t *testing.T) {
	ts, _ := newTestServer(t, 10)
	var keys sync.Map
	var dup atomic.Bool
	spy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k := r.Header.Get(idempotencyHeader); k != "" {
			if _, seen := keys.LoadOrStore(k, true); seen {
				dup.Store(true)
			}
		} else if r.Method != http.MethodGet {
			t.Errorf("keyed client sent unkeyed %s %s", r.Method, r.URL.Path)
		}
		ts.Config.Handler.ServeHTTP(w, r)
	})
	fs := httptest.NewServer(spy)
	t.Cleanup(fs.Close)
	client := NewClient(fs.URL, fs.Client(), WithIdempotency())
	for i := 0; i < 5; i++ {
		if _, err := client.Register("w"+string(rune('a'+i)), sixKeywords(i)); err != nil {
			t.Fatal(err)
		}
	}
	if dup.Load() {
		t.Fatal("two distinct requests carried the same idempotency key")
	}
}

func TestIdempotentSameKeyReplaysInsteadOfReapplying(t *testing.T) {
	ts, _ := newTestServer(t, 10)
	post := func(key, body string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/workers", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(idempotencyHeader, key)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// The same key twice with a valid registration: re-executing the
	// handler would 409 on the duplicate worker, a replay answers 201
	// both times.
	valid := `{"id":"w-replay","keywords":[0,1,2,3,4,5]}`
	if got := post("key-valid", valid); got != http.StatusCreated {
		t.Fatalf("first keyed register: HTTP %d", got)
	}
	if got := post("key-valid", valid); got != http.StatusCreated {
		t.Fatalf("replayed register: HTTP %d, want 201 (409 means it re-applied)", got)
	}
	// 4xx outcomes are cached too: a key that produced a 400 keeps
	// answering 400 even when the retried body would have been valid —
	// the key identifies the logical request, not its payload.
	if got := post("key-bad", `{"id":"w2","keywords":[0,1,2]}`); got != http.StatusBadRequest {
		t.Fatalf("short keyword list: HTTP %d, want 400", got)
	}
	if got := post("key-bad", `{"id":"w2","keywords":[0,1,2,3,4,5]}`); got != http.StatusBadRequest {
		t.Fatalf("replay of failed key: HTTP %d, want the cached 400", got)
	}
}

func TestIdempotencyDisabledServerSide(t *testing.T) {
	// A server with the cache disabled ignores the header: the pinned
	// exactly-once server contract is then the client's problem again.
	engine, err := adaptive.NewEngine(adaptive.Config{
		Xmax: 5, Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Engine: engine, Universe: universe, IdempotencyCache: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			calls.Add(1)
		}
		srv.ServeHTTP(w, r)
	})
	fs := httptest.NewServer(counted)
	t.Cleanup(fs.Close)
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest(http.MethodPost, fs.URL+"/api/workers",
			strings.NewReader(`{"id":"w-dup","keywords":[0,1,2,3,4,5]}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(idempotencyHeader, "ignored-key")
		resp, err := fs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("disabled cache still deduped: handler ran %d times, want 2", got)
	}
}

// begin and commit are the single-lookup store calls TestIdemCacheEvictsFIFO
// drives the cache with.
func (c *idemCache) begin(key string) (*idemEntry, <-chan struct{}) {
	e, _, inflight := c.Begin(key)
	return e, inflight
}

func (c *idemCache) commit(key string, e *idemEntry) { c.Commit(key, e) }

func TestIdemCacheEvictsFIFO(t *testing.T) {
	c := newIdemCache(2)
	for _, k := range []string{"a", "b", "c"} {
		if e, in := c.begin(k); e != nil || in != nil {
			t.Fatalf("fresh key %s: %v %v", k, e, in)
		}
		c.commit(k, &idemEntry{status: 200})
	}
	if e, _ := c.begin("a"); e != nil {
		t.Fatal("oldest key survived past capacity")
	}
	if e, _ := c.begin("c"); e == nil {
		t.Fatal("newest key evicted")
	}
}
