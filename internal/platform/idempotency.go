package platform

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"sync/atomic"

	"github.com/htacs/ata/internal/replay"
)

// Idempotency keys let clients retry mutating requests safely. The
// platform's default contract is strict: mutations get exactly one
// attempt, because a lost response leaves the client unable to tell
// "never applied" from "applied, reply lost", and replaying would
// double-count the event. A client constructed WithIdempotency opts out
// of that restriction by attaching a unique X-Idempotency-Key header to
// every mutating request; the server remembers each key's response and
// replays it on a retry instead of re-applying the mutation — the same
// contract the cluster RPC layer gets from frame-ID replay dedup.

// idempotencyHeader carries the client's per-request key.
const idempotencyHeader = "X-Idempotency-Key"

// idemEntry is one remembered response.
type idemEntry struct {
	status int
	header http.Header
	body   []byte
}

// idemCache is the replay store over recorded responses: two concurrent
// requests carrying the same key apply once and answer twice.
type idemCache struct{ *replay.Store[*idemEntry] }

func newIdemCache(capacity int) *idemCache {
	return &idemCache{replay.New[*idemEntry](capacity)}
}

// idemRecorder buffers a handler's response so it can be both sent and
// remembered.
type idemRecorder struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (r *idemRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *idemRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body.Write(p)
	return r.ResponseWriter.Write(p)
}

// idempotent wraps a mutating handler with keyed replay: requests without
// the header pass straight through; keyed requests are applied once and
// their response replayed to every retry of the same key. Responses with
// 5xx status are not remembered — the handler failed, and a retry should
// re-execute, which matches the client's retry-on-5xx policy.
func (s *Server) idempotent(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get(idempotencyHeader)
		if key == "" {
			h(w, r)
			return
		}
		// A concurrent request with the same key may be mid-application:
		// Claim waits for it, then replays its recorded response, or lets
		// this request apply when it aborted on a 5xx.
		if cached, ok := s.idem.Claim(key); ok {
			for k, vs := range cached.header {
				w.Header()[k] = vs
			}
			w.WriteHeader(cached.status)
			_, _ = w.Write(cached.body)
			return
		}
		rec := &idemRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status >= 500 {
			s.idem.Abort(key)
			return
		}
		s.idem.Commit(key, &idemEntry{
			status: rec.status,
			header: rec.Header().Clone(),
			body:   append([]byte(nil), rec.body.Bytes()...),
		})
	}
}

// WithIdempotency opts the client into safe mutation retries: every
// mutating request carries a fresh idempotency key, and transient
// failures (network errors, 5xx) are retried under the client's
// RetryPolicy — the server deduplicates by key, so a retry whose first
// attempt was applied replays the recorded response instead of
// double-applying. Combine with WithRetry; without a policy the option
// only adds the header.
func WithIdempotency() ClientOption {
	return func(c *Client) {
		c.idempotent = true
		var prefix [8]byte
		if _, err := rand.Read(prefix[:]); err == nil {
			c.idemPrefix = hex.EncodeToString(prefix[:])
		} else {
			c.idemPrefix = "fallback"
		}
	}
}

// newIdempotencyKey mints a unique key: a random per-client prefix plus a
// counter — unique across clients without per-request entropy reads.
func (c *Client) newIdempotencyKey() string {
	var seq [8]byte
	binary.LittleEndian.PutUint64(seq[:], c.idemSeq.Add(1))
	return c.idemPrefix + hex.EncodeToString(seq[:])
}

// idemState is embedded in Client.
type idemState struct {
	idempotent bool
	idemPrefix string
	idemSeq    atomic.Uint64
}
