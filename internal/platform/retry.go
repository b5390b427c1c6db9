package platform

import (
	"context"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ClientOption configures a Client at construction.
type ClientOption func(*Client)

// RetryPolicy bounds the retries the client applies to idempotent GET
// requests (Tasks, Stats) that fail transiently — a network error or a
// 5xx response. Mutating requests (register, complete, leave, upload)
// are never retried: the first attempt may have been applied even though
// the response was lost, and replaying it would double-count the event.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first attempt included.
	// Values < 2 disable retrying.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: before retry n the client
	// sleeps in [BaseDelay·2ⁿ⁻¹/2, BaseDelay·2ⁿ⁻¹) — exponential growth
	// with half-interval jitter so a fleet of clients retrying a blipped
	// server does not re-arrive in lockstep. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep. Default 2s.
	MaxDelay time.Duration
}

// WithRetry enables bounded retries on idempotent GETs.
func WithRetry(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 2 {
		return 1
	}
	return p.MaxAttempts
}

// jitterRand is shared across clients; rand.Rand is not goroutine-safe.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// backoff sleeps before retry number attempt (1-based), honouring ctx
// cancellation — a cancelled wait returns the context error immediately
// instead of burning the remaining delay.
func (p RetryPolicy) backoff(ctx context.Context, attempt int) error {
	base := p.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d > maxd || d <= 0 { // d <= 0 guards shift overflow
		d = maxd
	}
	jitterMu.Lock()
	sleep := d/2 + time.Duration(jitterRand.Int63n(int64(d/2)+1))
	jitterMu.Unlock()
	timer := time.NewTimer(sleep)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// StatsCtx is Stats with a caller-supplied context governing the whole
// request including retries.
func (c *Client) StatsCtx(ctx context.Context) (*StatsView, error) {
	var out StatsView
	if err := c.doCtx(ctx, http.MethodGet, "/api/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
