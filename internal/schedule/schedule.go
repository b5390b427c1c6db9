// Package schedule is the predictive scheduling layer: a per-shard demand
// forecaster and a worker availability-window tracker, both stdlib-only.
//
// The forecaster turns the reactive watermark rebalancer into a predictive
// one: instead of waiting for backlog to breach a threshold, each shard
// maintains an EWMA of its arrival and completion rates plus an EWMA of the
// squared arrival deviation (a burstiness guard), and projects its backlog
// a horizon ahead. The steal loop acts on the projection, moving work
// *before* the queue forms (DATA-WA's demand-prediction argument applied
// to our shard topology).
//
// The window tracker answers "when will this worker leave?". Workers may
// declare an availability window explicitly; absent a declaration the
// tracker learns a per-worker mean session length from observed
// arrive/depart churn and estimates departure as arrival + mean. The
// router uses the estimate to avoid pinning deadline-imminent work to a
// worker who is about to walk away with it.
//
// Both types take explicit timestamps (or none at all) rather than reading
// the wall clock, so deterministic replays and tests can drive time.
package schedule

import (
	"math"
	"sync"
	"sync/atomic"
)

// ForecastConfig tunes a Forecaster. The zero value selects the defaults.
type ForecastConfig struct {
	// Alpha is the EWMA smoothing factor in (0, 1]. Larger values track
	// bursts faster but forget the steady state sooner. Default 0.3.
	Alpha float64
	// Guard scales the arrival-rate standard deviation added on top of
	// the mean when projecting backlog: effective = mean + Guard·σ.
	// It is what makes the forecast conservative under bursty arrivals —
	// a steady stream has σ≈0 and the guard adds nothing. Default 2.
	Guard float64
}

func (c ForecastConfig) withDefaults() ForecastConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.Guard < 0 {
		c.Guard = 0
	} else if c.Guard == 0 {
		c.Guard = 2
	}
	return c
}

// Forecaster tracks one shard's demand. Arrival/completion events are
// recorded lock-free from the hot path; Tick folds the window counts into
// the EWMAs once per forecast interval (called from the steal loop's
// ticker goroutine, so folds never race each other).
type Forecaster struct {
	arrivals    atomic.Int64
	completions atomic.Int64

	mu       sync.Mutex
	cfg      ForecastConfig
	ticks    int64
	arrMean  float64 // EWMA of arrivals per tick
	arrVar   float64 // EWMA of squared arrival deviation
	compMean float64 // EWMA of completions per tick
}

// NewForecaster returns a Forecaster with the given config (zero value =
// defaults).
func NewForecaster(cfg ForecastConfig) *Forecaster {
	return &Forecaster{cfg: cfg.withDefaults()}
}

// RecordArrivals counts n tasks arriving at the shard since the last Tick.
func (f *Forecaster) RecordArrivals(n int) {
	if n > 0 {
		f.arrivals.Add(int64(n))
	}
}

// RecordCompletions counts n tasks completed at the shard since the last
// Tick.
func (f *Forecaster) RecordCompletions(n int) {
	if n > 0 {
		f.completions.Add(int64(n))
	}
}

// Tick folds the counts accumulated since the previous Tick into the rate
// EWMAs. Call it at a fixed cadence; rates are expressed per tick.
func (f *Forecaster) Tick() {
	a := float64(f.arrivals.Swap(0))
	c := float64(f.completions.Swap(0))
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ticks == 0 {
		// Seed the EWMAs with the first observation instead of decaying
		// up from zero, so the forecast is live from the second tick.
		f.arrMean, f.compMean, f.arrVar = a, c, 0
		f.ticks = 1
		return
	}
	alpha := f.cfg.Alpha
	d := a - f.arrMean
	f.arrMean += alpha * d
	// Exponentially weighted variance (West 1979 incremental form):
	// unchanged arrivals decay it toward zero, bursts inflate it.
	f.arrVar = (1 - alpha) * (f.arrVar + alpha*d*d)
	f.compMean += alpha * (c - f.compMean)
	f.ticks++
}

// Rates returns the current per-tick arrival mean, arrival standard
// deviation, and completion mean.
func (f *Forecaster) Rates() (arrival, sigma, completion float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.arrMean, math.Sqrt(f.arrVar), f.compMean
}

// PredictedBacklog projects the backlog horizonTicks ahead:
//
//	predicted = max(0, backlog + (mean + Guard·σ − completions)·horizon)
//
// With no observations yet it returns the backlog unchanged, so a cold
// forecaster is exactly the reactive rebalancer.
func (f *Forecaster) PredictedBacklog(backlog int, horizonTicks float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ticks == 0 || horizonTicks <= 0 {
		return float64(backlog)
	}
	eff := f.arrMean + f.cfg.Guard*math.Sqrt(f.arrVar)
	net := eff - f.compMean
	p := float64(backlog) + net*horizonTicks
	if p < 0 {
		return 0
	}
	return p
}

// WindowConfig tunes a WindowTracker. The zero value selects the defaults.
type WindowConfig struct {
	// Alpha is the EWMA smoothing factor for learned session durations,
	// in (0, 1]. Default 0.3.
	Alpha float64
	// MinSessions is how many completed sessions a worker needs before
	// the learned estimate is trusted. Below it DepartureEstimate
	// returns 0 (unknown) unless the worker declared a window. Default 2.
	MinSessions int
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.MinSessions <= 0 {
		c.MinSessions = 2
	}
	return c
}

// WindowTracker estimates per-worker availability windows. Declared
// windows always win; otherwise it learns a mean session duration from
// arrive/depart observations. All timestamps are caller-supplied (UnixNano
// by convention, but any monotone int64 clock works).
type WindowTracker struct {
	mu  sync.Mutex
	cfg WindowConfig
	w   map[string]*windowState
}

type windowState struct {
	declaredUntil int64 // 0 = none declared
	arrivedAt     int64
	present       bool
	meanSession   float64 // EWMA of observed session durations
	sessions      int
}

// NewWindowTracker returns a WindowTracker with the given config (zero
// value = defaults).
func NewWindowTracker(cfg WindowConfig) *WindowTracker {
	return &WindowTracker{cfg: cfg.withDefaults(), w: make(map[string]*windowState)}
}

func (t *WindowTracker) state(id string) *windowState {
	ws := t.w[id]
	if ws == nil {
		ws = &windowState{}
		t.w[id] = ws
	}
	return ws
}

// Declare records an explicit availability-window end for the worker.
// until == 0 clears the declaration, falling back to the learned estimate.
func (t *WindowTracker) Declare(id string, until int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state(id).declaredUntil = until
}

// Arrive records the worker joining at time at.
func (t *WindowTracker) Arrive(id string, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.state(id)
	ws.present = true
	ws.arrivedAt = at
}

// Depart records the worker leaving at time at, folding the observed
// session duration into the worker's mean.
func (t *WindowTracker) Depart(id string, at int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.w[id]
	if ws == nil || !ws.present {
		return
	}
	ws.present = false
	if d := float64(at - ws.arrivedAt); d > 0 {
		if ws.sessions == 0 {
			ws.meanSession = d
		} else {
			ws.meanSession += t.cfg.Alpha * (d - ws.meanSession)
		}
		ws.sessions++
	}
	// A declared window is one session's promise, not a permanent fact:
	// departure consumes it.
	ws.declaredUntil = 0
}

// DepartureEstimate returns the estimated instant the worker leaves:
// the declared window end if one is set, else arrival + learned mean
// session once MinSessions sessions have been observed. Zero means
// unknown — callers must treat unknown as "no constraint", never as
// "departing now".
func (t *WindowTracker) DepartureEstimate(id string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.w[id]
	if ws == nil {
		return 0
	}
	if ws.declaredUntil > 0 {
		return ws.declaredUntil
	}
	if ws.present && ws.sessions >= t.cfg.MinSessions {
		return ws.arrivedAt + int64(ws.meanSession)
	}
	return 0
}

// Sessions returns how many completed sessions have been observed for the
// worker.
func (t *WindowTracker) Sessions(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ws := t.w[id]; ws != nil {
		return ws.sessions
	}
	return 0
}

// Forget drops all state for the worker (e.g. after a permanent
// deregistration), so the map cannot grow without bound across a long
// churn trace of one-shot workers.
func (t *WindowTracker) Forget(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.w, id)
}

// Len returns the number of tracked workers.
func (t *WindowTracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.w)
}
