package shard

import (
	"strconv"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/stream"
)

// Metrics are the engine-level instruments: one set per Engine, all on
// the same registry as the per-shard series so a single scrape shows the
// whole picture.
type Metrics struct {
	// Shards is the configured shard count (constant gauge, handy for
	// dashboards dividing per-shard series).
	Shards *obs.Gauge
	// Submitted/Dropped are the engine's own conservation counters:
	// Submitted counts well-formed OfferTask attempts accepted for
	// routing; Dropped counts offers rejected with ErrBufferFull plus
	// tasks lost on RemoveWorker overflow and steal overflow. Together
	// with the per-shard active/completed/backlog states they satisfy
	// Submitted = Active + Completed + Buffered + Dropped at quiescence.
	Submitted *obs.Counter
	Dropped   *obs.Counter
	// RouteLatency is the scatter-gather routing time per offered task,
	// seconds.
	RouteLatency *obs.Histogram
	// CommitRetries counts failed commits — how often a shard that
	// scored free was full by the time the commit arrived, so the offer
	// fell to the next shard in the ranking.
	CommitRetries *obs.Counter
	// RouteRescores counts the offers whose decision needed the full
	// score of a shard that answered the scatter pending (route.go's
	// settle): the exact fallback of ranking partly-filled workers first.
	RouteRescores *obs.Counter
	// Steals counts rebalance rounds that moved at least one task;
	// StolenTasks the tasks moved; StealBatch the per-round batch sizes.
	Steals      *obs.Counter
	StolenTasks *obs.Counter
	StealBatch  *obs.Histogram
	// Expired counts buffered tasks expired past their deadline by the
	// expiry sweep (ExpireOnce) — part of the conservation law, disjoint
	// from Dropped.
	Expired *obs.Counter
	// ForecastBreaches counts shards whose projected backlog crossed the
	// steal watermark while their actual backlog had not — the proactive
	// rebalances only the demand forecaster sees.
	ForecastBreaches *obs.Counter
}

// NewMetrics registers the engine-level instruments on r (obs.Default()
// when nil).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		r = obs.Default()
	}
	return &Metrics{
		Shards: r.Gauge("hta_shard_count",
			"configured shard count of the sharded streaming engine"),
		Submitted: r.Counter("hta_shard_tasks_submitted_total",
			"well-formed task offers accepted for routing by the sharded engine"),
		Dropped: r.Counter("hta_shard_tasks_dropped_total",
			"tasks lost engine-wide (full buffers on offer, removal overflow, steal overflow)"),
		RouteLatency: r.Histogram("hta_shard_route_seconds",
			"scatter-gather routing latency per offered task", obs.DurationBuckets()),
		CommitRetries: r.Counter("hta_shard_commit_retries_total",
			"commits refused by a shard that scored free (contention fallback)"),
		RouteRescores: r.Counter("hta_shard_route_rescore_total",
			"offers whose routing asked a pending shard for its full score"),
		Steals: r.Counter("hta_shard_steals_total",
			"rebalance rounds that moved at least one task"),
		StolenTasks: r.Counter("hta_shard_stolen_tasks_total",
			"tasks migrated between shards by work stealing"),
		StealBatch: r.Histogram("hta_shard_steal_batch_size",
			"tasks moved per successful steal round", obs.SizeBuckets()),
		Expired: r.Counter("hta_shard_tasks_expired_total",
			"buffered tasks expired past their deadline by the expiry sweep"),
		ForecastBreaches: r.Counter("hta_shard_forecast_breaches_total",
			"proactive watermark breaches seen only by the demand forecaster"),
	}
}

// partMetrics are the per-shard series, labeled shard="K". The wrapped
// stream.Assigner's own instruments (queue depth, delivered, ...) carry
// the same label via stream.NewMetricsLabeled, so every shard is a
// distinct, aggregatable family member — the fix for the shared-gauge
// inconsistency a process with several Assigners otherwise hits.
type partMetrics struct {
	Free      *obs.Gauge   // free task slots (Xmax·workers − active)
	Stolen    *obs.Counter // tasks this shard donated
	Received  *obs.Counter // tasks this shard absorbed
	Predicted *obs.Gauge   // forecaster's projected backlog at horizon
}

func newPartMetrics(r *obs.Registry, id int) (*partMetrics, *stream.Metrics) {
	if r == nil {
		r = obs.Default()
	}
	l := obs.L("shard", strconv.Itoa(id))
	pm := &partMetrics{
		Free: r.Gauge("hta_shard_free_capacity",
			"free task slots on the shard (Xmax x workers - active)", l),
		Stolen: r.Counter("hta_shard_tasks_stolen_total",
			"buffered tasks donated to other shards", l),
		Received: r.Counter("hta_shard_tasks_received_total",
			"buffered tasks absorbed from other shards", l),
		Predicted: r.Gauge("hta_shard_predicted_backlog",
			"projected shard backlog at the forecast horizon", l),
	}
	return pm, stream.NewMetricsLabeled(r, l)
}
