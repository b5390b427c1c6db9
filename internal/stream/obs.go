package stream

import (
	"sync"

	"github.com/htacs/ata/internal/obs"
)

// Metrics are the streaming assigner's instruments. The accounting model
// is a task-flow conservation law the property tests pin down:
//
//	Submitted  = every well-formed OfferTask attempt (nil tasks and
//	             empty IDs error out before counting);
//	Delivered  = every hand-off of a task to a worker (direct offer,
//	             buffer pull on Complete/AddWorker, including
//	             re-deliveries of requeued tasks);
//	Dropped    = offers rejected with ErrBufferFull plus active tasks
//	             discarded on RemoveWorker when the buffer is full;
//	Requeued   = active tasks returned to the buffer on RemoveWorker;
//	Expired    = buffered tasks removed by ExpireDue after their deadline
//	             passed (never silently: the tasks are returned to the
//	             caller for journaling).
//
// With no worker churn, once the buffer drains: Dropped + Expired =
// Submitted − Delivered. QueueDepth always equals BufferLen().
type Metrics struct {
	QueueDepth *obs.Gauge
	Submitted  *obs.Counter
	Delivered  *obs.Counter
	Dropped    *obs.Counter
	Requeued   *obs.Counter
	Completed  *obs.Counter
	Expired    *obs.Counter
	// DrainBatch is the number of tasks handed to a newly arrived worker
	// out of the buffer — the batch-size distribution of AddWorker.
	DrainBatch *obs.Histogram
}

// NewMetrics registers the streaming instruments on r (obs.Default() when
// nil).
func NewMetrics(r *obs.Registry) *Metrics {
	return NewMetricsLabeled(r)
}

// NewMetricsLabeled registers the streaming instruments with a constant
// label set attached to every series — the sharded engine passes
// shard="K" so each of its per-shard Assigners writes its own series.
//
// This fixes an inconsistency the sharded engine exposed: defaultMetrics
// hands every Assigner in the process the *same* unlabeled instruments,
// so two assigners sharing them turn QueueDepth into last-writer-wins
// noise (counters merely aggregate, which is defensible; a shared gauge
// is not). Multi-assigner deployments must isolate series by label.
func NewMetricsLabeled(r *obs.Registry, labels ...obs.Label) *Metrics {
	if r == nil {
		r = obs.Default()
	}
	return &Metrics{
		QueueDepth: r.Gauge("hta_stream_queue_depth",
			"tasks buffered waiting for a free worker slot", labels...),
		Submitted: r.Counter("hta_stream_tasks_submitted_total",
			"well-formed task offers (accepted or rejected)", labels...),
		Delivered: r.Counter("hta_stream_tasks_delivered_total",
			"task hand-offs to workers (including re-deliveries after requeue)", labels...),
		Dropped: r.Counter("hta_stream_tasks_dropped_total",
			"tasks lost to a full buffer (offer rejections + removal overflow)", labels...),
		Requeued: r.Counter("hta_stream_tasks_requeued_total",
			"active tasks returned to the buffer by RemoveWorker", labels...),
		Completed: r.Counter("hta_stream_tasks_completed_total",
			"task completions recorded", labels...),
		Expired: r.Counter("hta_stream_tasks_expired_total",
			"buffered tasks expired past their deadline by ExpireDue", labels...),
		DrainBatch: r.Histogram("hta_stream_drain_batch_size",
			"buffered tasks drained per arriving worker", obs.SizeBuckets(), labels...),
	}
}

var (
	sharedOnce    sync.Once
	sharedMetrics *Metrics
)

// defaultMetrics lazily builds the process-wide instrument set.
func defaultMetrics() *Metrics {
	sharedOnce.Do(func() { sharedMetrics = NewMetrics(obs.Default()) })
	return sharedMetrics
}

// syncQueueGauge publishes the current backlog, both to the obs gauge and
// to the atomic mirror behind Backlog(). Called after every buffer
// mutation; the Assigner is single-goroutine by contract, so both views
// are exact at every quiescent point. The atomic store is unconditional —
// Backlog feeds the steal watermark, which must keep working with obs
// disabled.
func (a *Assigner) syncQueueGauge() {
	a.backlogN.Store(int64(len(a.buffer)))
	a.metrics.QueueDepth.Set(float64(len(a.buffer)))
}
