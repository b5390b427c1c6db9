package platform

import (
	"net/http/httptest"
	"testing"

	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// newQualityServer wires the full quality stack the way hta-server does:
// a trust-aware sharded engine, a tracker with redundancy k, and the
// answer endpoints on top. The tracker is returned so tests can assert
// on accounting directly.
func newQualityServer(t *testing.T, k int, qcfg quality.Config) (*shard.Engine, *quality.Tracker, *httptest.Server, *Client) {
	t.Helper()
	eng, err := shard.New(shard.Config{
		Shards:        2,
		StealInterval: -1,
		Registry:      obs.NewRegistry(),
		Stream:        stream.Config{Xmax: 3, BufferLimit: 256, WithTrust: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	qcfg.K = k
	tr, err := quality.New(qcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Shards:   eng,
		Universe: universe,
		Quality:  tr,
		Metrics:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return eng, tr, ts, NewClient(ts.URL, ts.Client())
}

// TestQualityEndToEnd walks the whole surface: uploads replicate k-fold,
// answers resolve at k, GET /api/answers reports the consensus, the
// reputation endpoint tracks gold grades, and a quarantine propagates to
// both the HTTP status (403) and the engine's trust multiplier.
func TestQualityEndToEnd(t *testing.T) {
	const k = 2
	eng, tr, _, client := newQualityServer(t, k, quality.Config{
		Options: 4, QuarantineFloor: 0.4, MinGold: 3,
	})

	g, err := workload.NewGenerator(workload.Config{Seed: 3, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	const logical = 10
	if err := client.AddTasks(g.Tasks(logical/5+1, 5)[:logical]); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Submitted != logical*k {
		t.Fatalf("upload submitted %d engine tasks, want %d (k-fold replication)", st.Submitted, logical*k)
	}

	// Two honest workers answer the same logical task once each — the
	// second vote resolves it.
	for _, w := range []string{"w-a", "w-b"} {
		if _, err := client.Register(w, sixKeywords(0)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := client.SubmitAnswer("w-a", "task-0000", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved {
		t.Fatalf("first of %d votes resolved the task: %+v", k, res)
	}
	// Replica IDs are accepted and collapse onto the logical task.
	res, err = client.SubmitAnswer("w-b", quality.ReplicaID("task-0000", 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resolved {
		t.Fatalf("vote %d did not resolve: %+v", k, res)
	}
	// The same worker voting again on any replica is a conflict.
	if _, err := client.SubmitAnswer("w-a", "task-0000", 1); !IsAnswerConflict(err) {
		t.Fatalf("duplicate vote: %v", err)
	}

	view, err := client.Answers()
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Answers) != 1 || view.Answers[0].TaskID != "task-0000" || view.Answers[0].Option != 2 {
		t.Fatalf("answers view: %+v", view.Answers)
	}
	if !view.Stats.Conserved() {
		t.Fatalf("served stats not conserved: %+v", view.Stats)
	}

	// Gold grading over the API: a spammer fails three known-answer tasks
	// and is quarantined — the next submit is 403 and the engine's trust
	// multiplier drops to zero.
	for _, id := range []string{"g0", "g1", "g2"} {
		if err := tr.AddGold(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Register("w-spam", sixKeywords(6)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"g0", "g1", "g2"} {
		if _, err := client.SubmitAnswer("w-spam", id, 3); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.SubmitAnswer("w-spam", "task-0001", 0); err == nil || IsAnswerConflict(err) {
		t.Fatalf("quarantined submit: %v, want a 403 rejection", err)
	}
	rep, err := client.Reputation("w-spam")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quarantined || rep.GoldSeen != 3 || rep.GoldCorrect != 0 || rep.EngineTrust != 0 {
		t.Fatalf("spammer reputation: %+v", rep)
	}
	if trust, err := eng.Trust("w-spam"); err != nil || trust != 0 {
		t.Fatalf("engine trust after quarantine: %v, %v", trust, err)
	}
	if _, err := client.Reputation("w-ghost"); err == nil {
		t.Fatal("reputation of unknown worker did not 404")
	}
}

// TestAnswersRetryIsIdempotentGET pins the retry contract for the read
// side: GET /api/answers is always retryable (no idempotency key needed),
// so a plain WithRetry client recovers from transient 500s and the
// repeated reads change nothing.
func TestAnswersRetryIsIdempotentGET(t *testing.T) {
	_, tr, ts, seed := newQualityServer(t, 1, quality.Config{Options: 4})
	if _, err := seed.Register("w0", sixKeywords(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.SubmitAnswer("w0", "t0", 2); err != nil {
		t.Fatal(err)
	}

	flaky, calls := flakyHandler(2, ts.Config.Handler)
	fs := httptest.NewServer(flaky)
	t.Cleanup(fs.Close)
	client := NewClient(fs.URL, fs.Client(), fastRetry(4))

	view, err := client.Answers()
	if err != nil {
		t.Fatalf("Answers through 2 transient 500s: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(view.Answers) != 1 || view.Answers[0].Option != 2 {
		t.Fatalf("retried read returned %+v", view.Answers)
	}
	if st := tr.Stats(); st.AnswersSubmitted != 1 {
		t.Fatalf("retried GETs perturbed the tracker: %+v", st)
	}
}

// TestSubmitAnswerRetryNeverDoubleCounts is the regression the
// idempotency layer exists for: the first POST /api/answers applies but
// its response is lost; the keyed retry must replay the stored response
// instead of re-submitting — a re-submit would either 409 (duplicate
// vote) or, at k>1, count the same worker twice toward consensus.
func TestSubmitAnswerRetryNeverDoubleCounts(t *testing.T) {
	_, tr, ts, seed := newQualityServer(t, 2, quality.Config{Options: 4})
	if _, err := seed.Register("w0", sixKeywords(0)); err != nil {
		t.Fatal(err)
	}

	lossy, calls := lostResponseHandler(1, ts.Config.Handler)
	fs := httptest.NewServer(lossy)
	t.Cleanup(fs.Close)
	client := NewClient(fs.URL, fs.Client(), fastRetry(4), WithIdempotency())

	res, err := client.SubmitAnswer("w0", "t-retry", 1)
	if err != nil {
		t.Fatalf("keyed SubmitAnswer through a lost response: %v", err)
	}
	if res.Resolved {
		t.Fatalf("single vote at k=2 resolved: %+v", res)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2 (apply + replay)", got)
	}
	st := tr.Stats()
	if st.AnswersSubmitted != 1 || st.PendingPartial != 1 {
		t.Fatalf("retried answer double-counted: %+v", st)
	}
	if !st.Conserved() {
		t.Fatalf("conservation broken by retry: %+v", st)
	}

	// Sanity check the counter-factual: an unkeyed client re-sending the
	// same vote is refused as a conflict, proving the keyed path was the
	// replay and not a lucky duplicate acceptance.
	bare := NewClient(fs.URL, fs.Client())
	if _, err := bare.SubmitAnswer("w0", "t-retry", 1); !IsAnswerConflict(err) {
		t.Fatalf("unkeyed duplicate: %v, want 409 conflict", err)
	}
	if st := tr.Stats(); st.AnswersSubmitted != 1 {
		t.Fatalf("conflict leaked into accounting: %+v", st)
	}
}

// TestQualityRefusesReuploadOfAnsweredTask: the engine takes a task ID
// again once its replicas have completed, but the tracker keeps the
// task's answers, so the upload handler refuses a task it holds answers
// for, and offers none of its replicas.
func TestQualityRefusesReuploadOfAnsweredTask(t *testing.T) {
	const k = 2
	eng, _, _, client := newQualityServer(t, k, quality.Config{Options: 4})
	g, err := workload.NewGenerator(workload.Config{Seed: 3, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	task := g.Tasks(1, 1)[0]
	workers := []string{"w-a", "w-b"}
	for _, w := range workers {
		if _, err := client.Register(w, sixKeywords(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.AddTasks([]*core.Task{task}); err != nil {
		t.Fatal(err)
	}
	// Both replicas are assigned; completing them releases their IDs.
	completed := 0
	for _, w := range workers {
		views, err := client.Tasks(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if _, err := client.Complete(w, v.ID); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != k {
		t.Fatalf("completed %d replicas, want %d", completed, k)
	}
	if _, err := client.SubmitAnswer("w-a", task.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.AddTasks([]*core.Task{task}); err == nil {
		t.Fatal("re-upload of an answered task accepted")
	}
	if st := eng.Stats(); st.Submitted != k || st.Completed != k {
		t.Fatalf("engine submitted %d, completed %d, want %d and %d", st.Submitted, st.Completed, k, k)
	}
}
