// Package platform exposes the paper's crowdsourcing workflow (Figure 4)
// as an HTTP service: workers register with their keywords, receive their
// assigned task set T_w, and notify the platform as they complete tasks.
//
// One handler set serves the endpoints over either of two engines, each
// behind the unexported backend interface:
//
//   - batch (batch.go): the adaptive engine. An assignment service
//     monitors all workers at once and decides when a new assignment
//     iteration must occur, following the paper's rationale: (i) keep the
//     system stable by not re-assigning too frequently, (ii) gather enough
//     completions to estimate each worker's (α, β), and (iii) define the
//     set of available workers W^i per iteration. Display sets carry done
//     flags and, with a question bank, graded questions.
//   - streaming (sharded.go): a StreamBackend, the in-process shard engine
//     or the cluster gateway. Every request is one per-event decision, with
//     optional task redundancy and the answer-quality layer (quality.go).
//
// The package contains both the Server (an http.Handler) and a typed
// Client, so the examples and tests can run the full loop in-process with
// net/http/httptest or across real sockets.
package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/bitset"
	"github.com/htacs/ata/internal/core"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/ops"
	"github.com/htacs/ata/internal/quality"
	"github.com/htacs/ata/internal/question"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
)

// ServerConfig parameterizes the assignment service.
type ServerConfig struct {
	// Engine is the adaptive (batch-iteration) assignment engine to drive.
	// Exactly one of Engine and Shards must be set.
	Engine *adaptive.Engine
	// Shards serves the same HTTP API from a streaming backend instead:
	// registrations, completions and departures become immediate
	// per-event decisions routed across shard actors, with no global
	// iterations. Tasks uploaded via POST /api/tasks are offered to the
	// stream one by one. Graded questions are not supported in this mode.
	// The backend is either an in-process *shard.Engine or a
	// *cluster.Gateway fronting a ring of hta-server nodes.
	Shards StreamBackend
	// Universe is the keyword universe size workers' vectors live in.
	Universe int
	// ReassignPerWorker triggers a new iteration once some worker has
	// completed this many tasks of its current set (default 10).
	ReassignPerWorker int
	// ReassignTotal triggers a new iteration once this many completions
	// accumulated since the last one (default 25).
	ReassignTotal int
	// Quality attaches the answer-quality and trust layer to the streaming
	// modes (requires Shards): POST /api/answers collects redundant
	// answers, gold probes grade workers online, and reputation changes
	// are pushed into the backend via SetTrust so the assignment objective
	// becomes relevance × diversity × trust. See internal/quality.
	Quality *quality.Tracker
	// Redundancy replicates each task uploaded via POST /api/tasks into k
	// assignment copies ("id~r0" … "id~rk-1") so k distinct workers answer
	// it. Defaults to Quality.K() when Quality is set (they must agree —
	// the tracker resolves a task at its k-th answer), else 1.
	Redundancy int
	// Questions optionally attaches graded content: workers see prompts
	// and options with their tasks, submit answers on completion, and the
	// platform grades them against the bank's ground truth — the paper's
	// quality measurement (Figure 5a).
	Questions *question.Bank
	// Metrics is the registry the server instruments itself on and exposes
	// at GET /metrics. Defaults to obs.Default(), which also carries the
	// solver/engine/stream telemetry — one scrape sees the whole pipeline.
	Metrics *obs.Registry
	// MaxBodyBytes bounds every request body (http.MaxBytesReader);
	// oversized bodies fail the JSON decode with HTTP 400. Default 8 MiB
	// (a 10k-task upload is ~1 MiB); negative disables the limit.
	MaxBodyBytes int64
	// IdempotencyCache bounds the keyed response-replay store backing
	// clients built WithIdempotency: the last N mutation responses are
	// kept per server, FIFO-evicted. Default 4096; negative disables the
	// keyed-replay path entirely (the header is then ignored).
	IdempotencyCache int
	// Tracer records request-scoped traces: every endpoint opens a root
	// span (subject to the recorder's sampling), propagated through the
	// engine into the solver phases, and sampled responses carry an
	// X-Trace-Id header. The retained traces are served at GET
	// /debug/trace alongside net/http/pprof. Defaults to trace.Default(),
	// which is disabled until given a sampling rate.
	Tracer *trace.Recorder
	// Logger emits one structured, trace-correlated line per request
	// (endpoint, status, duration) plus the engine's debug logs. Nil
	// disables request logging.
	Logger *slog.Logger
	// Journal is the operational event journal served at GET /api/events
	// and scored by GET /healthz?verbose=1. Defaults to ops.Default(), the
	// process-wide journal the shard and quality layers record into.
	Journal *ops.Journal
	// Health tunes the verbose-healthz scoring (window and per-event
	// penalty weights). Zero value = ops defaults.
	Health ops.HealthConfig
}

// Server implements the assignment service: one handler per endpoint,
// with the engine-dependent half of each behind be.
type Server struct {
	cfg   ServerConfig
	be    backend
	mux   *http.ServeMux
	drain drainState
	idem  *idemCache
}

// backend is the engine-dependent half of every endpoint: one method per
// verb, each returning the view its handler writes. An error carries the
// HTTP status it answers with (withStatus). A backend is safe for
// concurrent use.
type backend interface {
	addTasks(ctx context.Context, tasks []*core.Task) (any, error)
	register(ctx context.Context, w *core.Worker) ([]TaskView, error)
	tasks(id string) ([]TaskView, error)
	complete(ctx context.Context, id string, req completeRequest) (CompleteResponse, error)
	leave(ctx context.Context, id string) (any, error)
	stats() any
	snapshot(w io.Writer) error
}

// windower is the verb of POST /api/workers/{id}/window, served only by a
// backend that routes by availability windows; until is UnixNano, 0
// clears.
type windower interface {
	setWindow(id string, until int64) error
}

// NewServer validates the configuration and builds the HTTP handler.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil && cfg.Shards == nil {
		return nil, errors.New("platform: nil engine")
	}
	if cfg.Engine != nil && cfg.Shards != nil {
		return nil, errors.New("platform: exactly one of Engine and Shards may be set")
	}
	if cfg.Shards != nil && cfg.Questions != nil {
		return nil, errors.New("platform: graded questions are not supported with the sharded streaming engine")
	}
	if cfg.Quality != nil && cfg.Shards == nil {
		return nil, errors.New("platform: the quality layer requires the streaming backend (Shards)")
	}
	if cfg.Quality != nil {
		if cfg.Redundancy == 0 {
			cfg.Redundancy = cfg.Quality.K()
		}
		if cfg.Redundancy != cfg.Quality.K() {
			return nil, fmt.Errorf("platform: Redundancy = %d but the quality tracker resolves at k = %d",
				cfg.Redundancy, cfg.Quality.K())
		}
	}
	if cfg.Redundancy == 0 {
		cfg.Redundancy = 1
	}
	if cfg.Redundancy < 1 {
		return nil, fmt.Errorf("platform: Redundancy = %d", cfg.Redundancy)
	}
	if cfg.Redundancy > 1 && cfg.Shards == nil {
		return nil, errors.New("platform: redundancy requires the streaming backend (Shards)")
	}
	if cfg.Universe < 1 {
		return nil, fmt.Errorf("platform: Universe = %d", cfg.Universe)
	}
	if cfg.ReassignPerWorker == 0 {
		cfg.ReassignPerWorker = 10
	}
	if cfg.ReassignTotal == 0 {
		cfg.ReassignTotal = 25
	}
	if cfg.ReassignPerWorker < 1 || cfg.ReassignTotal < 1 {
		return nil, errors.New("platform: reassignment thresholds must be >= 1")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Tracer == nil {
		cfg.Tracer = trace.Default()
	}
	if cfg.Journal == nil {
		cfg.Journal = ops.Default()
	}
	// Pre-register the rest of the pipeline's metric families (the
	// streaming assigner's; the solver's register at package init, the
	// engine's in NewEngine) so the /metrics surface is stable: one scrape
	// shows every family, zero-valued until exercised, instead of series
	// popping into existence mid-run.
	stream.NewMetrics(cfg.Metrics)
	if cfg.IdempotencyCache == 0 {
		cfg.IdempotencyCache = 4096
	}
	s := &Server{cfg: cfg}
	if cfg.IdempotencyCache > 0 {
		s.idem = newIdemCache(cfg.IdempotencyCache)
	}
	handlers := map[string]http.HandlerFunc{
		"POST /api/tasks":                 s.handleAddTasks,
		"POST /api/workers":               s.handleRegister,
		"GET /api/workers/{id}/tasks":     s.handleTasks,
		"POST /api/workers/{id}/complete": s.handleComplete,
		"DELETE /api/workers/{id}":        s.handleLeave,
		"GET /api/stats":                  s.handleStats,
	}
	if cfg.Shards != nil {
		st := &streaming{eng: cfg.Shards, quality: cfg.Quality, redundancy: cfg.Redundancy}
		s.be = st
		if cfg.Quality != nil {
			handlers["POST /api/answers"] = st.handleSubmitAnswer
			handlers["GET /api/answers"] = st.handleAnswers
			handlers["GET /api/workers/{id}/reputation"] = st.handleReputation
		}
	} else {
		s.be = &batch{
			eng: cfg.Engine, questions: cfg.Questions,
			perWorkerLimit: cfg.ReassignPerWorker, totalLimit: cfg.ReassignTotal,
			perWorker: make(map[string]int),
		}
	}
	if _, ok := s.be.(windower); ok {
		handlers["POST /api/workers/{id}/window"] = s.handleWindow
	}
	mux := http.NewServeMux()
	for pattern, h := range handlers {
		if s.idem != nil && !strings.HasPrefix(pattern, "GET ") {
			// Mutations gain keyed replay for clients opting into retries.
			h = s.idempotent(h)
		}
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	s.registerObsRoutes(mux)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Snapshot serializes the backing engine's state; safe to call
// concurrently with request handling (e.g. from a shutdown signal
// handler). With a sharded backend the shard engine quiesces all actors
// itself, producing one globally consistent merged document.
func (s *Server) Snapshot(w io.Writer) error { return s.be.snapshot(w) }

// AddTasks is the platform's one task intake: POST /api/tasks and
// hta-server's -tasks preload both offer through it. The result is the
// endpoint's response body: {"pool_size": n} from the batch engine, an
// AddTasksResult from a streaming backend. A rejected task stops the
// intake; the tasks before it stay offered.
func (s *Server) AddTasks(ctx context.Context, tasks []*core.Task) (any, error) {
	return s.be.addTasks(ctx, tasks)
}

// TaskView is the wire form of an assigned task.
type TaskView struct {
	ID        string         `json:"id"`
	Group     string         `json:"group,omitempty"`
	Reward    float64        `json:"reward"`
	Keywords  []int          `json:"keywords"`
	Done      bool           `json:"done"`
	Questions []QuestionView `json:"questions,omitempty"`
	// DeadlineMS is the task's absolute Unix-millisecond expiry (0 =
	// none); only a streaming backend expires tasks.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// QuestionView is a question as shown to workers — no ground truth.
type QuestionView struct {
	ID      string   `json:"id"`
	Prompt  string   `json:"prompt"`
	Options []string `json:"options"`
}

// WorkerView is the wire form of a worker's state.
type WorkerView struct {
	ID        string  `json:"id"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	Completed int     `json:"completed"`
	Available bool    `json:"available"`
}

// StatsView is the wire form of /api/stats.
type StatsView struct {
	Iteration int          `json:"iteration"`
	PoolSize  int          `json:"pool_size"`
	Workers   []WorkerView `json:"workers"`
	// Graded/Correct accumulate over all graded answers when the platform
	// has a question bank; QualityPercent = 100·Correct/Graded.
	Graded         int     `json:"graded"`
	Correct        int     `json:"correct"`
	QualityPercent float64 `json:"quality_percent"`
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// jsonBufPool recycles the encode/decode scratch of the hot handlers
// (offer, complete, stats): responses are marshalled into a pooled buffer
// and written in one call, request bodies are slurped through a pooled
// buffer before unmarshalling — steady-state traffic allocates no fresh
// buffers per request.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getJSONBuf() *bytes.Buffer {
	b := jsonBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putJSONBuf(b *bytes.Buffer) {
	if b.Cap() > 1<<20 { // don't pin one-off giant bodies in the pool
		return
	}
	jsonBufPool.Put(b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if b, ok := appendWire(buf.AvailableBuffer(), v); ok {
		buf.Write(append(b, '\n'))
	} else if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// readJSON decodes a request body through pooled scratch, with the wire
// codec's fast path and json.Unmarshal for whatever it declines.
func readJSON(r *http.Request, v any) error {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return err
	}
	if decodeWire(buf.Bytes(), v) {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// statusError is a backend error with the HTTP status it answers with;
// its message is the wrapped error's own.
type statusError struct {
	code int
	error
}

func (e statusError) Unwrap() error { return e.error }

func withStatus(code int, err error) error { return statusError{code, err} }

// reply writes v with status, or err under the status its backend chose.
func reply(w http.ResponseWriter, status int, v any, err error) {
	if err != nil {
		code := http.StatusInternalServerError
		var se statusError
		if errors.As(err, &se) {
			code = se.code
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, status, v)
}

// decode reads the request body into v, answering 400 itself on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := readJSON(r, v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return false
	}
	return true
}

// taskUpload is one task of POST /api/tasks. DeadlineMS is the absolute
// Unix-millisecond instant after which the task is worthless (0 = never);
// only a streaming backend acts on it — buffered tasks past their
// deadline are expired, journaled and counted, never silently dropped.
type taskUpload struct {
	ID         string  `json:"id"`
	Group      string  `json:"group"`
	Reward     float64 `json:"reward"`
	Keywords   []int   `json:"keywords"`
	DeadlineMS int64   `json:"deadline_ms,omitempty"`
}

// addTasksRequest is the body of POST /api/tasks.
type addTasksRequest struct {
	Tasks []taskUpload `json:"tasks"`
}

// tasks validates the upload against the keyword universe and builds
// its tasks.
func (req *addTasksRequest) tasks(universe int) ([]*core.Task, error) {
	tasks := make([]*core.Task, 0, len(req.Tasks))
	for _, t := range req.Tasks {
		for _, k := range t.Keywords {
			if k < 0 || k >= universe {
				return nil, fmt.Errorf("platform: task %q keyword %d outside universe", t.ID, k)
			}
		}
		if t.DeadlineMS < 0 {
			return nil, fmt.Errorf("platform: task %q deadline_ms %d is negative", t.ID, t.DeadlineMS)
		}
		tasks = append(tasks, &core.Task{
			ID: t.ID, Group: t.Group, Reward: t.Reward,
			Keywords: bitset.FromIndices(universe, t.Keywords...),
			Deadline: t.DeadlineMS * int64(time.Millisecond),
		})
	}
	return tasks, nil
}

// registerRequest is the body of POST /api/workers. The paper's platform
// asks each worker to choose at least 6 keywords before entering a session.
// WindowMS optionally declares when the worker expects to leave (absolute
// Unix milliseconds); a streaming backend uses it to keep imminent
// deadlines away from departing workers.
type registerRequest struct {
	ID       string `json:"id"`
	Keywords []int  `json:"keywords"`
	WindowMS int64  `json:"window_ms,omitempty"`
}

// worker validates the registration and builds its worker.
func (req *registerRequest) worker(universe int) (*core.Worker, error) {
	if len(req.Keywords) < 6 {
		return nil, fmt.Errorf("platform: worker must choose at least 6 keywords, got %d", len(req.Keywords))
	}
	for _, k := range req.Keywords {
		if k < 0 || k >= universe {
			return nil, fmt.Errorf("platform: keyword %d outside universe", k)
		}
	}
	if err := checkWindow(req.WindowMS); err != nil {
		return nil, err
	}
	return &core.Worker{
		ID: req.ID, Alpha: 0.5, Beta: 0.5,
		Keywords: bitset.FromIndices(universe, req.Keywords...),
	}, nil
}

// windowRequest is the body of POST /api/workers/{id}/window: an
// availability-window declaration after registration (absolute Unix
// milliseconds; 0 clears it).
type windowRequest struct {
	WindowMS int64 `json:"window_ms"`
}

func checkWindow(ms int64) error {
	if ms < 0 {
		return fmt.Errorf("platform: window_ms %d is negative", ms)
	}
	return nil
}

// completeRequest is the body of POST /api/workers/{id}/complete.
type completeRequest struct {
	TaskID  string   `json:"task_id"`
	Answers []Answer `json:"answers,omitempty"`
}

// Answer is one submitted response to a task question.
type Answer struct {
	QuestionID string `json:"question_id"`
	Option     int    `json:"option"`
}

// CompleteResponse reports whether the completion changed the display set
// beyond the removal (a new iteration, or a buffered task pulled into the
// freed slot), the worker's weights, and the task set.
type CompleteResponse struct {
	Reassigned bool       `json:"reassigned"`
	Alpha      float64    `json:"alpha"`
	Beta       float64    `json:"beta"`
	Graded     int        `json:"graded"`
	Correct    int        `json:"correct"`
	Tasks      []TaskView `json:"tasks"`
}

// taskView renders a task; the batch backend adds done flags and
// questions.
func taskView(t *core.Task) TaskView {
	return TaskView{
		ID: t.ID, Group: t.Group, Reward: t.Reward,
		Keywords:   t.Keywords.Indices(),
		DeadlineMS: t.Deadline / int64(time.Millisecond),
	}
}

// The handler set: each endpoint decodes through readJSON, validates
// through the helpers above, hands its verb to the backend and writes the
// returned view through writeJSON.

func (s *Server) handleAddTasks(w http.ResponseWriter, r *http.Request) {
	var req addTasksRequest
	if !decode(w, r, &req) {
		return
	}
	tasks, err := req.tasks(s.cfg.Universe)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.AddTasks(r.Context(), tasks)
	reply(w, http.StatusOK, res, err)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decode(w, r, &req) {
		return
	}
	worker, err := req.worker(s.cfg.Universe)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	views, err := s.be.register(r.Context(), worker)
	if wd, ok := s.be.(windower); ok && err == nil && req.WindowMS > 0 {
		// Advisory: the worker registered fine; if it raced its own
		// departure the declaration has nothing to bias any more.
		_ = wd.setWindow(worker.ID, req.WindowMS*int64(time.Millisecond))
	}
	reply(w, http.StatusCreated, views, err)
}

func (s *Server) handleTasks(w http.ResponseWriter, r *http.Request) {
	views, err := s.be.tasks(r.PathValue("id"))
	reply(w, http.StatusOK, views, err)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decode(w, r, &req) {
		return
	}
	res, err := s.be.complete(r.Context(), r.PathValue("id"), req)
	reply(w, http.StatusOK, res, err)
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	res, err := s.be.leave(r.Context(), r.PathValue("id"))
	reply(w, http.StatusOK, res, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.be.stats())
}

func (s *Server) handleWindow(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if !decode(w, r, &req) {
		return
	}
	if err := checkWindow(req.WindowMS); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id := r.PathValue("id")
	err := s.be.(windower).setWindow(id, req.WindowMS*int64(time.Millisecond))
	reply(w, http.StatusOK, map[string]any{"worker": id, "window_ms": req.WindowMS}, err)
}

// Client is a typed HTTP client for the assignment service.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	idemState
}

// NewClient targets a server base URL, e.g. "http://127.0.0.1:8080".
func NewClient(baseURL string, hc *http.Client, opts ...ClientOption) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: hc}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) do(method, path string, body, out any) error {
	return c.doCtx(context.Background(), method, path, body, out)
}

// doCtx issues one API request. Idempotent GETs are retried per the
// client's RetryPolicy (see retry.go); mutations get exactly one attempt
// unless the client was built WithIdempotency — then each carries a
// fresh idempotency key and retries under the same policy, with the
// server deduplicating by key (see idempotency.go).
func (c *Client) doCtx(ctx context.Context, method, path string, body, out any) error {
	payload, ok := appendWire(nil, body)
	if !ok && body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("platform: encoding request: %w", err)
		}
	}
	attempts := 1
	var idemKey string
	if method == http.MethodGet {
		attempts = c.retry.attempts()
	} else if c.idempotent {
		attempts = c.retry.attempts()
		idemKey = c.newIdempotencyKey()
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.retry.backoff(ctx, attempt); err != nil {
				return lastErr
			}
		}
		retryable, err := c.attempt(ctx, method, path, payload, idemKey, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// attempt runs a single HTTP round trip. retryable reports whether the
// failure is transient (network error or 5xx) — the only class a retry
// can help with; 4xx responses are the caller's bug and returned at once.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, idemKey string, out any) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set(idempotencyHeader, idemKey)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Transport-level failure: connection refused/reset, timeout. Not
		// retryable when the context itself is done.
		return ctx.Err() == nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode >= 400 {
		var apiErr apiError
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return resp.StatusCode >= 500, fmt.Errorf("platform: %s %s: %s (HTTP %d)", method, path, apiErr.Error, resp.StatusCode)
		}
		return resp.StatusCode >= 500, fmt.Errorf("platform: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return false, nil
	}
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err == nil && decodeWire(buf.Bytes(), out) {
		return false, nil
	}
	// Declined or cut short: encoding/json decodes what was read and then
	// whatever the body still yields, as it would from the body itself.
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf.Bytes()), resp.Body)).Decode(out); err != nil {
		return false, fmt.Errorf("platform: decoding response: %w", err)
	}
	return false, nil
}

// maxDrain caps how much of a response body drainClose reads after the
// caller is done with it; past the cap the body is closed, and the
// connection with it.
const maxDrain = 64 << 10

// drainClose reads a response body to EOF, up to maxDrain bytes, and
// closes it. net/http returns a keep-alive connection to its idle pool
// only once the body has reached EOF; a body closed unread (a response the
// caller ignores, an error, a JSON decode that stops before a chunked
// body's terminator) closes the connection, and the next call dials again.
func drainClose(body io.ReadCloser) {
	// A failed read only costs the connection, which Close then drops.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	body.Close()
}

// AddTasks uploads tasks to the pool.
func (c *Client) AddTasks(tasks []*core.Task) error {
	var req addTasksRequest
	for _, t := range tasks {
		req.Tasks = append(req.Tasks, taskUpload{
			ID: t.ID, Group: t.Group, Reward: t.Reward,
			Keywords:   t.Keywords.Indices(),
			DeadlineMS: t.Deadline / int64(time.Millisecond),
		})
	}
	return c.do(http.MethodPost, "/api/tasks", req, nil)
}

// Register enrolls a worker (≥ 6 keywords) and returns the first task set.
func (c *Client) Register(id string, keywords []int) ([]TaskView, error) {
	var out []TaskView
	err := c.do(http.MethodPost, "/api/workers", registerRequest{ID: id, Keywords: keywords}, &out)
	return out, err
}

// Tasks fetches the worker's current display set.
func (c *Client) Tasks(id string) ([]TaskView, error) {
	var out []TaskView
	err := c.do(http.MethodGet, "/api/workers/"+id+"/tasks", nil, &out)
	return out, err
}

// Complete reports a finished task; the response carries the refreshed
// weight estimates and (possibly re-assigned) task set.
func (c *Client) Complete(id, taskID string) (*CompleteResponse, error) {
	return c.CompleteWithAnswers(id, taskID, nil)
}

// CompleteWithAnswers reports a finished task together with the worker's
// answers to its graded questions.
func (c *Client) CompleteWithAnswers(id, taskID string, answers []Answer) (*CompleteResponse, error) {
	var out CompleteResponse
	err := c.do(http.MethodPost, "/api/workers/"+id+"/complete",
		completeRequest{TaskID: taskID, Answers: answers}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Leave marks the worker unavailable for future iterations.
func (c *Client) Leave(id string) error {
	return c.do(http.MethodDelete, "/api/workers/"+id, nil, nil)
}

// Stats fetches platform statistics.
func (c *Client) Stats() (*StatsView, error) {
	var out StatsView
	if err := c.do(http.MethodGet, "/api/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
