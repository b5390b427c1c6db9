package platform

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"github.com/htacs/ata/internal/quality"
)

// Quality-layer handlers: the answer/reputation surface of the streaming
// modes. All three endpoints go through ServerConfig.Quality (the
// tracker), so the single-engine, sharded, and cluster StreamBackends
// serve them identically by construction — the backend is only touched
// to push reputation changes into the assignment objective (SetTrust).

// SubmitAnswerRequest is the body of POST /api/answers.
type SubmitAnswerRequest struct {
	Worker string `json:"worker"`
	TaskID string `json:"task_id"`
	Option int    `json:"option"`
}

func (s *Server) handleSubmitAnswer(w http.ResponseWriter, r *http.Request) {
	var req SubmitAnswerRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("platform: bad request: %w", err))
		return
	}
	res, err := s.cfg.Quality.SubmitPush(req.Worker, req.TaskID, req.Option, func(trust float64) {
		// A gold grade moved the worker's reputation: push the new trust
		// multiplier into the assignment engine (0 = quarantined, assign
		// nothing), in grading order. Best-effort — the worker may have
		// departed, and the next grade pushes again.
		_, _ = s.cfg.Shards.SetTrust(req.Worker, trust)
	})
	if err != nil {
		writeErr(w, answerErrStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// answerErrStatus maps quality-layer rejections onto HTTP statuses.
// ErrDuplicateVote and ErrTaskResolved are conflicts (409): a retried
// request that lost its response in flight hits them, which is why
// clients built WithIdempotency dedup POST /api/answers by key instead
// (the replayed response then reports the original outcome).
func answerErrStatus(err error) int {
	switch {
	case errors.Is(err, quality.ErrQuarantined):
		return http.StatusForbidden
	case errors.Is(err, quality.ErrDuplicateVote), errors.Is(err, quality.ErrTaskResolved):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// AnswersView is the body of GET /api/answers: the consensus list under
// the tracker's configured aggregation method plus the conservation
// accounting.
type AnswersView struct {
	Method  quality.Method           `json:"method"`
	Answers []quality.ResolvedAnswer `json:"answers"`
	Stats   quality.Stats            `json:"stats"`
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, AnswersView{
		Method:  s.cfg.Quality.Method(),
		Answers: s.cfg.Quality.Answers(),
		Stats:   s.cfg.Quality.Stats(),
	})
}

// ReputationView is the body of GET /api/workers/{id}/reputation: the
// tracker's reputation record plus the trust multiplier the assignment
// engine currently applies (they agree except in the instant between a
// gold grade and its SetTrust push, or when the worker departed).
type ReputationView struct {
	quality.Reputation
	EngineTrust float64 `json:"engine_trust"`
}

func (s *Server) handleReputation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep, ok := s.cfg.Quality.Reputation(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("platform: no answers from worker %q", id))
		return
	}
	view := ReputationView{Reputation: rep, EngineTrust: rep.Trust}
	if t, err := s.cfg.Shards.Trust(id); err == nil {
		view.EngineTrust = t
	}
	writeJSON(w, http.StatusOK, view)
}

// SubmitAnswer submits one answer to a task (replica IDs from the
// assigned task views are fine — the server strips the suffix). Safe to
// retry on clients built WithIdempotency: the server dedups by key.
func (c *Client) SubmitAnswer(worker, taskID string, option int) (*quality.SubmitResult, error) {
	var out quality.SubmitResult
	err := c.do(http.MethodPost, "/api/answers",
		SubmitAnswerRequest{Worker: worker, TaskID: taskID, Option: option}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Answers fetches the aggregated consensus for every resolved task.
func (c *Client) Answers() (*AnswersView, error) {
	var out AnswersView
	if err := c.do(http.MethodGet, "/api/answers", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reputation fetches a worker's trust state.
func (c *Client) Reputation(workerID string) (*ReputationView, error) {
	var out ReputationView
	if err := c.do(http.MethodGet, "/api/workers/"+workerID+"/reputation", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IsAnswerConflict reports whether the error is the server rejecting a
// duplicate or late answer (HTTP 409) — benign for at-least-once
// submitters: the answer is already counted or the task already resolved.
func IsAnswerConflict(err error) bool {
	return err != nil && strings.Contains(err.Error(), "(HTTP 409)")
}
