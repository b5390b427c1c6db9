package platform

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/htacs/ata/internal/adaptive"
	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
)

// TestValidationParity sends the same invalid requests to a batch and a
// streaming server through ServeHTTP: each must answer 400 with the same
// error envelope from either backend, and leave no worker behind.
func TestValidationParity(t *testing.T) {
	engine, err := adaptive.NewEngine(adaptive.Config{Xmax: 3})
	if err != nil {
		t.Fatal(err)
	}
	batchSrv, err := NewServer(ServerConfig{Engine: engine, Universe: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := shard.New(shard.Config{
		Shards: 2, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 3, BufferLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	streamSrv, err := NewServer(ServerConfig{Shards: eng, Universe: universe, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}

	const worker = `{"id":"w1","keywords":[0,1,2,3,4,5]`
	cases := []struct {
		name, path, body string
		want             string // substring of the error message
	}{
		{"malformed JSON", "/api/workers", `{"id":`, "platform: bad request: "},
		{"trailing bytes", "/api/workers", worker + `} junk`, "platform: bad request: "},
		{"fewer than 6 keywords", "/api/workers", `{"id":"w1","keywords":[0,1,2]}`,
			"platform: worker must choose at least 6 keywords, got 3"},
		{"keyword outside universe", "/api/workers", `{"id":"w1","keywords":[0,1,2,3,4,100]}`,
			"platform: keyword 100 outside universe"},
		{"task keyword outside universe", "/api/tasks", `{"tasks":[{"id":"t1","keywords":[100]}]}`,
			`platform: task "t1" keyword 100 outside universe`},
		{"negative deadline_ms", "/api/tasks", `{"tasks":[{"id":"t1","keywords":[1],"deadline_ms":-5}]}`,
			`platform: task "t1" deadline_ms -5 is negative`},
		{"negative window_ms", "/api/workers", worker + `,"window_ms":-5}`,
			"platform: window_ms -5 is negative"},
	}
	serve := func(srv *Server, method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := serve(batchSrv, http.MethodPost, c.path, c.body)
			s := serve(streamSrv, http.MethodPost, c.path, c.body)
			if b.Code != http.StatusBadRequest || s.Code != http.StatusBadRequest {
				t.Fatalf("status: batch %d, streaming %d, want 400 from both", b.Code, s.Code)
			}
			if b.Body.String() != s.Body.String() {
				t.Fatalf("envelopes differ:\n batch     %s streaming %s", b.Body, s.Body)
			}
			var e apiError
			if err := json.Unmarshal(b.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, c.want) {
				t.Fatalf("envelope %s (decode err %v), want an error containing %q", b.Body, err, c.want)
			}
		})
	}
	for name, srv := range map[string]*Server{"batch": batchSrv, "streaming": streamSrv} {
		if rec := serve(srv, http.MethodGet, "/api/workers/w1/tasks", ""); rec.Code != http.StatusNotFound {
			t.Errorf("%s: a rejected registration left worker w1 behind (GET tasks: %d)", name, rec.Code)
		}
	}
}
