package platform

import (
	"bufio"
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestRequestCounterSeries checks hta_http_requests_total over a mix of
// 2xx and 4xx responses: one series per endpoint and code actually
// served, none for a code never served, and exact counts.
func TestRequestCounterSeries(t *testing.T) {
	_, client := newShardedServer(t, 1, 0)
	do := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, client.base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: HTTP %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	do("GET", "/api/workers/w1/tasks", "", 404)
	do("POST", "/api/workers", `{"id":"w1","keywords":[1,2,3,4,5,6]}`, 201)
	do("POST", "/api/workers", `{"id":"w2","keywords":[1,2,3]}`, 400)
	do("POST", "/api/workers", `{"id":"w1","keywords":[1,2,3,4,5,6]}`, 409)
	do("POST", "/api/workers", `{"id":"w3","keywords":[1,2,3,4,5,6]}`, 201)
	do("POST", "/api/tasks", `{"tasks":[{"id":"t1","group":"g","reward":1,"keywords":[1,2]}]}`, 200)
	do("POST", "/api/tasks", `{"tasks":[{"id":"t2","group":"g","reward":1,"keywords":[100]}]}`, 400)
	do("GET", "/api/workers/w1/tasks", "", 200)
	do("GET", "/api/workers/w3/tasks", "", 200)
	do("GET", "/api/workers/w9/tasks", "", 404)
	do("POST", "/api/workers/w9/complete", `{"task_id":"t1"}`, 404)
	do("POST", "/api/workers/w1/complete", `{"task_id":`, 400)
	do("DELETE", "/api/workers/w3", "", 200)

	resp, err := client.http.Get(client.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Bytes(); bytes.HasPrefix(line, []byte("hta_http_requests_total{")) {
			got = append(got, string(line))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		`hta_http_requests_total{code="200",endpoint="DELETE /api/workers/{id}"} 1`,
		`hta_http_requests_total{code="200",endpoint="GET /api/workers/{id}/tasks"} 2`,
		`hta_http_requests_total{code="200",endpoint="POST /api/tasks"} 1`,
		`hta_http_requests_total{code="201",endpoint="POST /api/workers"} 2`,
		`hta_http_requests_total{code="400",endpoint="POST /api/tasks"} 1`,
		`hta_http_requests_total{code="400",endpoint="POST /api/workers"} 1`,
		`hta_http_requests_total{code="400",endpoint="POST /api/workers/{id}/complete"} 1`,
		`hta_http_requests_total{code="404",endpoint="GET /api/workers/{id}/tasks"} 2`,
		`hta_http_requests_total{code="404",endpoint="POST /api/workers/{id}/complete"} 1`,
		`hta_http_requests_total{code="409",endpoint="POST /api/workers"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("request counters:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
