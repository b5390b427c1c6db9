package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// jsonEncode is the reference: what writeJSON sent before the wire codec.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkEncode asserts the wire encoder's bytes equal encoding/json's, both
// as a response (with json.Encoder's newline) and as a request body.
func checkEncode(t *testing.T, v any) {
	t.Helper()
	got, ok := appendWire(nil, v)
	if !ok {
		t.Fatalf("appendWire declined %#v", v)
	}
	if want := jsonEncode(t, v); !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("wire bytes differ from encoding/json:\n got %s\nwant %s", got, want)
	}
	if want, _ := json.Marshal(v); !bytes.Equal(got, want) {
		t.Fatalf("wire bytes differ from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// wireStrings are the string edge cases: HTML characters, quotes and
// backslashes, control characters, the JS line separators, invalid UTF-8,
// DEL and non-ASCII.
var wireStrings = []string{
	"", "t1", "<>&", `"\`, "a\x00b\x1f", "\t\n\r", "\u2028\u2029", "\xff\xfe", "bad\xc3", "\x7f", "é✓",
}

// wireRewards are the float edge cases, both sides of each format switch.
var wireRewards = []float64{
	0, math.Copysign(0, -1), 1e-7, 3e21, 0.1 + 0.2, 1e21, 1e-6, 999999999999999900000,
	-1.5e-10, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, -2,
}

// genString draws an ID: mostly plain, sometimes an edge case.
func genString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return wireStrings[rng.Intn(len(wireStrings))]
	}
	return fmt.Sprintf("t%d", rng.Intn(1e6))
}

func genFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return wireRewards[rng.Intn(len(wireRewards))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // non-finite now and then
	}
	return rng.Float64() * 10
}

func genInts(rng *rand.Rand) []int {
	switch rng.Intn(5) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	ks := make([]int, rng.Intn(8))
	for i := range ks {
		ks[i] = rng.Intn(200) - 5
	}
	return ks
}

func genTaskView(rng *rand.Rand) TaskView {
	v := TaskView{ID: genString(rng), Reward: genFloat(rng), Keywords: genInts(rng), Done: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		v.Group = genString(rng)
	}
	if rng.Intn(3) == 0 {
		v.DeadlineMS = rng.Int63() - rng.Int63()
	}
	switch rng.Intn(4) {
	case 0:
		v.Questions = []QuestionView{}
	case 1:
		for i := rng.Intn(3); i >= 0; i-- {
			q := QuestionView{ID: genString(rng), Prompt: genString(rng)}
			if rng.Intn(3) > 0 {
				q.Options = []string{}
				for j := rng.Intn(4); j > 0; j-- {
					q.Options = append(q.Options, genString(rng))
				}
			}
			v.Questions = append(v.Questions, q)
		}
	}
	return v
}

func genTaskViews(rng *rand.Rand) []TaskView {
	if rng.Intn(6) == 0 {
		return nil
	}
	vs := make([]TaskView, rng.Intn(6))
	for i := range vs {
		vs[i] = genTaskView(rng)
	}
	return vs
}

// genWireValue draws a value of one of the codec's four types.
func genWireValue(rng *rand.Rand) any {
	switch rng.Intn(4) {
	case 0:
		return genTaskViews(rng)
	case 1:
		return CompleteResponse{
			Reassigned: rng.Intn(2) == 0, Alpha: genFloat(rng), Beta: genFloat(rng),
			Graded: rng.Intn(10) - 2, Correct: rng.Intn(10), Tasks: genTaskViews(rng),
		}
	case 2:
		req := completeRequest{TaskID: genString(rng)}
		switch rng.Intn(3) {
		case 0:
			req.Answers = []Answer{}
		case 1:
			for i := rng.Intn(3); i >= 0; i-- {
				req.Answers = append(req.Answers, Answer{QuestionID: genString(rng), Option: rng.Intn(9) - 1})
			}
		}
		return req
	}
	var req addTasksRequest
	if rng.Intn(5) > 0 {
		req.Tasks = []taskUpload{}
		for i := rng.Intn(5); i > 0; i-- {
			v := genTaskView(rng)
			req.Tasks = append(req.Tasks, taskUpload{ID: v.ID, Group: v.Group, Reward: v.Reward, Keywords: v.Keywords, DeadlineMS: v.DeadlineMS})
		}
	}
	return req
}

func finite(v any) bool {
	_, err := json.Marshal(v)
	return err == nil
}

func TestWireEncodeMatchesJSON(t *testing.T) {
	for _, s := range wireStrings {
		checkEncode(t, []TaskView{{ID: s, Group: s, Keywords: []int{1}}})
		checkEncode(t, completeRequest{TaskID: s, Answers: []Answer{{QuestionID: s, Option: 2}}})
		checkEncode(t, addTasksRequest{Tasks: []taskUpload{{ID: s, Group: s}}})
		checkEncode(t, []TaskView{{ID: "q", Questions: []QuestionView{{ID: s, Prompt: s, Options: []string{s, s}}}}})
	}
	for _, r := range wireRewards {
		checkEncode(t, []TaskView{{ID: "t", Reward: r}, {ID: "u", Reward: -r}})
		checkEncode(t, CompleteResponse{Alpha: r, Beta: -r})
		checkEncode(t, addTasksRequest{Tasks: []taskUpload{{ID: "t", Reward: r}}})
	}
	for _, v := range []any{
		[]TaskView(nil), []TaskView{},
		[]TaskView{{ID: "nil"}, {ID: "empty", Keywords: []int{}}, {ID: "some", Keywords: []int{0, 7, 99}}},
		[]TaskView{{ID: "batch", Group: "g", Reward: 1.5, Keywords: []int{1, 2}, Done: true, Questions: []QuestionView{
			{ID: "q1", Prompt: "Which?", Options: []string{"a", "b"}}, {ID: "q2"}, {ID: "q3", Options: []string{}},
		}}},
		[]TaskView{{ID: "empty questions", Questions: []QuestionView{}}},
		[]TaskView{{ID: "deadline", DeadlineMS: 1_760_000_000_123}, {ID: "negative", DeadlineMS: -1}, {ID: "max", DeadlineMS: math.MaxInt64}},
		CompleteResponse{}, CompleteResponse{Reassigned: true, Alpha: 0.5, Beta: 0.5, Graded: 3, Correct: 2, Tasks: []TaskView{}},
		completeRequest{}, completeRequest{TaskID: "t", Answers: []Answer{}},
		addTasksRequest{}, addTasksRequest{Tasks: []taskUpload{}},
		addTasksRequest{Tasks: []taskUpload{{ID: "t", Keywords: nil}, {ID: "u", Keywords: []int{}, DeadlineMS: 5}}},
	} {
		checkEncode(t, v)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		v := genWireValue(rng)
		if finite(v) {
			checkEncode(t, v)
		} else if _, ok := appendWire(nil, v); ok {
			t.Fatalf("appendWire accepted a non-finite float: %#v", v)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendWire(nil, CompleteResponse{Alpha: f}); ok {
			t.Fatalf("appendWire accepted %v", f)
		}
	}
	if _, ok := appendWire(nil, registerRequest{ID: "w"}); ok {
		t.Fatal("appendWire accepted a type outside the codec")
	}
}

// wireTargets makes a fresh zero value of each decodable type.
var wireTargets = []func() any{
	func() any { return new([]TaskView) },
	func() any { return new(CompleteResponse) },
	func() any { return new(completeRequest) },
	func() any { return new(addTasksRequest) },
}

// checkDecode asserts that whatever the fast decoder accepts,
// encoding/json decodes to an equal value, and returns how many of the
// targets accepted.
func checkDecode(t *testing.T, data []byte) int {
	t.Helper()
	accepted := 0
	for _, mk := range wireTargets {
		fast, slow := mk(), mk()
		if !decodeWire(data, fast) {
			if !reflect.DeepEqual(fast, mk()) {
				t.Fatalf("declined decode of %q changed the target: %#v", data, fast)
			}
			continue
		}
		accepted++
		if err := json.Unmarshal(data, slow); err != nil {
			t.Fatalf("fast path accepted %q into %T; encoding/json: %v", data, fast, err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("decode of %q into %T:\nwire %#v\njson %#v", data, fast, fast, slow)
		}
		// DeepEqual treats -0 and 0 as equal; their encodings do not.
		if a, b := jsonEncode(t, fast), jsonEncode(t, slow); !bytes.Equal(a, b) {
			t.Fatalf("decode of %q re-encodes differently:\nwire %s\njson %s", data, a, b)
		}
	}
	return accepted
}

// declinedInputs leave the strict subset; encoding/json decides each.
var declinedInputs = []string{
	``, ` `, `null`, `[null]`, `[{"id":null}]`, `{"tasks":null}`,
	`[{"id":"t\u0031"}]`, `[{"id":"a\"b"}]`, `[{"id":"é"}]`, "[{\"id\":\"\xff\"}]", "[{\"id\":\"a\tb\"}]",
	`[{"ID":"t1"}]`, `{"Task_ID":"t1"}`, `{"TASKS":[]}`, `[{"id":"t1","extra":1}]`, `{"task_id":"t","x":null}`,
	`[{"keywords":[1.0]}]`, `[{"keywords":[1e2]}]`, `[{"keywords":[01]}]`, `[{"keywords":[-]}]`, `[{"keywords":[+1]}]`,
	`[{"keywords":[99999999999999999999]}]`, `[{"deadline_ms":9223372036854775808}]`, `[{"reward":1e400}]`,
	`[{"reward":.5}]`, `[{"reward":5.}]`, `[{"reward":1e}]`, `[{"reward":"1"}]`, `[{"done":True}]`, `[{"done":truex}]`,
	`[]x`, `[] []`, `{"task_id":"t"}{}`, `[{}`, `[{},]`, `[,]`, `{"task_id":"t",}`, `{,}`, `{"task_id" "t"}`,
	`{"graded":1.5}`, `{"tasks":{}}`, `[{"keywords":{}}]`, `[{"questions":[{"options":[1]}]}]`,
}

// acceptedInputs are in the strict subset for at least one target.
var acceptedInputs = []string{
	`[]`, " \t\r\n[ ] \n", `[{}]`, `[{"id":"t1","group":"g","reward":1.5,"keywords":[1,2,3],"done":false,"deadline_ms":17}]`,
	`[{"deadline_ms":17,"keywords":[ 3 , 2 ],"id":"t1"}]`, `[{"id":"a","id":"b"}]`, `[{"reward":-0},{"reward":-0.0},{"reward":0e0}]`,
	`[{"keywords":[1,2,3]},{"keywords":[]},{}]`, `[{"keywords":[-0, 0, -9223372036854775808, 9223372036854775807]}]`,
	`[{"reward":1E+2},{"reward":2.5e-3},{"reward":123456789012345678901234567890}]`, "[{\"id\":\"\x7f ~\"}]",
	`[{"questions":[{"id":"q","prompt":"p","options":["a","b"]}],"questions":[]}]`,
	`{"reassigned":true,"alpha":0.5,"beta":0.25,"graded":0,"correct":0,"tasks":[]}`, `{"tasks":[{"id":"t"}]}`,
	`{"task_id":"t1"}`, `{"answers":[{"option":3,"question_id":"q"}],"task_id":"t1"}`, `{}`,
	// Duplicate slice keys decode into the first slice's storage.
	`{"tasks":[{"id":"a","group":"g","keywords":[1,2]},{"id":"b"},{"id":"c"}],"tasks":[{"id":"d"}],"tasks":[{"reward":1},{},{},{}]}`,
	`[{"keywords":[1,2,3],"keywords":[4],"keywords":[5,6]}]`,
	`{"answers":[{"question_id":"q","option":1}],"answers":[{"option":2}],"answers":[]}`,
}

func TestWireDecodeMatchesJSON(t *testing.T) {
	for _, in := range declinedInputs {
		if n := checkDecode(t, []byte(in)); n != 0 {
			t.Errorf("%q: accepted by %d targets, want a decline", in, n)
		}
	}
	for _, in := range acceptedInputs {
		if checkDecode(t, []byte(in)) == 0 {
			t.Errorf("%q: declined by every target", in)
		}
	}
	// Everything the encoder writes with plain strings is in the subset.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		v := genWireValue(rng)
		b, ok := appendWire(nil, v)
		if !ok {
			continue
		}
		n := checkDecode(t, b)
		if plain := !bytes.ContainsAny(b, `\`) && !bytes.Contains(b, []byte("null")) && isASCII(b); plain && n == 0 {
			t.Fatalf("declined the encoder's own output %s", b)
		}
	}
}

// TestWireDeclineAllocatesLittle feeds a megabyte of separators, which
// the decoder declines: it must not size a slice from them.
func TestWireDeclineAllocatesLittle(t *testing.T) {
	body := []byte(`{"tasks":[` + strings.Repeat(",", 1<<20) + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var req addTasksRequest
	accepted := decodeWire(body, &req)
	runtime.ReadMemStats(&after)
	if accepted {
		t.Fatal("accepted an array of bare commas")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("declining allocated %d bytes", n)
	}
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= 0x80 {
			return false
		}
	}
	return true
}

// wireServerBodies drives a sharded server over raw HTTP and returns the
// request and response bodies of an upload, a registration, a completion
// and a read, to seed the fuzzer.
func wireServerBodies(t testing.TB) [][]byte {
	_, client := newShardedServer(t, 2, 0)
	var bodies [][]byte
	call := func(method, path string, body []byte) []byte {
		req, err := http.NewRequest(method, client.base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body, out)
		return out
	}
	upload, _ := appendWire(nil, addTasksRequest{Tasks: []taskUpload{
		{ID: "t1", Group: "g", Reward: 1.5, Keywords: []int{0, 1, 2, 3, 4}},
		{ID: "t2", Group: "g", Reward: 0.1 + 0.2, Keywords: []int{1, 2, 3, 4, 5}, DeadlineMS: 1 << 50},
		{ID: "t3", Reward: 2, Keywords: []int{7, 8}},
	}})
	call(http.MethodPost, "/api/tasks", upload)
	var set []TaskView
	if err := json.Unmarshal(call(http.MethodPost, "/api/workers", []byte(`{"id":"w1","keywords":[0,1,2,3,4,5]}`)), &set); err != nil || len(set) == 0 {
		t.Fatalf("register: %v, %d tasks", err, len(set))
	}
	complete, _ := appendWire(nil, completeRequest{TaskID: set[0].ID})
	call(http.MethodPost, "/api/workers/w1/complete", complete)
	call(http.MethodGet, "/api/workers/w1/tasks", nil)
	return bodies
}

func FuzzWireDecode(f *testing.F) {
	for _, in := range append(declinedInputs, acceptedInputs...) {
		f.Add([]byte(in))
	}
	for _, b := range wireServerBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// TestWireNonCanonicalBodies sends request bodies outside the strict
// subset — an escaped ID, reordered keys, an unknown field, a key in the
// wrong case, trailing data — and checks the server applies them as
// encoding/json reads them.
func TestWireNonCanonicalBodies(t *testing.T) {
	eng, client := newShardedServer(t, 1, 0) // one shard: w1 sees both tasks
	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := client.http.Post(client.base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code, out := post("/api/tasks", `{"Tasks":[
		{"keywords":[1,2,3],"reward":2,"ID":"t\u0031","group":"g","extra":{"a":[1,null]}},
		{"Group":"h","KEYWORDS":[2,3,4],"id":"t2","Reward":1}
	]}`)
	if code != http.StatusOK || !strings.Contains(string(out), `"buffered":2`) {
		t.Fatalf("upload: HTTP %d %s", code, out)
	}
	set, err := client.Register("w1", []int{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]TaskView{}
	for _, v := range set {
		seen[v.ID] = v
	}
	code, out = post("/api/workers/w1/complete", `{"unknown":[1], "Task_ID":"t\u0031"}`)
	var resp CompleteResponse
	if err := json.Unmarshal(out, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("complete t1: HTTP %d %s", code, out)
	}
	for _, v := range resp.Tasks {
		if v.ID == "t1" {
			t.Fatalf("t1 still active after its completion: %s", out)
		}
		seen[v.ID] = v
	}
	if t1, t2 := seen["t1"], seen["t2"]; len(seen) != 2 || t1.Group != "g" || t1.Reward != 2 ||
		t2.Group != "h" || t2.Reward != 1 || !reflect.DeepEqual(t2.Keywords, []int{2, 3, 4}) {
		t.Fatalf("display sets %+v then %+v", set, resp.Tasks)
	}
	if code, out := post("/api/workers/w1/complete", `{"task_id":"t2"} trailing`); code != http.StatusBadRequest {
		t.Fatalf("trailing data: HTTP %d %s, want 400", code, out)
	}
	if code, out := post("/api/workers/w1/complete", ` { "answers" : [ ] , "task_id" : "t2" } `); code != http.StatusOK {
		t.Fatalf("complete t2: HTTP %d %s", code, out)
	}
	if st := eng.Stats(); st.Completed != 2 {
		t.Fatalf("completed %d, want 2", st.Completed)
	}
}

// wireDisplaySet is a 15-task completion response with 5 keywords per
// task, the stream workloads' display-set size.
func wireDisplaySet() CompleteResponse {
	resp := CompleteResponse{Alpha: 0.5, Beta: 0.5, Tasks: make([]TaskView, 15)}
	for i := range resp.Tasks {
		resp.Tasks[i] = TaskView{
			ID: fmt.Sprintf("g%03d-t%05d", i%7, 1000+i*37), Group: fmt.Sprintf("g%03d", i%7),
			Reward: 0.05 * float64(i+1), Keywords: []int{i, i + 3, i + 17, i + 40, i + 61},
		}
	}
	return resp
}

func BenchmarkWire(b *testing.B) {
	resp := wireDisplaySet()
	body := jsonEncode(b, resp)
	b.Run("encode/wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		buf := make([]byte, 0, 4096)
		for i := 0; i < b.N; i++ {
			buf, _ = appendWire(buf[:0], resp)
		}
	})
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out CompleteResponse
			if !decodeWire(body, &out) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var out CompleteResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
