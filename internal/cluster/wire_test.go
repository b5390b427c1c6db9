package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/trace"
	"github.com/htacs/ata/internal/wire"
	"github.com/htacs/ata/internal/workload"
)

// jsonEncode is the reference: what encodeJSON wrote before the frame
// codec.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkFrameEncode asserts the frame encoder's bytes, and encodeJSON's,
// equal json.Encoder's for v, a *Frame or *FrameResult.
func checkFrameEncode(t *testing.T, v any) {
	t.Helper()
	got, ok := appendFrame(nil, v)
	if !ok {
		t.Fatalf("appendFrame declined %#v", v)
	}
	want := jsonEncode(t, v)
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("frame bytes differ from encoding/json:\n got %s\nwant %s", got, want)
	}
	buf, err := encodeJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	defer putBuf(buf)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encodeJSON bytes differ from encoding/json:\n got %s\nwant %s", buf.Bytes(), want)
	}
}

// frameStrings are the string edge cases: HTML characters, quotes and
// backslashes, control characters, the JS line separators, invalid UTF-8,
// DEL and non-ASCII.
var frameStrings = []string{
	"", "t1", "<>&", `"\`, "a\x00b\x1f", "\t\n\r", "  ", "\xff\xfe", "bad\xc3", "\x7f", "é✓",
}

// frameFloats are the float edge cases, both sides of each format switch.
var frameFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, 3e21, 0.1 + 0.2, 1e21, 1e-6, 999999999999999900000,
	-1.5e-10, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64, -2,
}

func genString(rng *rand.Rand) string {
	if rng.Intn(4) == 0 {
		return frameStrings[rng.Intn(len(frameStrings))]
	}
	return fmt.Sprintf("t%d", rng.Intn(1e6))
}

// genOptString is genString or, half the time, empty (omitted).
func genOptString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return ""
	}
	return genString(rng)
}

func genFloat(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return frameFloats[rng.Intn(len(frameFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // non-finite now and then
	case 2:
		return 0
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

func genInt64(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return rng.Int63() - rng.Int63()
}

func genTask(rng *rand.Rand) *taskWire {
	return &taskWire{ID: genString(rng), Group: genOptString(rng), Reward: genFloat(rng),
		Universe: rng.Intn(300) - 1, Keywords: genInts(rng), Deadline: genInt64(rng)}
}

func genWorker(rng *rand.Rand) *workerWire {
	return &workerWire{ID: genString(rng), Alpha: genFloat(rng), Beta: genFloat(rng),
		Universe: rng.Intn(300), Keywords: genInts(rng)}
}

func genTasks(rng *rand.Rand) []taskWire {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []taskWire{}
	}
	ts := make([]taskWire, 1+rng.Intn(15))
	for i := range ts {
		ts[i] = *genTask(rng)
	}
	return ts
}

// opKinds are the op kinds the node applies.
var opKinds = []string{opScore, opCommit, opBuffer, opComplete, opAddWorker, opRemoveWorker, opActiveTasks,
	opWorker, opCompleted, opWorkers, opStats, opObjective, opSetTrust, opTrust, opSetWindow, opWindow}

// genOp draws an op of any kind, with each optional field set at random.
func genOp(rng *rand.Rand) Op {
	op := Op{Op: opKinds[rng.Intn(len(opKinds))], TaskID: genOptString(rng), WorkerID: genOptString(rng)}
	if rng.Intn(8) == 0 {
		op.Op = genString(rng) // an unknown kind: the node refuses it
	}
	if rng.Intn(2) == 0 {
		op.Task = genTask(rng)
	}
	if rng.Intn(3) == 0 {
		op.Worker = genWorker(rng)
	}
	if rng.Intn(3) == 0 {
		v := genFloat(rng)
		op.Trust = &v
	}
	if rng.Intn(3) == 0 {
		v := genInt64(rng)
		op.Window = &v
	}
	if rng.Intn(3) == 0 {
		op.Span = &SpanRef{TraceID: genString(rng), SpanID: genString(rng)}
	}
	return op
}

// genOpResult draws a result of any op's shape, with each optional field
// set at random; Stats only when withStats.
func genOpResult(rng *rand.Rand, withStats bool) OpResult {
	r := OpResult{
		OK: rng.Intn(2) == 0, Err: genOptString(rng), Code: genOptString(rng),
		Gain: genFloat(rng), Rel: genFloat(rng), Free: rng.Intn(2) == 0, Backlog: rng.Intn(5) - 1,
		WorkerID: genOptString(rng), Tasks: genTasks(rng), Count: rng.Intn(4) - 1,
		Value: genFloat(rng), Until: genInt64(rng),
	}
	if rng.Intn(3) == 0 {
		r.Next = genTask(rng)
	}
	if rng.Intn(3) == 0 {
		r.Worker = genWorker(rng)
	}
	switch rng.Intn(3) {
	case 0:
		r.IDs = []string{}
	case 1:
		for i := rng.Intn(4); i >= 0; i-- {
			r.IDs = append(r.IDs, genString(rng))
		}
	}
	if withStats && rng.Intn(20) == 0 {
		r.Stats = &shard.Stats{Shards: 2, Submitted: 3}
	}
	return r
}

// genFrameValue draws a *Frame or a *FrameResult.
func genFrameValue(rng *rand.Rand, withStats bool) any {
	if rng.Intn(2) == 0 {
		f := &Frame{ID: genString(rng)}
		if rng.Intn(6) > 0 {
			f.Ops = make([]Op, rng.Intn(5))
			for i := range f.Ops {
				f.Ops[i] = genOp(rng)
			}
		}
		return f
	}
	res := &FrameResult{}
	if rng.Intn(6) > 0 {
		res.Results = make([]OpResult, rng.Intn(5))
		for i := range res.Results {
			res.Results[i] = genOpResult(rng, withStats)
		}
	}
	return res
}

// encodable reports whether encoding/json encodes v without error.
func encodable(v any) bool {
	_, err := json.Marshal(v)
	return err == nil
}

func TestFrameEncodeMatchesJSON(t *testing.T) {
	f64 := func(v float64) *float64 { return &v }
	i64 := func(v int64) *int64 { return &v }
	task := &taskWire{ID: "t1", Group: "g", Reward: 1.5, Universe: 64, Keywords: []int{1, 2, 3}, Deadline: 1 << 50}
	worker := &workerWire{ID: "w1", Alpha: 0.5, Beta: 0.25, Universe: 64, Keywords: []int{4, 5}}
	for _, s := range frameStrings {
		checkFrameEncode(t, &Frame{ID: s, Ops: []Op{{Op: s, TaskID: s, WorkerID: s,
			Task:   &taskWire{ID: s, Group: s, Universe: 1, Keywords: []int{0}},
			Worker: &workerWire{ID: s, Universe: 1, Keywords: []int{}},
			Span:   &SpanRef{TraceID: s, SpanID: s}}}})
		checkFrameEncode(t, &FrameResult{Results: []OpResult{{Err: s, Code: s, WorkerID: s, IDs: []string{s, s},
			Tasks: []taskWire{{ID: s, Group: s}}}}})
	}
	for _, f := range frameFloats {
		checkFrameEncode(t, &Frame{ID: "f", Ops: []Op{{Op: opSetTrust, WorkerID: "w", Trust: f64(f)},
			{Op: opScore, Task: &taskWire{ID: "t", Reward: f, Universe: 8, Keywords: []int{1}}},
			{Op: opAddWorker, Worker: &workerWire{ID: "w", Alpha: f, Beta: -f, Universe: 8, Keywords: []int{2}}}}})
		checkFrameEncode(t, &FrameResult{Results: []OpResult{{OK: true, Gain: f, Rel: -f, Free: true, Backlog: 3},
			{OK: true, Value: f}}})
	}
	for _, v := range []any{
		&Frame{}, &Frame{ID: "x", Ops: []Op{}},
		&Frame{ID: "score", Ops: []Op{{Op: opScore, Task: task}}},
		&Frame{ID: "commit", Ops: []Op{{Op: opCommit, Task: task, Span: &SpanRef{TraceID: "0123456789abcdef", SpanID: "fedcba9876543210"}}}},
		&Frame{ID: "zero", Ops: []Op{{Op: opSetTrust, WorkerID: "w", Trust: f64(0)}, {Op: opSetWindow, WorkerID: "w", Window: i64(0)},
			{Op: opSetWindow, WorkerID: "w", Window: i64(math.MaxInt64)}, {Op: opSetWindow, WorkerID: "w", Window: i64(math.MinInt64)}}},
		&Frame{ID: "kw", Ops: []Op{{Op: opBuffer, Task: &taskWire{ID: "nil"}}, {Op: opBuffer, Task: &taskWire{ID: "empty", Keywords: []int{}}},
			{Op: opAddWorker, Worker: worker}, {Op: opAddWorker, Worker: &workerWire{ID: "nil"}}}},
		&Frame{ID: "reads", Ops: []Op{{Op: opComplete, WorkerID: "w", TaskID: "t"}, {Op: opActiveTasks, WorkerID: "w"},
			{Op: opWorkers}, {Op: opStats}, {Op: opObjective}, {Op: opTrust, WorkerID: "w"}, {Op: opWindow, WorkerID: "w"}}},
		&FrameResult{}, &FrameResult{Results: []OpResult{}},
		&FrameResult{Results: []OpResult{{OK: true, Gain: math.Copysign(0, -1), Rel: 1e-7, Backlog: 2}, {OK: true, Gain: 1e21, Free: true}}},
		&FrameResult{Results: []OpResult{{OK: true, Tasks: nil}, {OK: true, Tasks: []taskWire{}}, {OK: true, Tasks: []taskWire{*task, *task}},
			{OK: true, IDs: nil}, {OK: true, IDs: []string{}}, {OK: true, IDs: []string{"a", "b"}}}},
		&FrameResult{Results: []OpResult{{OK: true, WorkerID: "w", Next: task}, {OK: true, Worker: worker}, {OK: true, Count: -3},
			{OK: true, Value: 0.5}, {OK: true, Until: math.MaxInt64}, {Err: "cluster: full", Code: codeFull}}},
	} {
		checkFrameEncode(t, v)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		v := genFrameValue(rng, false)
		if encodable(v) {
			checkFrameEncode(t, v)
		} else if _, ok := appendFrame(nil, v); ok {
			t.Fatalf("appendFrame accepted a non-finite float: %#v", v)
		}
	}

	// Declines: a non-finite float, Stats, other types. encodeJSON then
	// writes what encoding/json writes, or fails as it does.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, v := range []any{
			&FrameResult{Results: []OpResult{{OK: true, Gain: f}}},
			&Frame{Ops: []Op{{Op: opSetTrust, Trust: f64(f)}}},
			&Frame{Ops: []Op{{Op: opScore, Task: &taskWire{Reward: f}}}},
		} {
			if _, ok := appendFrame(nil, v); ok {
				t.Fatalf("appendFrame accepted %v in %#v", f, v)
			}
			if _, err := encodeJSON(v); err == nil {
				t.Fatalf("encodeJSON encoded %v", f)
			}
		}
	}
	stats := &FrameResult{Results: []OpResult{{OK: true}, {OK: true, Stats: &shard.Stats{Shards: 2, Workers: 5}}}}
	if _, ok := appendFrame(nil, stats); ok {
		t.Fatal("appendFrame accepted a result carrying Stats")
	}
	for _, v := range []any{stats, Health{Node: "n0", Shards: 1}, Frame{ID: "by value"}} {
		if _, ok := appendFrame(nil, v); ok {
			t.Fatalf("appendFrame accepted %T", v)
		}
		buf, err := encodeJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := jsonEncode(t, v); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("encodeJSON(%T) = %s, want %s", v, buf.Bytes(), want)
		}
		putBuf(buf)
	}
}

// frameTarget is one decodable type under the two readings: first is the
// node's (json.Decoder.Decode: the first value, the rest ignored), whole
// the gateway's (json.Unmarshal: nothing but whitespace may follow).
type frameTarget struct {
	mk    func() any
	first func(data []byte, out any) bool
	whole func(data []byte, out any) bool
}

var frameTargets = []frameTarget{
	{
		mk:    func() any { return new(Frame) },
		first: func(b []byte, v any) bool { return decodeFrame(b, v.(*Frame)) },
		whole: func(b []byte, v any) bool { return wire.Decode(b, v.(*Frame), decFrame) },
	},
	{
		mk:    func() any { return new(FrameResult) },
		first: func(b []byte, v any) bool { return wire.DecodeFirst(b, v.(*FrameResult), decFrameResult) },
		whole: func(b []byte, v any) bool { return decodeFrameResult(b, v.(*FrameResult)) },
	},
}

// checkFrameDecode asserts, for each target under both readings, that
// whatever the frame decoder accepts encoding/json decodes to an equal
// value that re-encodes to the same bytes, and that a decline leaves the
// target untouched. It returns how many (target, reading) pairs accepted.
func checkFrameDecode(t *testing.T, data []byte) int {
	t.Helper()
	accepted := 0
	for _, tg := range frameTargets {
		for _, node := range []bool{true, false} {
			fast, slow := tg.mk(), tg.mk()
			var ok bool
			var err error
			if node {
				ok = tg.first(data, fast)
				err = json.NewDecoder(bytes.NewReader(data)).Decode(slow)
			} else {
				ok = tg.whole(data, fast)
				err = json.Unmarshal(data, slow)
			}
			if !ok {
				if !reflect.DeepEqual(fast, tg.mk()) {
					t.Fatalf("declined decode of %q changed the target: %#v", data, fast)
				}
				continue
			}
			accepted++
			if err != nil {
				t.Fatalf("fast path accepted %q into %T (node reading %v); encoding/json: %v", data, fast, node, err)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("decode of %q into %T (node reading %v):\nwire %#v\njson %#v", data, fast, node, fast, slow)
			}
			// DeepEqual treats -0 and 0 as equal; their encodings do not.
			if a, b := jsonEncode(t, fast), jsonEncode(t, slow); !bytes.Equal(a, b) {
				t.Fatalf("decode of %q re-encodes differently:\nwire %s\njson %s", data, a, b)
			}
		}
	}
	return accepted
}

// declinedFrames leave the strict subset under both readings; encoding/json
// decides each.
var declinedFrames = []string{
	``, ` `, `null`, `[]`, `{"id":null}`, `{"ops":null}`, `{"results":null}`, `{"ops":[null]}`,
	`{"id":"f\u0031"}`, `{"id":"a\"b"}`, `{"id":"é"}`, "{\"id\":\"\xff\"}", "{\"id\":\"a\tb\"}",
	`{"ID":"f"}`, `{"Ops":[]}`, `{"RESULTS":[]}`, `{"id":"f","extra":1}`, `{"ops":[{"op":"score","Task":{}}]}`,
	`{"ops":[{"op":"score","task":null}]}`, `{"ops":[{"op":"set_trust","trust":null}]}`, `{"ops":[{"span":{"t":"a","s":"b","x":1}}]}`,
	`{"ops":[{"task":{"keywords":[1.0]}}]}`, `{"ops":[{"task":{"universe":1e2}}]}`, `{"ops":[{"task":{"keywords":[01]}}]}`,
	`{"ops":[{"window":9223372036854775808}]}`, `{"ops":[{"window":1.5}]}`, `{"ops":[{"trust":1e400}]}`, `{"ops":[{"trust":"1"}]}`,
	`{"results":[{"ok":True}]}`, `{"results":[{"ok":truex}]}`, `{"results":[{"stats":{}}]}`, `{"results":[{"stats":null}]}`,
	`{"results":[{"gain":.5}]}`, `{"results":[{"gain":5.}]}`, `{"results":[{"backlog":1.5}]}`, `{"results":[{"ids":[1]}]}`,
	`{"results":[{"next":[]}]}`, `{"results":[{"tasks":{}}]}`, `{"results":[{"worker":{"alpha":1,"keywords":[x]}}]}`,
	`{"id":"f",}`, `{,}`, `{"id" "f"}`, `{"ops":[{}`, `{"ops":[{},]}`, `{"ops":[,]}`,
}

// acceptedFrames are in the strict subset for at least one target.
var acceptedFrames = []string{
	`{}`, " \t\r\n{ } \n", `{"id":"f","ops":[]}`, `{"ops":[{}],"id":"f"}`,
	`{"id":"f","ops":[{"op":"score","task":{"id":"t1","group":"g","reward":1.5,"universe":64,"keywords":[1,2,3],"deadline":17}}]}`,
	`{"ops":[{"op":"set_trust","worker_id":"w","trust":0},{"op":"set_window","worker_id":"w","window":0}]}`,
	`{"ops":[{"op":"commit","span":{"s":"fedcba9876543210","t":"0123456789abcdef"},"task":{"id":"t","universe":8,"keywords":[]}}]}`,
	`{"ops":[{"op":"add_worker","worker":{"id":"w","alpha":0.5,"beta":-0,"universe":8,"keywords":[7]}}]}`,
	`{"ops":[{"op":"unknown-kind"},{"op":""},{"op":"score","op":"commit"}]}`,
	`{"results":[{"ok":true,"gain":-0,"rel":1e-7,"free":true,"backlog":2},{"ok":false,"err":"full","code":"buffer_full"}]}`,
	`{"results":[{"ok":true,"tasks":[{"id":"a","universe":4,"keywords":[0,3]},{"id":"b","universe":4,"keywords":[]}]}]}`,
	`{"results":[{"ok":true,"worker_id":"w","next":{"id":"t","universe":4,"keywords":[1]}},{"ok":true,"ids":["a","b"]},{"ok":true,"ids":[]}]}`,
	`{"results":[{"ok":true,"count":3,"value":0.25,"until":9223372036854775807,"worker":{"id":"w","alpha":1E+2,"beta":2.5e-3,"universe":1,"keywords":[]}}]}`,
	// Duplicate keys: pointers are decoded into in place, slices reuse
	// the first array's storage.
	`{"ops":[{"task":{"id":"a","group":"g","keywords":[1,2]}},{"op":"x"}],"ops":[{"task":{"reward":2}}]}`,
	`{"ops":[{"trust":1,"trust":2,"window":3,"window":4,"span":{"t":"a"},"span":{"s":"b"}}]}`,
	`{"results":[{"tasks":[{"id":"a","keywords":[1,2,3]},{"id":"b"},{"id":"c"}]}],"results":[{"tasks":[{"id":"d"}]}],"results":[{"tasks":[{},{},{}]},{},{}]}`,
	`{"results":[{"next":{"id":"a","keywords":[1,2]},"next":{"keywords":[3]},"ids":["x","y"],"ids":["z"]}]}`,
	// Trailing data: the node's reading accepts, the gateway's declines.
	`{"id":"f","ops":[]} trailing`, `{"results":[{"ok":true}]}{"results":[]}`, `{"results":[]}]`,
}

func TestFrameDecodeMatchesJSON(t *testing.T) {
	for _, in := range declinedFrames {
		if n := checkFrameDecode(t, []byte(in)); n != 0 {
			t.Errorf("%q: accepted by %d readings, want a decline", in, n)
		}
	}
	for _, in := range acceptedFrames {
		if checkFrameDecode(t, []byte(in)) == 0 {
			t.Errorf("%q: declined by every reading", in)
		}
	}
	for _, in := range []string{`{"id":"f","ops":[]} trailing`, `{"results":[]}]`} {
		var f FrameResult
		if decodeFrameResult([]byte(in), &f) {
			t.Errorf("%q: the gateway's reading accepted trailing data", in)
		}
	}
	var first Frame
	if !decodeFrame([]byte(`{"id":"f","ops":[{"op":"score"}]} {"id":"g"}`), &first) || first.ID != "f" || len(first.Ops) != 1 {
		t.Errorf("the node's reading of two values: %+v", first)
	}
	// Everything the encoder writes with plain strings is in the subset,
	// under both readings.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		v := genFrameValue(rng, false)
		b, ok := appendFrame(nil, v)
		if !ok {
			continue
		}
		n := checkFrameDecode(t, b)
		if plain := !bytes.ContainsAny(b, `\`) && !bytes.Contains(b, []byte("null")) && isASCII(b); plain && n != 2 {
			t.Fatalf("declined the encoder's own output %s (%d readings accepted)", b, n)
		}
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

// recordingTransport keeps every /cluster/batch request and response
// body that passes through it.
type recordingTransport struct {
	mu     sync.Mutex
	bodies [][]byte
}

func (rt *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
		rt.keep(body)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/cluster/batch") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rt.keep(body)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

func (rt *recordingTransport) keep(b []byte) {
	rt.mu.Lock()
	rt.bodies = append(rt.bodies, b)
	rt.mu.Unlock()
}

// frameSessionBodies drives a gateway over two loopback nodes through
// every op kind — some under a sampled trace, so ops carry spans — and
// returns the frames and results that crossed the wire, to seed the
// fuzzer.
func frameSessionBodies(t testing.TB) [][]byte {
	rt := &recordingTransport{}
	var specs []PeerSpec
	for i := 0; i < 2; i++ {
		eng, err := shard.New(shard.Config{
			Shards: 1, StealInterval: -1,
			Stream:   stream.Config{Xmax: 3, BufferLimit: 32},
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("n%d", i)
		node, err := NewNode(NodeConfig{Name: name, Engine: eng, Tracer: trace.NewRecorder(16, 1), Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(node)
		t.Cleanup(func() { srv.Close(); eng.Close() })
		specs = append(specs, PeerSpec{Name: name, URL: srv.URL})
	}
	gw, err := NewGateway(GatewayConfig{
		Peers: specs, HeartbeatInterval: -1, RetryBackoff: time.Millisecond,
		HTTPClient: &http.Client{Transport: rt}, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	ctx, root := trace.NewRecorder(16, 1).Start(context.Background(), "session")
	defer root.End()
	gen, err := workload.NewGenerator(workload.Config{Universe: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	workers, tasks := gen.Workers(4), gen.Tasks(4, 4)
	for _, w := range workers {
		if _, err := gw.AddWorkerCtx(ctx, w); err != nil {
			t.Fatal(err)
		}
	}
	tasks[0].Deadline = time.Now().Add(time.Hour).UnixNano()
	for i, tk := range tasks {
		c := context.Background()
		if i%4 == 0 {
			c = ctx
		}
		if _, err := gw.OfferTaskCtx(c, tk); err != nil {
			t.Fatal(err)
		}
	}
	w := workers[0].ID
	active, err := gw.ActiveTasks(w)
	if err != nil || len(active) == 0 {
		t.Fatalf("active tasks of %s: %v, %d tasks", w, err, len(active))
	}
	if _, err := gw.CompleteCtx(ctx, w, active[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.SetTrust(w, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Trust(w); err != nil {
		t.Fatal(err)
	}
	if err := gw.SetWindow(w, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Window(w); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Completed(w); err != nil {
		t.Fatal(err)
	}
	gw.WorkerIDs()
	gw.Objective()
	gw.Stats()
	if _, err := gw.RemoveWorkerCtx(ctx, workers[1].ID); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.bodies
}

func TestFrameSessionBodies(t *testing.T) {
	bodies := frameSessionBodies(t)
	ops := map[string]bool{}
	spans := 0
	for _, b := range bodies {
		var f Frame
		if decodeFrame(b, &f) {
			for _, op := range f.Ops {
				ops[op.Op] = true
				if op.Span != nil {
					spans++
				}
			}
		}
		checkFrameDecode(t, b)
	}
	for _, name := range []string{opScore, opCommit, opAddWorker, opRemoveWorker, opComplete, opActiveTasks,
		opSetTrust, opTrust, opSetWindow, opWindow, opCompleted, opWorkers, opObjective, opStats} {
		if !ops[name] {
			t.Errorf("the session sent no %s op through the frame codec", name)
		}
	}
	if spans == 0 {
		t.Error("no op carried a span")
	}
}

func FuzzFrameDecode(f *testing.F) {
	for _, in := range append(declinedFrames, acceptedFrames...) {
		f.Add([]byte(in))
	}
	for _, b := range frameSessionBodies(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrameDecode(t, data) })
}

// TestFrameDeclineSemantics sends bodies the frame codec declines and
// checks each side reads them as encoding/json did: the node applies a
// frame with escapes, case-folded keys or trailing data, and the gateway
// treats a result with trailing data as a failed frame and retries it.
func TestFrameDeclineSemantics(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n0", Engine: eng, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	post := func(body string) (int, FrameResult) {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/cluster/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out FrameResult
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, out
	}
	code, res := post(`{"ID":"f1","Ops":[{"OP":"add_worker","worker":{"id":"w1","alpha":0.5,"beta":0.5,"universe":8,"keywords":[1,2],"x":null}}]}`)
	if code != http.StatusOK || len(res.Results) != 1 || !res.Results[0].OK {
		t.Fatalf("case-folded frame: HTTP %d %+v", code, res)
	}
	code, res = post(`{"id":"f2","ops":[{"op":"commit","task":{"id":"t1","universe":8,"keywords":[1]}}]} trailing`)
	if code != http.StatusOK || len(res.Results) != 1 || !res.Results[0].OK || res.Results[0].WorkerID != "w1" {
		t.Fatalf("frame with trailing data: HTTP %d %+v", code, res)
	}
	if code, _ := post(`{"id":"f3","ops":[{"op":"commit","task":{"id":"t2","universe":8,"keywords":[1]}}]`); code != http.StatusBadRequest {
		t.Fatalf("truncated frame: HTTP %d, want 400", code)
	}
	if st := eng.Stats(); st.Workers != 1 || st.Submitted != 1 {
		t.Fatalf("stats %+v, want 1 worker and 1 submitted task", st)
	}

	var calls int
	var mu sync.Mutex
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		io.WriteString(w, `{"results":[{"ok":true,"count":7}]} {"results":[]}`)
	}))
	defer fake.Close()
	p := newPeer("fake", fake.URL, fake.Client(), obs.NewRegistry(), 1, 1, 3, time.Millisecond)
	if _, err := p.do(Op{Op: opCompleted, WorkerID: "w"}); err == nil {
		t.Fatal("a result with trailing data was accepted")
	}
	if calls != 3 {
		t.Fatalf("%d attempts, want 3: trailing data is a failed frame, retried", calls)
	}
}

// TestNodeRejectsOversizedFrame posts a frame past maxFrameBytes, then a
// normal one, to the same node: the first is refused with 413 and
// applies nothing, the second applies.
func TestNodeRejectsOversizedFrame(t *testing.T) {
	eng, err := shard.New(shard.Config{
		Shards: 1, StealInterval: -1,
		Stream:   stream.Config{Xmax: 2, BufferLimit: 16},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	node, err := NewNode(NodeConfig{Name: "n0", Engine: eng, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(node)
	defer srv.Close()
	post := func(f *Frame) (int, []byte) {
		t.Helper()
		body, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/cluster/batch", "application/json", bytes.NewReader(body))
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
	// A well-formed frame whose only fault is its size: one buffer op with
	// a task ID just past the limit.
	big := &Frame{ID: "big", Ops: []Op{{Op: opBuffer, Task: &taskWire{
		ID: strings.Repeat("x", maxFrameBytes), Universe: 8, Keywords: []int{1},
	}}}}
	if code, out := post(big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: HTTP %d %.200s, want 413", code, out)
	}
	if st := eng.Stats(); st.Submitted != 0 || st.Buffered != 0 {
		t.Fatalf("the oversized frame applied: %+v", st)
	}
	code, out := post(&Frame{ID: "small", Ops: []Op{{Op: opBuffer, Task: &taskWire{ID: "t1", Universe: 8, Keywords: []int{1}}}}})
	var res FrameResult
	if err := json.Unmarshal(out, &res); code != http.StatusOK || err != nil || len(res.Results) != 1 || !res.Results[0].OK {
		t.Fatalf("normal frame after it: HTTP %d %s", code, out)
	}
	if st := eng.Stats(); st.Buffered != 1 {
		t.Fatalf("normal frame: %d buffered, want 1", st.Buffered)
	}
}

// benchFrames are the hot frames of a cluster run: a one-op score frame,
// its result, and the 15-task active_tasks result a completion reads back.
func benchFrames() (score *Frame, scored, active *FrameResult) {
	task := func(i int) taskWire {
		return taskWire{ID: fmt.Sprintf("g%03d-t%05d", i%7, 1000+i*37), Group: fmt.Sprintf("g%03d", i%7),
			Reward: 0.05 * float64(i+1), Universe: 256, Keywords: []int{i, i + 3, i + 17, i + 40, i + 61}}
	}
	t0 := task(0)
	score = &Frame{ID: "0123456789abcdef0123456789abcdef", Ops: []Op{{Op: opScore, Task: &t0}}}
	scored = &FrameResult{Results: []OpResult{{OK: true, Gain: 1.2345678901234567, Rel: 0.375, Free: true, Backlog: 12}}}
	tasks := make([]taskWire, 15)
	for i := range tasks {
		tasks[i] = task(i)
	}
	active = &FrameResult{Results: []OpResult{{OK: true, Tasks: tasks}}}
	return score, scored, active
}

func BenchmarkFrameWire(b *testing.B) {
	score, scored, active := benchFrames()
	for _, c := range []struct {
		name string
		v    any
	}{{"score_frame", score}, {"score_result", scored}, {"active_tasks_result", active}} {
		body := jsonEncode(b, c.v)
		_, isFrame := c.v.(*Frame)
		b.Run(c.name+"/encode/wire", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 4096)
			for i := 0; i < b.N; i++ {
				buf, _ = appendFrame(buf[:0], c.v)
			}
		})
		b.Run(c.name+"/encode/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode/wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var ok bool
				if isFrame {
					var f Frame
					ok = decodeFrame(body, &f)
				} else {
					var r FrameResult
					ok = decodeFrameResult(body, &r)
				}
				if !ok {
					b.Fatal("declined")
				}
			}
		})
		b.Run(c.name+"/decode/json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if isFrame {
					var f Frame
					err = json.NewDecoder(bytes.NewReader(body)).Decode(&f)
				} else {
					var r FrameResult
					err = json.Unmarshal(body, &r)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
