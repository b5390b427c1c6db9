package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestStartPropagatesHierarchy(t *testing.T) {
	rec := NewRecorder(8, 1)
	ctx, root := rec.Start(context.Background(), "root", Str("k", "v"))
	if !root.Recorded() {
		t.Fatal("root not sampled at 1/1")
	}
	cctx, child := rec.Start(ctx, "child")
	_, grand := rec.Start(cctx, "grandchild", Int("n", 7))
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatal("children did not join the root's trace")
	}
	grand.End()
	child.End()
	root.End()

	traces := rec.Snapshot(0)
	if len(traces) != 1 {
		t.Fatalf("Snapshot = %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	if spans[0].Name != "root" || spans[0].Parent != 0 {
		t.Fatalf("span 0 = %+v, want root with no parent", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("child's parent is not root")
	}
	if spans[2].Parent != spans[1].ID {
		t.Fatal("grandchild's parent is not child")
	}
	for _, sd := range spans {
		if sd.Dur <= 0 {
			t.Fatalf("span %s has non-positive duration %v", sd.Name, sd.Dur)
		}
	}
}

func TestHeadSampling(t *testing.T) {
	rec := NewRecorder(256, 4)
	kept := 0
	for i := 0; i < 100; i++ {
		ctx, sp := rec.Start(context.Background(), "root")
		// Descendants of an unsampled root must not become fresh roots.
		_, child := rec.Start(ctx, "child")
		if child.Recorded() != sp.Recorded() {
			t.Fatal("child sampling disagrees with root")
		}
		child.End()
		sp.End()
		if sp.Recorded() {
			kept++
		}
	}
	if kept != 25 {
		t.Fatalf("kept %d of 100 at 1/4 sampling, want 25", kept)
	}
	if got := len(rec.Snapshot(0)); got != 25 {
		t.Fatalf("Snapshot holds %d traces, want 25", got)
	}
}

func TestDisabledRecorderIsInert(t *testing.T) {
	rec := NewRecorder(8, 0)
	ctx, sp := rec.Start(context.Background(), "root")
	if sp.Recorded() {
		t.Fatal("disabled recorder sampled a root")
	}
	if ctx != context.Background() {
		t.Fatal("disabled recorder allocated a context value")
	}
	// All nil-span methods are no-ops.
	sp.SetAttrs(Int("n", 1))
	if d := sp.End(); d != 0 {
		t.Fatalf("inert End = %v, want 0", d)
	}
	if sp.TraceID() != 0 || sp.SpanID() != 0 {
		t.Fatal("inert span has non-zero IDs")
	}
	if len(rec.Snapshot(0)) != 0 {
		t.Fatal("disabled recorder recorded a trace")
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := NewRecorder(8, 1)
	_, sp := rec.Start(context.Background(), "root")
	d1 := sp.End()
	d2 := sp.End()
	if d1 != d2 {
		t.Fatalf("second End returned %v, first %v", d2, d1)
	}
	if got := len(rec.Snapshot(0)); got != 1 {
		t.Fatalf("double End pushed %d traces, want 1", got)
	}
}

func TestEventRequiresSampledContext(t *testing.T) {
	rec := NewRecorder(8, 1)
	Event(context.Background(), "orphan") // must not panic or record anywhere
	ctx, sp := rec.Start(context.Background(), "root")
	Event(ctx, "queued", Int("depth", 3))
	sp.End()
	spans := rec.Snapshot(0)[0].Spans()
	if len(spans) != 2 || spans[1].Name != "queued" {
		t.Fatalf("spans = %+v, want root + queued event", spans)
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("event is not a child of the context span")
	}
	if v := spans[1].Attrs[0].Value(); v != int64(3) {
		t.Fatalf("event attr = %v (%T), want 3", v, v)
	}
}

// TestAttrsBuiltOnlyWhenRecorded checks that a span record keeps its own
// copy of the caller's attributes, and that an unsampled Start or Event
// allocates nothing for them.
func TestAttrsBuiltOnlyWhenRecorded(t *testing.T) {
	rec := NewRecorder(8, 1)
	attrs := []Attr{Str("task", "t1"), Int("shard", 1)}
	ctx, sp := rec.Start(context.Background(), "root", attrs...)
	Event(ctx, "commit", attrs...)
	attrs[0], attrs[1] = Str("task", "changed"), Int("shard", 9)
	sp.End()
	for _, sd := range rec.Snapshot(0)[0].Spans() {
		if len(sd.Attrs) != 2 || sd.Attrs[0].Value() != "t1" || sd.Attrs[1].Value() != int64(1) {
			t.Fatalf("%s attrs = %+v, want task=t1 shard=1", sd.Name, sd.Attrs)
		}
	}

	off := NewRecorder(8, 0)
	ctx = context.Background()
	id := strings.Repeat("x", 3)
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := off.Start(ctx, "route", Str("task", id))
		Event(c, "commit", Int("shard", 1), Bool("ok", true))
		sp.SetAttrs(Str("worker", id))
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("unsampled Start/Event allocate %.0f per call, want 0", allocs)
	}
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want any
	}{
		{Str("s", "x"), "x"},
		{Int("i", -5), int64(-5)},
		{Float("f", 2.5), 2.5},
		{Bool("b", true), true},
		{Bool("b", false), false},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Fatalf("Attr %q Value = %v (%T), want %v", c.attr.Key, got, got, c.want)
		}
	}
}

func TestIDStrings(t *testing.T) {
	if s := TraceID(0xabc).String(); s != "0000000000000abc" {
		t.Fatalf("TraceID string = %q", s)
	}
	if len(SpanID(nextID()).String()) != 16 {
		t.Fatal("SpanID string is not 16 hex digits")
	}
}

func TestLoggerTraceCorrelation(t *testing.T) {
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(8, 1)
	ctx, sp := rec.Start(context.Background(), "root")
	logger.LogAttrs(ctx, slog.LevelInfo, "hello", slog.Int("n", 1))
	sp.End()

	var rec2 map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec2); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	if rec2["trace_id"] != sp.TraceID().String() {
		t.Fatalf("trace_id = %v, want %s", rec2["trace_id"], sp.TraceID())
	}
	if rec2["span_id"] != sp.SpanID().String() {
		t.Fatalf("span_id = %v, want %s", rec2["span_id"], sp.SpanID())
	}

	// Untraced context: no correlation attrs.
	buf.Reset()
	logger.LogAttrs(context.Background(), slog.LevelInfo, "plain")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("untraced log line carries trace_id: %s", buf.String())
	}
}

func TestLoggerFlagValidation(t *testing.T) {
	if _, err := NewLogger(io.Discard, "nope", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(io.Discard, "info", "yaml"); err == nil {
		t.Fatal("bad format accepted")
	}
	for _, lvl := range []string{"debug", "info", "warn", "error"} {
		for _, f := range []string{"text", "json"} {
			if _, err := NewLogger(io.Discard, lvl, f); err != nil {
				t.Fatalf("NewLogger(%s, %s): %v", lvl, f, err)
			}
		}
	}
}

func TestTreeRendering(t *testing.T) {
	rec := NewRecorder(8, 1)
	ctx, root := rec.Start(context.Background(), "endpoint", Str("method", "POST"))
	_, child := rec.Start(ctx, "solver.lsap")
	time.Sleep(time.Microsecond)
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteTree(&buf, rec.Snapshot(1)[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace ", "endpoint", "solver.lsap", `method="POST"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}
