package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	const good = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	tid, pid, ok := ParseTraceparent(good)
	if !ok || tid != "0123456789abcdef0123456789abcdef" || pid != "0123456789abcdef" {
		t.Fatalf("valid header rejected: %q %q %v", tid, pid, ok)
	}
	bad := []string{
		"",
		"garbage",
		good[:54],             // truncated
		"01" + good[2:],       // unknown version
		strings.ToUpper(good), // uppercase hex is invalid per W3C
		"00-" + strings.Repeat("0", 32) + "-0123456789abcdef-01",                 // all-zero trace
		"00-0123456789abcdef0123456789abcdef-" + strings.Repeat("0", 16) + "-01", // all-zero span
		"00-0123456789abcdefg123456789abcdef-0123456789abcdef-01",                // non-hex
	}
	for _, v := range bad {
		if _, _, ok := ParseTraceparent(v); ok {
			t.Errorf("accepted malformed traceparent %q", v)
		}
	}
}

// TestTraceparentStitching: the header rendered at the router parses
// on the node into the same trace ID, with the node's root span
// parented under the router's current span — the cross-process
// stitch.
func TestTraceparentStitching(t *testing.T) {
	router := NewTracer(TracerConfig{})
	ctx, root := router.StartTrace(context.Background(), "/search", "")
	ctx, rpc := StartSpan(ctx, "rpc.search")

	hop := Traceparent(ctx)
	if hop == "" {
		t.Fatal("no traceparent rendered inside a traced request")
	}
	tid, pid, ok := ParseTraceparent(hop)
	if !ok {
		t.Fatalf("rendered traceparent does not parse: %q", hop)
	}
	if tid != TraceIDFrom(ctx) {
		t.Fatalf("hop trace ID %s != context trace ID %s", tid, TraceIDFrom(ctx))
	}
	if pid != rpc.SpanID() {
		t.Fatalf("hop parent %s != current span %s", pid, rpc.SpanID())
	}

	node := NewTracer(TracerConfig{SampleEvery: 1})
	nctx, nroot := node.StartTrace(context.Background(), "/shard/search", hop)
	if TraceIDFrom(nctx) != tid {
		t.Fatalf("node adopted trace %s, want %s", TraceIDFrom(nctx), tid)
	}
	nroot.End(nil)
	node.Finish(TraceFrom(nctx), 200, 0)
	kept := node.Traces(1, "")
	if len(kept) != 1 || kept[0].ID != tid {
		t.Fatalf("node capture = %+v, want trace %s", kept, tid)
	}
	if got := kept[0].Spans[0].ParentID; got != rpc.SpanID() {
		t.Fatalf("node root parent = %s, want router rpc span %s", got, rpc.SpanID())
	}
	rpc.End(nil)
	root.End(nil)
}

// TestSpanTree: children parent under the innermost open span, and
// sibling goroutines forked from the same context share a parent.
func TestSpanTree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "req", "")
	fctx, fanout := StartSpan(ctx, "shard_fanout")
	_, a := StartSpan(fctx, "shard_read")
	_, b := StartSpan(fctx, "shard_read")
	a.End(nil)
	b.End(errors.New("boom"))
	fanout.End(nil)
	root.End(nil)
	tr.Finish(TraceFrom(ctx), 500, 0)

	kept := tr.Traces(1, "")
	if len(kept) != 1 {
		t.Fatalf("kept %d traces, want 1", len(kept))
	}
	spans := kept[0].Spans
	if len(spans) != 4 {
		t.Fatalf("captured %d spans, want 4", len(spans))
	}
	if spans[0].Name != "req" || spans[0].ParentID != "" {
		t.Fatalf("root span = %+v", spans[0])
	}
	if spans[1].ParentID != spans[0].SpanID {
		t.Fatal("fanout span not parented under root")
	}
	for _, reader := range []int{2, 3} {
		if spans[reader].ParentID != spans[1].SpanID {
			t.Fatalf("shard_read span %d not parented under fanout", reader)
		}
	}
	if spans[3].Error != "boom" {
		t.Fatalf("error not recorded on failed span: %+v", spans[3])
	}
}

// TestTailCapture: breaches and errors are always kept, healthy
// traces only 1-in-SampleEvery.
func TestTailCapture(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 64, SampleEvery: 4, SlowerThan: 100 * time.Millisecond})
	finish := func(name string, status int, dur time.Duration) {
		ctx, root := tr.StartTrace(context.Background(), name, "")
		root.End(nil)
		tr.Finish(TraceFrom(ctx), status, dur)
	}
	for i := 0; i < 8; i++ {
		finish("healthy", 200, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		finish("breach", 200, time.Second)
	}
	finish("errored", 500, time.Millisecond)

	var healthy, breach, errored int
	for _, ct := range tr.Traces(0, "") {
		switch ct.Reason {
		case "sampled":
			healthy++
		case "slo_breach":
			breach++
		case "error":
			errored++
		}
	}
	if healthy != 2 {
		t.Errorf("kept %d healthy traces of 8 at SampleEvery=4, want 2", healthy)
	}
	if breach != 3 || errored != 1 {
		t.Errorf("kept breach=%d errored=%d, want 3 and 1 (always kept)", breach, errored)
	}

	// SampleEvery=1 keeps every healthy trace (n%1 is never 1, so the
	// keep-all case must not fall through the modulo).
	all := NewTracer(TracerConfig{SampleEvery: 1})
	for i := 0; i < 3; i++ {
		ctx, root := all.StartTrace(context.Background(), "healthy", "")
		root.End(nil)
		all.Finish(TraceFrom(ctx), 200, 0)
	}
	if n := len(all.Traces(0, "")); n != 3 {
		t.Errorf("SampleEvery=1 kept %d of 3 healthy traces, want all", n)
	}

	// Negative SampleEvery keeps breaches only.
	strict := NewTracer(TracerConfig{SampleEvery: -1})
	ctx, root := strict.StartTrace(context.Background(), "healthy", "")
	root.End(nil)
	strict.Finish(TraceFrom(ctx), 200, 0)
	if n := len(strict.Traces(0, "")); n != 0 {
		t.Errorf("SampleEvery=-1 kept %d healthy traces, want 0", n)
	}
}

// keptReason roots a trace on name, finishes it with status and dur,
// and returns the reason it was kept under ("" = not kept).
func keptReason(tr *Tracer, name string, status int, dur time.Duration) string {
	ctx, root := tr.StartTrace(context.Background(), name, "")
	root.End(nil)
	before := len(tr.Traces(0, ""))
	tr.Finish(TraceFrom(ctx), status, dur)
	kept := tr.Traces(0, "")
	if len(kept) == before {
		return ""
	}
	return kept[0].Reason
}

// TestSLOBreached: a request slower than SlowerThan breaches the
// latency objective and is kept as "slo_breach"; a 5xx is kept as
// "error" however fast it was; a fast success is not kept when
// sampling keeps nothing.
func TestSLOBreached(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1, SlowerThan: 100 * time.Millisecond})
	if got := keptReason(tr, "/ask", 200, 50*time.Millisecond); got != "" {
		t.Errorf("fast 200 kept as %q", got)
	}
	if got := keptReason(tr, "/ask", 200, 200*time.Millisecond); got != "slo_breach" {
		t.Errorf("slow 200 kept as %q, want slo_breach", got)
	}
	if got := keptReason(tr, "/ask", 500, time.Millisecond); got != "error" {
		t.Errorf("fast 500 kept as %q, want error", got)
	}
	if got := keptReason(tr, "/ask", 200, 100*time.Millisecond); got != "" {
		t.Errorf("200 exactly at SlowerThan kept as %q, want not kept", got)
	}
	// No threshold set: latency alone never keeps a trace.
	off := NewTracer(TracerConfig{SampleEvery: -1})
	if got := keptReason(off, "/ask", 200, time.Hour); got != "" {
		t.Errorf("SlowerThan=0 kept an hour-long 200 as %q", got)
	}
	var nilTracer *Tracer
	nilTracer.Finish(nil, 500, time.Hour) // must not panic
}

// TestSLOExempt: probe routes opt out of the keep rules entirely — a
// booting node's /readyz 503s are expected signals, and must not be
// kept as errors or breaches (which would fill the trace ring).
func TestSLOExempt(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1, SlowerThan: 100 * time.Millisecond, Exempt: []string{"/readyz"}})
	if got := keptReason(tr, "/readyz", 503, time.Second); got != "" {
		t.Errorf("exempt route's slow 503 kept as %q", got)
	}
	if got := keptReason(tr, "/ask", 503, time.Second); got != "error" {
		t.Errorf("non-exempt route's 503 kept as %q, want error", got)
	}
	// An exempt route is still sampled like any healthy request.
	all := NewTracer(TracerConfig{SampleEvery: 1, SlowerThan: 100 * time.Millisecond, Exempt: []string{"/readyz"}})
	if got := keptReason(all, "/readyz", 503, time.Second); got != "sampled" {
		t.Errorf("exempt route at SampleEvery=1 kept as %q, want sampled", got)
	}
}

// TestTracerRingEviction: the ring holds Capacity traces, oldest out.
func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 2})
	for _, name := range []string{"one", "two", "three"} {
		ctx, root := tr.StartTrace(context.Background(), name, "")
		root.End(nil)
		tr.Finish(TraceFrom(ctx), 500, 0)
	}
	kept := tr.Traces(0, "")
	if len(kept) != 2 {
		t.Fatalf("ring holds %d, want 2", len(kept))
	}
	if kept[0].Root != "three" || kept[1].Root != "two" {
		t.Fatalf("newest-first order wrong: %s, %s", kept[0].Root, kept[1].Root)
	}
}

// TestTraceHandler: /debug/traces serves counters, captures, and the
// histogram exemplars that link a latency bucket to a trace ID.
func TestTraceHandler(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{})
	tr.Register(reg)

	ctx, root := tr.StartTrace(context.Background(), "/ask", "")
	id := TraceIDFrom(ctx)
	reg.Histogram("stage_duration_seconds", "stage latency", nil, L("stage", "embed")).
		ObserveCtx(ctx, 0.2)
	root.End(nil)
	tr.Finish(TraceFrom(ctx), 504, 0)

	rec := httptest.NewRecorder()
	tr.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Started uint64 `json:"traces_started"`
		Errors  uint64 `json:"kept_error"`
		Traces  []struct {
			ID     string `json:"id"`
			Root   string `json:"root"`
			Status int    `json:"status"`
			Reason string `json:"reason"`
		} `json:"traces"`
		Exemplars map[string][]struct {
			Buckets []struct {
				LE      string `json:"le"`
				TraceID string `json:"trace_id"`
			} `json:"buckets"`
		} `json:"exemplars"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Started != 1 || resp.Errors != 1 {
		t.Fatalf("counters started=%d errors=%d", resp.Started, resp.Errors)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].ID != id ||
		resp.Traces[0].Root != "/ask" || resp.Traces[0].Status != 504 ||
		resp.Traces[0].Reason != "error" {
		t.Fatalf("traces = %+v", resp.Traces)
	}
	series, ok := resp.Exemplars["stage_duration_seconds"]
	if !ok || len(series) == 0 {
		t.Fatalf("no exemplars for stage_duration_seconds: %v", resp.Exemplars)
	}
	found := false
	for _, b := range series[0].Buckets {
		if b.TraceID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("no bucket exemplar links to trace %s", id)
	}
}

// TestExemplarsOnlyForKeptTraces: a histogram observation under a
// trace the sampler drops must not publish a bucket exemplar, so
// every exemplar link served by /debug/traces resolves in the ring.
func TestExemplarsOnlyForKeptTraces(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(TracerConfig{SampleEvery: -1}) // keep errors only
	h := reg.Histogram("stage_duration_seconds", "stage latency", nil, L("stage", "embed"))

	// Healthy trace: sampled out, so its observation counts in the
	// bucket but leaves no exemplar behind.
	ctx, root := tr.StartTrace(context.Background(), "/ask", "")
	h.ObserveCtx(ctx, 0.2)
	root.End(nil)
	tr.Finish(TraceFrom(ctx), 200, 0)
	if ex := reg.Exemplars(); len(ex) != 0 {
		t.Fatalf("dropped trace published exemplars: %v", ex)
	}
	if got := h.Snapshot().Count; got != 1 {
		t.Fatalf("observation count = %d, want 1 (only the exemplar is withheld)", got)
	}

	// Failed trace: kept, so its observation is stamped.
	bctx, broot := tr.StartTrace(context.Background(), "/ask", "")
	bid := TraceIDFrom(bctx)
	h.ObserveCtx(bctx, 0.2)
	broot.End(nil)
	tr.Finish(TraceFrom(bctx), 504, 0)
	series := reg.Exemplars()["stage_duration_seconds"]
	if len(series) == 0 {
		t.Fatal("kept trace published no exemplars")
	}
	found := false
	for _, b := range series[0].Buckets {
		if b.TraceID == bid {
			found = true
		}
	}
	if !found {
		t.Fatalf("kept trace %s not linked from any bucket exemplar", bid)
	}

	// Outside any trace, ObserveCtx records plain observations.
	h.ObserveCtx(context.Background(), 0.2)
	if got := h.Snapshot().Count; got != 3 {
		t.Fatalf("observation count = %d, want 3", got)
	}
}

// TestUntracedPathsAreNilSafe: every traced call site runs outside a
// trace with nil spans and no allocation of trace state.
func TestUntracedPathsAreNilSafe(t *testing.T) {
	ctx := context.Background()
	octx, sp := StartSpan(ctx, "anything")
	if sp != nil || octx != ctx {
		t.Fatal("StartSpan outside a trace must be a no-op")
	}
	sp.Annotate("k", "v")
	sp.Event("msg")
	sp.End(nil)
	if Traceparent(ctx) != "" {
		t.Fatal("Traceparent outside a trace must be empty")
	}
	var tr *Tracer
	cctx, root := tr.StartTrace(ctx, "x", "")
	if root != nil || cctx != ctx {
		t.Fatal("nil Tracer must not root traces")
	}
	tr.Finish(nil, 500, time.Hour)
	if tr.Traces(0, "") != nil {
		t.Fatal("nil Tracer must report no traces")
	}
}
