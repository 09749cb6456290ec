package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// headerCapture records the hop headers of every /shard/search request
// a node receives, and stalls the wrapped handler when slow is set —
// the "occasionally slow replica" a hedge races against. The stall
// honors the request context, so a cancelled loser returns promptly.
type headerCapture struct {
	inner http.Handler
	slow  time.Duration

	mu       sync.Mutex
	searches []http.Header
}

func (h *headerCapture) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shard/search" {
		h.mu.Lock()
		h.searches = append(h.searches, r.Header.Clone())
		h.mu.Unlock()
		if h.slow > 0 {
			t := time.NewTimer(h.slow)
			defer t.Stop()
			select {
			case <-r.Context().Done():
				return // client gave up; the 200 never happens
			case <-t.C:
			}
		}
	}
	h.inner.ServeHTTP(w, r)
}

func (h *headerCapture) searchHeaders() []http.Header {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]http.Header, len(h.searches))
	copy(out, h.searches)
	return out
}

// TestHedgedReadPropagation is the end-to-end tail-latency story over
// real HTTP: a slow primary, a hedge fired after HedgeAfter, the
// replica winning the race, and the loser cancelled without a health
// penalty. Along the way it pins the cross-process plumbing — the
// router's deadline and traceparent hop headers must reach BOTH
// attempts, both attempts must appear as spans of one trace, and the
// per-backend outcome counters must record exactly one winner and one
// cancellation.
func TestHedgedReadPropagation(t *testing.T) {
	const dim = 32
	primaryDB, replicaDB := newLocalDB(t, dim), newLocalDB(t, dim)

	primary := &headerCapture{inner: NewNodeHandler(primaryDB, nil), slow: 300 * time.Millisecond}
	replica := &headerCapture{inner: NewNodeHandler(replicaDB, nil)}
	tsPrimary := httptest.NewServer(primary)
	defer tsPrimary.Close()
	tsReplica := httptest.NewServer(replica)
	defer tsReplica.Close()

	reg := telemetry.NewRegistry()
	pb, err := NewHTTPBackend(tsPrimary.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewHTTPBackend(tsReplica.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]ShardBackends{{Primary: pb, Replicas: []Backend{rb}}}, HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100,
		Telemetry:     reg,
		Resilience:    ResilienceConfig{HedgeAfter: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus[:3])

	// One traced, deadlined read. The primary stalls well past
	// HedgeAfter, so the replica must win.
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	ctx, root := tracer.StartTrace(context.Background(), "/search", "")
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()

	vec, _ := vecdb.NewHashedEmbedder(dim)
	v, err := vec.Embed("how many shopkeepers are required")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	hits, err := r.SearchVector(ctx, v, 2, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits from the hedged read")
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Errorf("hedged read took %v — it waited out the slow primary", elapsed)
	}

	st := r.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want 1 and 1", st.Hedges, st.HedgeWins)
	}

	// Exactly one winner on the wire; the loser resolves to a single
	// "canceled" outcome (it finishes asynchronously, so poll).
	okCount := reg.Counter("backend_requests_total",
		"Shard RPCs by backend, op and outcome.",
		telemetry.L("backend", tsReplica.URL), telemetry.L("op", "search"),
		telemetry.L("outcome", "ok"))
	canceledCount := reg.Counter("backend_requests_total",
		"Shard RPCs by backend, op and outcome.",
		telemetry.L("backend", tsPrimary.URL), telemetry.L("op", "search"),
		telemetry.L("outcome", "canceled"))
	deadline := time.Now().Add(2 * time.Second)
	for canceledCount.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := okCount.Value(); got != 1 {
		t.Errorf("replica ok outcomes = %d, want exactly 1 winner", got)
	}
	if got := canceledCount.Value(); got != 1 {
		t.Errorf("primary canceled outcomes = %d, want exactly 1 cancelled loser", got)
	}
	errCount := reg.Counter("backend_requests_total",
		"Shard RPCs by backend, op and outcome.",
		telemetry.L("backend", tsPrimary.URL), telemetry.L("op", "search"),
		telemetry.L("outcome", "error"))
	if got := errCount.Value(); got != 0 {
		t.Errorf("cancelled loser charged as an error %d times", got)
	}

	// The loser's cancellation must not feed the health state machine.
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.State != "healthy" || b.ConsecutiveFailures != 0 {
				t.Errorf("backend %s penalized by a decided hedge race: %+v", b.Name, b)
			}
		}
	}

	// Both attempts saw the deadline and trace hop headers.
	for name, hc := range map[string]*headerCapture{"primary": primary, "replica": replica} {
		hdrs := hc.searchHeaders()
		if len(hdrs) != 1 {
			t.Fatalf("%s served %d searches, want 1", name, len(hdrs))
		}
		if hdrs[0].Get(telemetry.DeadlineHeader) == "" {
			t.Errorf("%s search missing %s", name, telemetry.DeadlineHeader)
		}
		tp := hdrs[0].Get(telemetry.TraceParentHeader)
		tid, _, ok := telemetry.ParseTraceparent(tp)
		if !ok {
			t.Errorf("%s search carried unparseable traceparent %q", name, tp)
		} else if tid != telemetry.TraceIDFrom(ctx) {
			t.Errorf("%s search traced as %s, want %s", name, tid, telemetry.TraceIDFrom(ctx))
		}
	}

	// Both attempts are children of one captured trace: two shard_read
	// spans (one marked hedge=true) and two rpc.search spans under the
	// shard_fanout.
	root.End(nil)
	tracer.Finish(telemetry.TraceFrom(ctx), 200, 0)
	kept := tracer.Traces(1, "")
	if len(kept) != 1 {
		t.Fatalf("captured %d traces, want 1", len(kept))
	}
	var fanoutID string
	var shardReads, rpcSearches, hedgeMarked int
	for _, sp := range kept[0].Spans {
		if sp.Name == "shard_fanout" {
			fanoutID = sp.SpanID
		}
	}
	if fanoutID == "" {
		t.Fatal("no shard_fanout span captured")
	}
	for _, sp := range kept[0].Spans {
		switch sp.Name {
		case "shard_read":
			shardReads++
			if sp.ParentID != fanoutID {
				t.Errorf("shard_read span not parented under shard_fanout: %+v", sp)
			}
			for _, a := range sp.Attrs {
				if a.Name == "hedge" && a.Value == "true" {
					hedgeMarked++
				}
			}
		case "rpc.search":
			rpcSearches++
		}
	}
	if shardReads != 2 {
		t.Errorf("captured %d shard_read spans, want 2 (primary + hedge)", shardReads)
	}
	if hedgeMarked != 1 {
		t.Errorf("%d shard_read spans marked hedge=true, want 1", hedgeMarked)
	}
	if rpcSearches != 2 {
		t.Errorf("captured %d rpc.search spans, want 2", rpcSearches)
	}
	hedgeEvent := false
	for _, ev := range kept[0].Spans[1].Events {
		if ev.Msg == "hedge launched: "+tsReplica.URL {
			hedgeEvent = true
		}
	}
	if !hedgeEvent {
		t.Error("fanout span missing the 'hedge launched' event")
	}
}
