package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// TestNodeServesAfterOpen: the node handler 503s while the store is
// opening, serves the shard protocol once open, and a reopened node
// recovers its documents from the WAL — the per-node durability
// contract the cluster relies on.
func TestNodeServesAfterOpen(t *testing.T) {
	dir := t.TempDir()
	node := &nodeState{}
	ts := httptest.NewServer(cluster.NewNodeHandler(node, node.ready))
	t.Cleanup(ts.Close)
	b, err := cluster.NewHTTPBackend(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Before open: probe fails, data endpoints refuse.
	if err := b.Probe(ctx); err == nil {
		t.Fatal("probe succeeded before open")
	}
	if _, err := b.Stat(ctx); err == nil {
		t.Fatal("stat succeeded before open")
	}

	if err := node.open(dir, 32, serve.IndexConfig{}, storage.SyncNever, -1); err != nil {
		t.Fatal(err)
	}
	if err := b.Probe(ctx); err != nil {
		t.Fatalf("probe after open: %v", err)
	}
	if err := b.Apply(ctx, []vecdb.Mutation{
		{Op: vecdb.OpAdd, ID: 1, Text: "The store operates from 9 AM to 5 PM."},
		{Op: vecdb.OpAdd, ID: 2, Text: "Overtime is paid at time and a half."},
	}); err != nil {
		t.Fatalf("apply: %v", err)
	}
	st, err := b.Stat(ctx)
	if err != nil || st.Len != 2 || st.NextID != 3 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	vec, err := node.store.Load().Embedder().Embed("overtime pay")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := b.SearchVector(ctx, vec, 2, vecdb.Filter{})
	if err != nil || len(hits) != 2 {
		t.Fatalf("search = %d hits, %v", len(hits), err)
	}

	// Crash (no checkpoint) and reopen on the same dir: the WAL brings
	// both documents back.
	node.store.Load().CloseNoCheckpoint()
	node2 := &nodeState{}
	if err := node2.open(dir, 32, serve.IndexConfig{}, storage.SyncNever, -1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node2.store.Load().Close() })
	if got := node2.Len(); got != 2 {
		t.Fatalf("recovered %d docs, want 2", got)
	}
	if node2.NextID() != 3 {
		t.Fatalf("recovered NextID = %d, want 3", node2.NextID())
	}
}

// TestNodeOpenMemoryOnly: without a data dir the node serves from
// memory (the throwaway-bench configuration).
func TestNodeOpenMemoryOnly(t *testing.T) {
	node := &nodeState{}
	if err := node.open("", 16, serve.IndexConfig{}, storage.SyncNever, time.Second); err != nil {
		t.Fatal(err)
	}
	if !node.ready() {
		t.Fatal("node not ready after open")
	}
	if err := node.ApplyAll([]vecdb.Mutation{{Op: vecdb.OpAdd, ID: 7, Text: "x"}}); err != nil {
		t.Fatal(err)
	}
	if node.Len() != 1 || node.NextID() != 8 {
		t.Fatalf("len=%d nextID=%d", node.Len(), node.NextID())
	}
}

// TestNodeRouteLabels: every path the node serves gets its own bounded
// metric label, and a path it does not serve (/slo among them) is
// neither routed nor labelled beyond "other".
func TestNodeRouteLabels(t *testing.T) {
	reg := telemetry.NewRegistry()
	node := &nodeState{reg: reg}
	h := nodeRoutes(node, reg, telemetry.NewTracer(telemetry.TracerConfig{}), false)
	// muxNotFound is the body of the mux's own 404, which the handlers'
	// errors never match.
	const muxNotFound = "404 page not found\n"
	seen := map[string]string{}
	for _, tc := range []struct{ path, label string }{
		{"/shard/search", "/shard/search"},
		{"/shard/apply", "/shard/apply"},
		{"/shard/documents/7", "/shard/documents/{id}"},
		{"/shard/stat", "/shard/stat"},
		{"/shard/mutations", "/shard/mutations"},
		{"/shard/resync", "/shard/resync"},
		{"/shard/snapshot", "/shard/snapshot"},
		{"/shard/epoch", "/shard/epoch"},
		{"/healthz", "/healthz"},
		{"/readyz", "/readyz"},
		{"/stats", "/stats"},
		{"/metrics", "/metrics"},
		{"/debug/traces", "/debug/traces"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if got := nodeRouteLabel(req); got != tc.label {
			t.Errorf("nodeRouteLabel(%s) = %q, want %q", tc.path, got, tc.label)
		}
		if prev, dup := seen[tc.label]; dup {
			t.Errorf("%s and %s share the label %q", prev, tc.path, tc.label)
		}
		seen[tc.label] = tc.path
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Body.String() == muxNotFound {
			t.Errorf("%s is not registered on the mux", tc.path)
		}
	}
	for _, path := range []string{`/slo`, "/no/such/route"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if got := nodeRouteLabel(req); got != "other" {
			t.Errorf("nodeRouteLabel(%s) = %q, want \"other\"", path, got)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound || rec.Body.String() != muxNotFound {
			t.Errorf("%s answered %d %q, want the mux's 404", path, rec.Code, rec.Body.String())
		}
	}
}
