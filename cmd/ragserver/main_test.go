package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// newTestServer builds an un-seeded server on the serving layer.
func newTestServer(t *testing.T) *server {
	t.Helper()
	s, err := newServer(serve.Config{TopK: 2, Threshold: 3.2}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.core.Load().Close() })
	return s
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" {
		t.Errorf("health = %v", out)
	}
}

// TestReadyzGating: before init completes the listener is alive
// (/healthz 200, ready:false) but /readyz and every data endpoint
// answer 503; after init, /readyz flips to 200.
func TestReadyzGating(t *testing.T) {
	s := &server{} // core not yet initialized — the pre-recovery window
	h := s.routes()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz during init = %d, want 200", rec.Code)
	}
	var health struct {
		Ready bool `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Ready {
		t.Error("healthz claims ready before init")
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during init = %d, want 503", rec.Code)
	}
	if rec := postJSON(t, h, "/ask", map[string]string{"question": "q"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("ask during init = %d, want 503", rec.Code)
	}
	if rec := postJSON(t, h, "/search", map[string]interface{}{"query": "q"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("search during init = %d, want 503", rec.Code)
	}

	ready := newTestServer(t)
	rec = httptest.NewRecorder()
	ready.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("readyz after init = %d, want 200", rec.Code)
	}
}

func TestIngestAskVerifyFlow(t *testing.T) {
	s := newTestServer(t)
	h := s.routes()

	// Ingest a small handbook.
	doc := "The store operates from 9 AM to 5 PM, from Sunday to Saturday. " +
		"There should be at least three shopkeepers to run a shop. " +
		"Employees are entitled to 14 days of paid annual leave per year."
	rec := postJSON(t, h, "/ingest", map[string]string{"text": doc})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var ing struct {
		Chunks int `json:"chunks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Chunks == 0 {
		t.Fatal("no chunks ingested")
	}

	// Ask a question through the verified pipeline.
	rec = postJSON(t, h, "/ask", map[string]string{"question": "What are the working hours?"})
	if rec.Code != http.StatusOK {
		t.Fatalf("ask status %d: %s", rec.Code, rec.Body)
	}
	var ans struct {
		Response string `json:"response"`
		Verdict  struct {
			Score     float64 `json:"score"`
			Sentences []struct {
				Sentence string `json:"sentence"`
			} `json:"sentences"`
		} `json:"verdict"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Response == "" || len(ans.Verdict.Sentences) == 0 {
		t.Fatalf("incomplete answer: %s", rec.Body)
	}

	// Verify a known hallucination directly.
	rec = postJSON(t, h, "/verify", map[string]string{
		"question": "What are the working hours?",
		"context":  doc,
		"response": "The working hours are 9 AM to 9 PM. You do not need to work on weekends.",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("verify status %d: %s", rec.Code, rec.Body)
	}
	var bad struct {
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &bad); err != nil {
		t.Fatal(err)
	}
	rec = postJSON(t, h, "/verify", map[string]string{
		"question": "What are the working hours?",
		"context":  doc,
		"response": "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday.",
	})
	var good struct {
		Score float64 `json:"score"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &good); err != nil {
		t.Fatal(err)
	}
	if good.Score <= bad.Score {
		t.Errorf("grounded score %.3f not above hallucinated %.3f", good.Score, bad.Score)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t)
	h := s.routes()

	// Wrong method.
	req := httptest.NewRequest(http.MethodGet, "/ask", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ask status = %d", rec.Code)
	}
	// Malformed JSON.
	req = httptest.NewRequest(http.MethodPost, "/ask", bytes.NewReader([]byte("{")))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed /ask status = %d", rec.Code)
	}
	// Empty question.
	rec = postJSON(t, h, "/ask", map[string]string{"question": ""})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty question status = %d", rec.Code)
	}
	// Verify with empty response.
	rec = postJSON(t, h, "/verify", map[string]string{"question": "q", "context": "c", "response": ""})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty response status = %d", rec.Code)
	}
	// Ingest with empty text, scoped or not.
	for _, body := range []map[string]string{{"text": ""}, {"text": "", "collection": "t"}} {
		rec = postJSON(t, h, "/ingest", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("ingest %v status = %d", body, rec.Code)
		}
	}
}

func TestSeedDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("seeding calibrates on 360 responses")
	}
	s, err := newServer(serve.Config{TopK: 2, Threshold: 3.2}, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.core.Load().Close() })
	if s.core.Load().Store().Len() == 0 {
		t.Error("demo seed indexed nothing")
	}
}

// TestStatsEndpoint: GET /stats exposes shard sizes and cache counters
// after traffic has flowed. The verdict cache only engages
// once the detector is calibrated (frozen), so this server calibrates
// on a tiny fixture first.
func TestStatsEndpoint(t *testing.T) {
	doc := "The store operates from 9 AM to 5 PM, from Sunday to Saturday. " +
		"Employees are entitled to 14 days of paid annual leave per year."
	det, err := core.NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Calibrate(context.Background(), []core.Triple{
		{Question: "What are the working hours?", Context: doc, Response: doc},
	}); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(serve.Config{TopK: 2, Threshold: 3.2, Detector: det}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.core.Load().Close() })
	h := s.routes()
	if rec := postJSON(t, h, "/ingest", map[string]string{"text": doc}); rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	// Same question twice: the second answer must come from the verdict
	// cache.
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h, "/ask", map[string]string{"question": "What are the working hours?"}); rec.Code != http.StatusOK {
			t.Fatalf("ask %d status %d: %s", i, rec.Code, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d: %s", rec.Code, rec.Body)
	}
	var st serve.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Docs == 0 || len(st.ShardSizes) == 0 {
		t.Errorf("stats missing shard data: %+v", st)
	}
	if st.Requests.Asks != 2 || st.Requests.Ingests != 1 {
		t.Errorf("request counters wrong: %+v", st.Requests)
	}
	if st.VerdictCache.Hits == 0 {
		t.Errorf("repeated ask did not hit the verdict cache: %+v", st.VerdictCache)
	}
	// Persistence metrics are present (and report disabled on a
	// memory-only server).
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["persist"]; !ok {
		t.Errorf("stats missing persist section: %s", rec.Body)
	}
	if st.Persist.Enabled {
		t.Errorf("memory-only server reports persistence enabled: %+v", st.Persist)
	}
	// POST /stats is rejected.
	rec = postJSON(t, h, "/stats", map[string]string{})
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status = %d", rec.Code)
	}
}

func TestIngestBulkEndpoint(t *testing.T) {
	s := newTestServer(t)
	h := s.routes()
	rec := postJSON(t, h, "/ingest/bulk", map[string][]string{"texts": {
		"The store operates from 9 AM to 5 PM every day of the week.",
		"Employees are entitled to 14 days of paid annual leave per year.",
		"At least three shopkeepers are required to run a shop.",
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("bulk ingest status %d: %s", rec.Code, rec.Body)
	}
	var out struct {
		Docs   int `json:"docs"`
		Chunks int `json:"chunks"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Docs != 3 || out.Chunks < 3 {
		t.Errorf("bulk ingest = %+v", out)
	}
	if got := s.core.Load().Store().Len(); got != out.Chunks {
		t.Errorf("store holds %d chunks, response said %d", got, out.Chunks)
	}
	// Empty and malformed bodies are rejected.
	if rec := postJSON(t, h, "/ingest/bulk", map[string][]string{"texts": {}}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty bulk ingest status = %d", rec.Code)
	}
}

func TestDocumentEndpointNotFoundMapping(t *testing.T) {
	s := newTestServer(t)
	h := s.routes()
	rec := postJSON(t, h, "/ingest", map[string]string{"text": "The probation period lasts three months."})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d", rec.Code)
	}
	// A stored document is retrievable and deletable.
	req := httptest.NewRequest(http.MethodGet, "/documents/1", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /documents/1 status = %d: %s", rec.Code, rec.Body)
	}
	req = httptest.NewRequest(http.MethodDelete, "/documents/1", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /documents/1 status = %d: %s", rec.Code, rec.Body)
	}
	// Absent IDs map to 404 — typed ErrNotFound, not a 500.
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req := httptest.NewRequest(method, "/documents/1", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s deleted doc status = %d, want 404", method, rec.Code)
		}
	}
	// Garbage IDs are 400.
	req = httptest.NewRequest(http.MethodGet, "/documents/banana", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("GET /documents/banana status = %d, want 400", rec.Code)
	}
}

func TestCheckpointEndpointRequiresDataDir(t *testing.T) {
	s := newTestServer(t)
	rec := postJSON(t, s.routes(), "/admin/checkpoint", map[string]string{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("checkpoint on memory-only server status = %d, want 400", rec.Code)
	}
}

// newDurableServer builds a server persisting to dir with the
// background checkpointer disabled, so tests decide when state moves
// from WAL to checkpoint.
func newDurableServer(t *testing.T, dir string) *server {
	t.Helper()
	s, err := newServer(serve.Config{
		TopK: 2, Threshold: 3.2, Shards: 2, DataDir: dir,
		Persist: serve.PersistConfig{CheckpointEvery: -1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// getJSON performs a GET and returns the recorder.
func getJSON(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRecoveryServesIdenticalResults is the acceptance path: a server
// with -data-dir is loaded, checkpointed mid-stream, loaded some more,
// then dies without a graceful shutdown; the restarted server answers
// /search identically with zero re-ingestion, having replayed the
// post-checkpoint WAL records on top of the checkpoint.
func TestRecoveryServesIdenticalResults(t *testing.T) {
	dir := t.TempDir()
	s1 := newDurableServer(t, dir)
	h1 := s1.routes()

	if rec := postJSON(t, h1, "/ingest/bulk", map[string][]string{"texts": {
		"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
		"Employees are entitled to 14 days of paid annual leave per year.",
	}}); rec.Code != http.StatusOK {
		t.Fatalf("bulk ingest status %d: %s", rec.Code, rec.Body)
	}
	// Move the first wave into a checkpoint.
	if rec := postJSON(t, h1, "/admin/checkpoint", map[string]string{}); rec.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", rec.Code, rec.Body)
	}
	// Second wave lives only in the WAL.
	if rec := postJSON(t, h1, "/ingest", map[string]string{
		"text": "At least three shopkeepers are required to run a shop. Overtime is paid at time and a half.",
	}); rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	searchReq := map[string]interface{}{"query": "how many shopkeepers run a shop", "k": 3}
	before := postJSON(t, h1, "/search", searchReq)
	if before.Code != http.StatusOK {
		t.Fatalf("search status %d: %s", before.Code, before.Body)
	}
	var health struct {
		Docs int `json:"docs"`
	}
	if err := json.Unmarshal(getJSON(t, h1, "/healthz").Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	// Crash: s1 is abandoned without Close, so nothing past the explicit
	// checkpoint gets snapshotted — recovery must come from the WAL.

	s2 := newDurableServer(t, dir)
	t.Cleanup(func() { s2.core.Load().Close() })
	h2 := s2.routes()
	var health2 struct {
		Docs int `json:"docs"`
	}
	if err := json.Unmarshal(getJSON(t, h2, "/healthz").Body.Bytes(), &health2); err != nil {
		t.Fatal(err)
	}
	if health2.Docs != health.Docs || health.Docs == 0 {
		t.Fatalf("recovered %d docs, want %d", health2.Docs, health.Docs)
	}
	after := postJSON(t, h2, "/search", searchReq)
	if after.Code != http.StatusOK {
		t.Fatalf("search after recovery status %d: %s", after.Code, after.Body)
	}
	if before.Body.String() != after.Body.String() {
		t.Errorf("search diverged after recovery:\n before %s\n after  %s", before.Body, after.Body)
	}
	var st serve.Snapshot
	if err := json.Unmarshal(getJSON(t, h2, "/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Persist.Enabled {
		t.Error("durable server reports persistence disabled")
	}
	if st.Persist.ReplayedRecords == 0 {
		t.Error("recovery replayed no WAL records — second wave came from nowhere")
	}
}

// TestRouteLabels: every path the mux serves gets its own bounded
// metric label, and a path it does not serve (/slo among them) is
// neither routed nor labelled beyond "other".
func TestRouteLabels(t *testing.T) {
	h := newTestServer(t).routes()
	// muxNotFound is the body of the mux's own 404, which the handlers'
	// JSON errors never match.
	const muxNotFound = "404 page not found\n"
	seen := map[string]string{}
	for _, tc := range []struct{ path, label string }{
		{"/healthz", "/healthz"},
		{"/readyz", "/readyz"},
		{"/stats", "/stats"},
		{"/metrics", "/metrics"},
		{"/debug/traces", "/debug/traces"},
		{"/ingest", "/ingest"},
		{"/ingest/bulk", "/ingest/bulk"},
		{"/ingest/stream", "/ingest/stream"},
		{"/ask", "/ask"},
		{"/verify", "/verify"},
		{"/search", "/search"},
		{"/documents/7", "/documents/{id}"},
		{"/admin/checkpoint", "/admin/checkpoint"},
		{"/admin/resync", "/admin/resync"},
		{"/admin/rebalance", "/admin/rebalance"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if got := routeLabel(req); got != tc.label {
			t.Errorf("routeLabel(%s) = %q, want %q", tc.path, got, tc.label)
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
		if got := routeLabel(req); got != "other" {
			t.Errorf("routeLabel(%s) = %q, want \"other\"", path, got)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound || rec.Body.String() != muxNotFound {
			t.Errorf("%s answered %d %q, want the mux's 404", path, rec.Code, rec.Body.String())
		}
	}
}
