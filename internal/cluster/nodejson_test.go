package cluster

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestNodeJSONUnencodable: a shard node answering with a value
// encoding/json refuses (NaN, ±Inf) must not send the intended status
// with an empty or cut body, which a router would read as a
// successful empty reply. The body is encoded first; on failure the
// node answers 500 with a JSON error.
func TestNodeJSONUnencodable(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		nodeJSON(rec, http.StatusOK, map[string]float64{"score": v})
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%v: status %d, want 500", v, rec.Code)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
			t.Fatalf("%v: body %q is not a JSON error (%v)", v, rec.Body.String(), err)
		}
	}
	rec := httptest.NewRecorder()
	nodeJSON(rec, http.StatusAccepted, map[string]int{"ok": 1})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\"ok\":1}\n" {
		t.Fatalf("encodable value: %d %q", rec.Code, rec.Body.String())
	}
	if cl := rec.Header().Get("Content-Length"); cl != "9" {
		t.Fatalf("Content-Length %q, want 9", cl)
	}
}
