package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// routeAllocBudgets is the most allocations one request may make
// through routes(), the probe's own request, recorder and query text
// included. Lower a budget when a change saves allocations; raising
// one needs a reason.
var routeAllocBudgets = map[string]float64{
	"/healthz":              69,
	"/search repeated":      139,
	"/search unique":        140,
	"/verify verdict-cache": 88,
	"/ask":                  328,
}

// TestRouteAllocBudgets drives each route through routes() on the
// -seed-demo corpus over 2 shards and holds its AllocsPerRun to
// routeAllocBudgets. Every request is warmed once first, so caches,
// pools and lazily created series are in their steady state.
func TestRouteAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race, so counts are not exact")
	}
	s, err := newServer(serve.Config{Shards: 2, TopK: 3, Threshold: 3.2}, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.core.Load().Close() })
	h := s.routes()
	do := func(method, path string, body []byte) {
		var req *http.Request
		if body == nil {
			req = httptest.NewRequest(method, path, nil)
		} else {
			req = httptest.NewRequest(method, path, bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
	}
	unique := 0
	routes := []struct {
		name string
		run  func()
	}{
		{"/healthz", func() { do(http.MethodGet, "/healthz", nil) }},
		{"/search repeated", func() {
			do(http.MethodPost, "/search", []byte(`{"query":"How many days of annual leave?","k":3}`))
		}},
		{"/search unique", func() {
			unique++
			do(http.MethodPost, "/search", []byte(fmt.Sprintf(`{"query":"annual leave after %d years of service","k":3}`, unique)))
		}},
		{"/verify verdict-cache", func() {
			do(http.MethodPost, "/verify", []byte(`{"question":"How many days of annual leave?",`+
				`"context":"Employees are entitled to 14 days of paid annual leave per year.",`+
				`"response":"Employees get 14 days of paid annual leave per year."}`))
		}},
		{"/ask", func() { do(http.MethodPost, "/ask", []byte(`{"question":"How many days of annual leave?"}`)) }},
	}
	for _, r := range routes {
		got := testing.AllocsPerRun(64, r.run)
		t.Logf("%s: %v allocations", r.name, got)
		if budget := routeAllocBudgets[r.name]; got > budget {
			t.Errorf("%s: %v allocations per request, budget %v", r.name, got, budget)
		}
	}
}
