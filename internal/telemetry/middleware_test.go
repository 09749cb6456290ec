package telemetry

import (
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

func get(h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRequestIDEchoAndGeneration(t *testing.T) {
	var seen string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}), RequestID())

	// A valid client-supplied ID is adopted and echoed.
	rec := get(h, "/x", map[string]string{RequestIDHeader: "client-id-42"})
	if seen != "client-id-42" {
		t.Errorf("handler saw request ID %q, want client-id-42", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "client-id-42" {
		t.Errorf("response echoed %q, want client-id-42", got)
	}

	// No header → a fresh 16-hex-char ID, also echoed.
	rec = get(h, "/x", nil)
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(seen) {
		t.Errorf("generated ID %q is not 16 hex chars", seen)
	}
	if rec.Header().Get(RequestIDHeader) != seen {
		t.Error("generated ID not echoed on the response")
	}

	// A hostile header (control bytes) is discarded, not propagated.
	get(h, "/x", map[string]string{RequestIDHeader: "bad\x01id"})
	if strings.Contains(seen, "\x01") {
		t.Errorf("unsanitized ID %q reached the handler", seen)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	// A slow backend must observe context.DeadlineExceeded when the
	// inbound X-Deadline-Ms budget runs out before it finishes.
	errCh := make(chan error, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			errCh <- r.Context().Err()
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-time.After(5 * time.Second):
			errCh <- nil
		}
	})
	h := Chain(slow, Deadline(0))
	get(h, "/x", map[string]string{DeadlineHeader: "25"})
	select {
	case err := <-errCh:
		if err != context.DeadlineExceeded {
			t.Errorf("handler context error = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never observed the deadline")
	}

	// max caps an oversized budget.
	hCapped := Chain(slow, Deadline(20*time.Millisecond))
	get(hCapped, "/x", map[string]string{DeadlineHeader: "60000"})
	select {
	case err := <-errCh:
		if err != context.DeadlineExceeded {
			t.Errorf("capped budget: context error = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cap was not applied")
	}

	// An exhausted budget is refused before the handler runs.
	ran := false
	h2 := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { ran = true }), Deadline(0))
	rec := get(h2, "/x", map[string]string{DeadlineHeader: "0"})
	if rec.Code != http.StatusGatewayTimeout || ran {
		t.Errorf("exhausted budget: status=%d ran=%v, want 504 and no handler run", rec.Code, ran)
	}
	// A malformed header is the client's error.
	rec = get(h2, "/x", map[string]string{DeadlineHeader: "soon"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed header: status=%d, want 400", rec.Code)
	}
	// No header passes through untouched.
	rec = get(h2, "/x", nil)
	if !ran || rec.Code != http.StatusOK {
		t.Errorf("no header: status=%d ran=%v, want 200 and handler run", rec.Code, ran)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	reg := NewRegistry()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Recover(reg))
	rec := get(h, "/x", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := reg.CounterValue("http_panics_total"); got != 1 {
		t.Errorf("http_panics_total = %d, want 1", got)
	}
	// A panic after the response started can't rewrite the status, but
	// must still be counted and recovered.
	h2 := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late boom")
	}), Recover(reg))
	rec = get(h2, "/x", nil)
	if rec.Code != http.StatusAccepted {
		t.Errorf("late panic rewrote status to %d", rec.Code)
	}
	if got := reg.CounterValue("http_panics_total"); got != 2 {
		t.Errorf("http_panics_total = %d, want 2", got)
	}
}

func TestMetricsMiddleware(t *testing.T) {
	reg := NewRegistry()
	route := func(r *http.Request) string { return "/fixed" }
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.Write([]byte("ok")) // implicit 200
	}), Metrics(reg, route))
	get(h, "/a", nil)
	get(h, "/a", nil)
	get(h, "/missing", nil)
	if got := reg.CounterValue("http_requests_total", L("route", "/fixed"), L("code", "200")); got != 2 {
		t.Errorf("200 count = %d, want 2", got)
	}
	if got := reg.CounterValue("http_requests_total", L("route", "/fixed"), L("code", "404")); got != 1 {
		t.Errorf("404 count = %d, want 1", got)
	}
	snaps := reg.HistogramSnapshots("http_request_duration_seconds")
	if s, ok := snaps["route=/fixed"]; !ok || s.Count != 3 {
		t.Errorf("duration histogram count = %d (ok=%v), want 3", s.Count, ok)
	}
	// In-flight must return to zero once requests complete.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "http_inflight_requests 0") {
		t.Errorf("in-flight gauge did not return to 0:\n%s", b.String())
	}
}

// TestChainOrder pins the composition contract: Chain(h, a, b) runs a
// outermost — the order both binaries rely on (request ID before
// metrics before deadline before recovery).
func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order = append(order, "handler")
	}), mk("outer"), mk("inner"))
	get(h, "/x", nil)
	if strings.Join(order, ",") != "outer,inner,handler" {
		t.Errorf("execution order = %v", order)
	}
}

// TestStatusWriterPreservesFlusher guards the streaming-ingest
// contract: wrapping must not hide http.Flusher or the Unwrap path
// http.ResponseController uses for EnableFullDuplex.
func TestStatusWriterPreservesFlusher(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("Flusher lost through middleware")
		}
		rc := http.NewResponseController(w)
		if err := rc.Flush(); err != nil {
			t.Errorf("ResponseController.Flush: %v", err)
		}
	}), RequestID(), Metrics(NewRegistry(), func(*http.Request) string { return "x" }), Recover(NewRegistry()))
	get(h, "/x", nil)
}

// TestTracingKeepReason drives finished requests through Tracing and
// checks which traces_kept_total reason each one lands under: a 5xx is
// an "error" however fast or slow it was, a slow success an
// "slo_breach", and an exempt probe's 5xx or a fast success is not
// kept when sampling keeps nothing.
func TestTracingKeepReason(t *testing.T) {
	for _, tc := range []struct {
		name   string
		path   string
		status int
		slow   bool
		want   string // "" = not kept
	}{
		{"fast 500", "/search", 500, false, "error"},
		{"slow 200", "/search", 200, true, "slo_breach"},
		{"slow 500", "/search", 500, true, "error"},
		{"503 on exempt probe", "/readyz", 503, false, ""},
		{"fast 200", "/search", 200, false, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Fast rows get an hour's threshold, so that no load on the
			// test machine can make them slow.
			cfg := TracerConfig{SampleEvery: -1, SlowerThan: time.Hour, Exempt: []string{"/healthz", "/readyz"}}
			if tc.slow {
				cfg.SlowerThan = time.Millisecond
			}
			reg := NewRegistry()
			tr := NewTracer(cfg)
			tr.Register(reg)
			h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.slow {
					time.Sleep(2 * time.Millisecond)
				}
				w.WriteHeader(tc.status)
			}), Tracing(tr, func(r *http.Request) string { return r.URL.Path }))
			get(h, tc.path, nil)

			for _, reason := range []string{"error", "slo_breach", "sampled"} {
				want := uint64(0)
				if reason == tc.want {
					want = 1
				}
				if got := reg.CounterValue("traces_kept_total", L("reason", reason)); got != want {
					t.Errorf("traces_kept_total{reason=%q} = %d, want %d", reason, got, want)
				}
			}
			kept := tr.Traces(0, "")
			if tc.want == "" {
				if len(kept) != 0 {
					t.Fatalf("kept %+v, want nothing", kept)
				}
				return
			}
			if len(kept) != 1 || kept[0].Reason != tc.want || kept[0].Status != tc.status || kept[0].Root != tc.path {
				t.Fatalf("kept %+v, want one %s trace of %s with status %d", kept, tc.want, tc.path, tc.status)
			}
		})
	}
}
