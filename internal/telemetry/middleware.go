package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"
)

// Hop headers carried between ragserver and shardnode so one user
// query is traceable (and deadline-bounded) across the cluster.
const (
	// RequestIDHeader carries the request ID on both inbound requests
	// and outbound backend hops, and is echoed on every response.
	RequestIDHeader = "X-Request-ID"
	// DeadlineHeader carries the remaining request budget in integer
	// milliseconds on router→shardnode hops.
	DeadlineHeader = "X-Deadline-Ms"
)

type contextKey int

const requestIDKey contextKey = iota

// WithRequestID returns ctx carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the request ID carried by ctx, or "".
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

var ridFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", ridFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID keeps client-supplied IDs loggable: printable
// ASCII, capped length. Anything else is discarded so a hostile
// header can't inject log lines or unbounded bytes.
func sanitizeRequestID(id string) string {
	if len(id) > 128 {
		id = id[:128]
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// Middleware is one composable layer of per-request behaviour.
type Middleware func(http.Handler) http.Handler

// Chain wraps h with mws so that mws[0] is the outermost layer —
// Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// statusWriter records the response status while preserving the
// optional interfaces the handlers rely on: Flush for streaming
// endpoints and Unwrap for http.ResponseController (EnableFullDuplex
// in the NDJSON ingest handler).
type statusWriter struct {
	http.ResponseWriter
	status  int
	started bool
}

// wrapWriter reuses an enclosing middleware's statusWriter instead of
// stacking a second one.
func wrapWriter(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w}
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.started {
		w.status, w.started = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.started {
		w.status, w.started = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) statusCode() int {
	if !w.started {
		return http.StatusOK
	}
	return w.status
}

// RequestID is the outermost middleware: it adopts a valid inbound
// X-Request-ID or generates one, stores it in the request context
// (where outbound cluster hops pick it up), and echoes it on the
// response so clients can quote it in bug reports.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
			if id == "" {
				id = NewRequestID()
			}
			w.Header().Set(RequestIDHeader, id)
			next.ServeHTTP(w, r.WithContext(WithRequestID(r.Context(), id)))
		})
	}
}

// Deadline applies an inbound X-Deadline-Ms hop header as a context
// deadline, so work started for an upstream that has already given up
// cancels instead of running to completion. An exhausted budget is
// answered 504 before the handler runs. max, when > 0, caps the
// accepted budget. Requests without the header pass through
// untouched.
func Deadline(max time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			raw := r.Header.Get(DeadlineHeader)
			if raw == "" {
				next.ServeHTTP(w, r)
				return
			}
			ms, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				http.Error(w, "bad "+DeadlineHeader, http.StatusBadRequest)
				return
			}
			if ms <= 0 {
				http.Error(w, "deadline exhausted before arrival", http.StatusGatewayTimeout)
				return
			}
			d := time.Duration(ms) * time.Millisecond
			if max > 0 && d > max {
				d = max
			}
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// Tracing roots a span tree for each request (adopting an inbound
// traceparent so node-side spans stitch under the router's RPC span)
// and hands the finished trace, with its status and duration, to the
// tracer's tail-based keep decision (see Tracer.Finish): 5xx and slow
// requests are always captured, the rest sampled. A nil tracer makes
// the middleware a pass-through.
func Tracing(tracer *Tracer, route func(*http.Request) string) Middleware {
	return func(next http.Handler) http.Handler {
		if tracer == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, root := tracer.StartTrace(r.Context(), route(r), r.Header.Get(TraceParentHeader))
			root.Annotate("method", r.Method)
			if id := RequestIDFrom(ctx); id != "" {
				root.Annotate("request_id", id)
			}
			start := time.Now()
			sw := wrapWriter(w)
			next.ServeHTTP(sw, r.WithContext(ctx))
			dur := time.Since(start)
			code := sw.statusCode()
			root.Annotate("status", strconv.Itoa(code))
			root.End(nil)
			tracer.Finish(TraceFrom(ctx), code, dur)
		})
	}
}

// Metrics records http_requests_total{route,code},
// http_request_duration_seconds{route} and http_inflight_requests
// into reg. route maps a request to a bounded label value (use
// patterns like "/documents/{id}", never raw paths). Duration
// observations of traced requests become bucket exemplars when the
// tracer keeps the trace (place Metrics inside Tracing in the chain).
func Metrics(reg *Registry, route func(*http.Request) string) Middleware {
	inflight := reg.Gauge("http_inflight_requests", "Requests currently being served.")
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rt := route(r)
			start := time.Now()
			inflight.Add(1)
			sw := wrapWriter(w)
			defer func() {
				inflight.Add(-1)
				reg.Histogram("http_request_duration_seconds",
					"Wall time per request by route.", nil, L("route", rt)).ObserveSinceCtx(r.Context(), start)
				reg.Counter("http_requests_total",
					"Requests served by route and status code.",
					L("route", rt), L("code", strconv.Itoa(sw.statusCode()))).Inc()
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// RequestLog emits one structured line per completed request —
// route, status, request ID, trace ID, duration, shard count — when
// enabled. Both binaries share it behind their -log-requests flag;
// shards reports the serving shard count (0 while a server is still
// loading). trace= is "-" for untraced requests so the line shape
// stays fixed for log parsers.
func RequestLog(enabled bool, route func(*http.Request) string, shards func() int) Middleware {
	return func(next http.Handler) http.Handler {
		if !enabled {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := wrapWriter(w)
			next.ServeHTTP(sw, r)
			trace := TraceIDFrom(r.Context())
			if trace == "" {
				trace = "-"
			}
			log.Printf("request id=%s trace=%s route=%s method=%s status=%d dur=%s shards=%d",
				RequestIDFrom(r.Context()), trace, route(r), r.Method, sw.statusCode(),
				time.Since(start).Round(time.Microsecond), shards())
		})
	}
}

// Recover is the innermost middleware: a handler panic becomes a 500
// (when the response hasn't started), a stack trace in the log tagged
// with the request ID, and an http_panics_total increment — one bad
// request must not take down the process.
func Recover(reg *Registry) Middleware {
	panics := reg.Counter("http_panics_total", "Handler panics recovered to HTTP 500.")
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := wrapWriter(w)
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				panics.Inc()
				log.Printf("panic id=%s route=%s: %v\n%s",
					RequestIDFrom(r.Context()), r.URL.Path, p, debug.Stack())
				if !sw.started {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}
