package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceParentHeader is the W3C trace-context hop header carried on
// router→shardnode RPCs next to X-Request-ID and X-Deadline-Ms:
// "00-<32 hex trace id>-<16 hex parent span id>-<2 hex flags>". The
// node adopts the trace ID and parents its spans under the router's
// RPC span, so one user query renders as a single stitched tree.
const TraceParentHeader = "traceparent"

// Span is one timed operation within a trace. Spans link to their
// parent by ID, carry low-cardinality attributes ("backend", "shard")
// and timestamped events ("hedge launched"), and record at most one
// error. All methods are nil-safe: code running outside a traced
// request holds nil spans and pays only a nil check.
type Span struct {
	traceID  string
	spanID   string
	parentID string
	name     string
	start    time.Time

	mu     sync.Mutex
	end    time.Time
	err    string
	attrs  []Label
	events []SpanEvent
}

// SpanEvent is a timestamped annotation within a span.
type SpanEvent struct {
	At  time.Time `json:"at"`
	Msg string    `json:"msg"`
}

// SpanID returns the span's own ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// Annotate attaches a key=value attribute. Keep cardinality low — the
// same discipline as metric labels.
func (s *Span) Annotate(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Label{Name: name, Value: value})
	s.mu.Unlock()
}

// Event appends a timestamped message ("retry round=1",
// "breaker open: skipped node2").
func (s *Span) Event(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, SpanEvent{At: time.Now(), Msg: msg})
	s.mu.Unlock()
}

// End closes the span, recording err when non-nil. Safe to call more
// than once; the first call wins.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		if err != nil {
			s.err = err.Error()
		}
	}
	s.mu.Unlock()
}

// spanData is the immutable copy taken at capture time.
type spanData struct {
	SpanID   string      `json:"span_id"`
	ParentID string      `json:"parent_id,omitempty"`
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	Micros   int64       `json:"duration_us"`
	Error    string      `json:"error,omitempty"`
	Attrs    []Label     `json:"attrs,omitempty"`
	Events   []SpanEvent `json:"events,omitempty"`
}

func (s *Span) data() spanData {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	d := spanData{
		SpanID:   s.spanID,
		ParentID: s.parentID,
		Name:     s.name,
		Start:    s.start,
		Micros:   end.Sub(s.start).Microseconds(),
		Error:    s.err,
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]Label(nil), s.attrs...)
	}
	if len(s.events) > 0 {
		d.Events = append([]SpanEvent(nil), s.events...)
	}
	return d
}

// Trace accumulates the spans of one request on one process. It lives
// in the request context; StartSpan appends to it from any goroutine.
type Trace struct {
	id   string
	root string // the root span's name: the route, for the keep decision

	mu        sync.Mutex
	spans     []*Span
	dropped   int
	exemplars []pendingExemplar
}

func (t *Trace) add(s *Span) {
	t.mu.Lock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// addExemplar queues a histogram observation made under this trace.
// It is stamped into the bucket only if the tracer's tail-based
// decision keeps the trace, so exemplar links always resolve in the
// ring. Observations landing after Finish already flushed (a hedge
// loser finishing late) are silently dropped.
func (t *Trace) addExemplar(p pendingExemplar) {
	t.mu.Lock()
	if len(t.exemplars) < maxExemplarsPerTrace {
		t.exemplars = append(t.exemplars, p)
	}
	t.mu.Unlock()
}

// maxSpansPerTrace bounds a single trace so a pathological fan-out
// (or a span leak) cannot grow memory without bound.
const maxSpansPerTrace = 128

// maxExemplarsPerTrace bounds the queued observations the same way; a
// request touches a handful of stage histograms, so 64 is generous.
const maxExemplarsPerTrace = 64

type traceKeyType int

const (
	traceKey traceKeyType = iota
	spanKey
)

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// TraceIDFrom returns the trace ID carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.id
	}
	return ""
}

// SpanFrom returns the innermost open span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan opens a child span under ctx's current span. Outside a
// traced request it returns (ctx, nil) — the nil span no-ops, so
// instrumented call sites need no conditional wiring.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := ""
	if p := SpanFrom(ctx); p != nil {
		parent = p.spanID
	}
	sp := &Span{
		traceID:  tr.id,
		spanID:   newSpanID(),
		parentID: parent,
		name:     name,
		start:    time.Now(),
	}
	tr.add(sp)
	return context.WithValue(ctx, spanKey, sp), sp
}

// Traceparent renders the outbound traceparent header value for ctx's
// current trace position, or "" outside a traced request.
func Traceparent(ctx context.Context) string {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ""
	}
	span := ""
	if s := SpanFrom(ctx); s != nil {
		span = s.spanID
	}
	if span == "" {
		return ""
	}
	return "00-" + tr.id + "-" + span + "-01"
}

// ParseTraceparent splits a W3C traceparent value into trace ID and
// parent span ID. Malformed or all-zero values are rejected (ok=false)
// so a hostile header cannot pollute the trace store.
func ParseTraceparent(v string) (traceID, parentID string, ok bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(v) != 55 || v[0:3] != "00-" || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	traceID, parentID = v[3:35], v[36:52]
	if !isHex(traceID) || !isHex(parentID) || allZero(traceID) || allZero(parentID) {
		return "", "", false
	}
	return traceID, parentID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

var idFallback atomic.Uint64

func randomHex(n int) string {
	b := make([]byte, n/2)
	if _, err := rand.Read(b); err != nil {
		// Degrade to a process-local sequence rather than failing the
		// request path over entropy trouble.
		v := idFallback.Add(1)
		s := strconv.FormatUint(v, 16)
		for len(s) < n {
			s = "0" + s
		}
		return s[:n]
	}
	return hex.EncodeToString(b)
}

func newTraceID() string { return randomHex(32) }
func newSpanID() string  { return randomHex(16) }

// TracerConfig bounds the in-memory trace store and its sampling.
type TracerConfig struct {
	// Capacity is the number of captured traces kept in the ring
	// buffer (default 256). Oldest traces are evicted first.
	Capacity int
	// SampleEvery keeps 1 in N traces that were neither slow nor
	// errored (default 16; 0 uses the default, negative keeps none).
	// Slow and erroring traces are always kept — that is the
	// tail-based part.
	SampleEvery int
	// SlowerThan is the latency over which a trace is always kept as
	// "slo_breach" (0 keeps none for latency).
	SlowerThan time.Duration
	// Exempt lists root span names (routes) kept only by sampling —
	// probe endpoints whose 5xx answers are expected boot signals (a
	// recovering node answers /readyz with 503 by design; keeping every
	// one would let a fast readiness poller fill the ring).
	Exempt []string
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 16
	}
	return c
}

// CapturedTrace is one kept trace as served by GET /debug/traces.
type CapturedTrace struct {
	ID string `json:"id"`
	// Root is the root span's name (the route).
	Root    string     `json:"root"`
	Start   time.Time  `json:"start"`
	Micros  int64      `json:"duration_us"`
	Status  int        `json:"status,omitempty"`
	Reason  string     `json:"reason"` // slo_breach | error | sampled
	Spans   []spanData `json:"spans"`
	Dropped int        `json:"dropped_spans,omitempty"`
}

// Tracer is the per-process trace collector: it roots traces for
// inbound requests (adopting a propagated traceparent when present),
// and keeps a bounded ring of captured traces with tail-based
// selection — slow requests and errors always, a sample of the rest.
// All methods are safe for concurrent use and on a nil receiver.
type Tracer struct {
	cfg TracerConfig

	mu   sync.Mutex
	ring []*CapturedTrace
	next int

	started atomic.Uint64
	kept    atomic.Uint64
	breach  atomic.Uint64
	errs    atomic.Uint64
	sampled atomic.Uint64
	nth     atomic.Uint64
}

// NewTracer returns a tracer with cfg (zero value → defaults).
func NewTracer(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{cfg: cfg, ring: make([]*CapturedTrace, 0, cfg.Capacity)}
}

// Register exposes the tracer's own accounting in reg:
// traces_started_total and traces_kept_total{reason}.
func (t *Tracer) Register(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.CounterFunc("traces_started_total", "Traces rooted on this process.", t.started.Load)
	reg.CounterFunc("traces_kept_total", "Traces captured to the debug ring by keep reason.",
		t.breach.Load, L("reason", "slo_breach"))
	reg.CounterFunc("traces_kept_total", "Traces captured to the debug ring by keep reason.",
		t.errs.Load, L("reason", "error"))
	reg.CounterFunc("traces_kept_total", "Traces captured to the debug ring by keep reason.",
		t.sampled.Load, L("reason", "sampled"))
}

// StartTrace roots a new trace on ctx. traceparent, when valid,
// supplies the trace ID and the parent span ID — that is how node-side
// spans stitch under the router's RPC span. Returns the derived
// context and the root span (nil tracer → unchanged ctx, nil span).
func (t *Tracer) StartTrace(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.started.Add(1)
	traceID, parentID, ok := ParseTraceparent(traceparent)
	if !ok {
		traceID, parentID = newTraceID(), ""
	}
	tr := &Trace{id: traceID, root: name}
	root := &Span{
		traceID:  traceID,
		spanID:   newSpanID(),
		parentID: parentID,
		name:     name,
		start:    time.Now(),
	}
	tr.add(root)
	ctx = context.WithValue(ctx, traceKey, tr)
	ctx = context.WithValue(ctx, spanKey, root)
	return ctx, root
}

// Finish decides whether tr is kept, from the status and duration of
// the request it traced: a 5xx always as "error", a request slower
// than SlowerThan always as "slo_breach", the rest 1-in-SampleEvery.
// A trace rooted on an Exempt route is only ever sampled. status is
// recorded on the capture for filtering.
func (t *Tracer) Finish(tr *Trace, status int, dur time.Duration) {
	if t == nil || tr == nil {
		return
	}
	exempt := slices.Contains(t.cfg.Exempt, tr.root)
	reason := ""
	switch {
	case status >= 500 && !exempt:
		reason = "error"
		t.errs.Add(1)
	case t.cfg.SlowerThan > 0 && dur > t.cfg.SlowerThan && !exempt:
		reason = "slo_breach"
		t.breach.Add(1)
	// n%1 is never 1, so SampleEvery=1 (keep every trace) is its own
	// case rather than falling out of the modulo.
	case t.cfg.SampleEvery == 1,
		t.cfg.SampleEvery > 1 && t.nth.Add(1)%uint64(t.cfg.SampleEvery) == 1:
		reason = "sampled"
		t.sampled.Add(1)
	default:
		return
	}
	t.kept.Add(1)

	tr.mu.Lock()
	spans := make([]spanData, 0, len(tr.spans))
	for _, s := range tr.spans {
		spans = append(spans, s.data())
	}
	dropped := tr.dropped
	pending := tr.exemplars
	tr.exemplars = nil
	tr.mu.Unlock()
	// Only a kept trace publishes its bucket exemplars: /debug/traces
	// must never link a histogram bucket to a trace ID that was
	// sampled out of the ring.
	for _, p := range pending {
		p.stampExemplar(tr.id)
	}

	ct := &CapturedTrace{
		ID:      tr.id,
		Reason:  reason,
		Status:  status,
		Spans:   spans,
		Dropped: dropped,
	}
	if len(spans) > 0 {
		ct.Root = spans[0].Name
		ct.Start = spans[0].Start
		ct.Micros = spans[0].Micros
	}

	t.mu.Lock()
	if len(t.ring) < t.cfg.Capacity {
		t.ring = append(t.ring, ct)
	} else {
		t.ring[t.next] = ct
		t.next = (t.next + 1) % t.cfg.Capacity
	}
	t.mu.Unlock()
}

// Traces returns up to limit captured traces, newest first, optionally
// filtered to one trace ID (id == "" keeps all).
func (t *Tracer) Traces(limit int, id string) []*CapturedTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	all := make([]*CapturedTrace, 0, len(t.ring))
	// Ring order: t.next is the oldest slot once the ring wrapped.
	for i := 0; i < len(t.ring); i++ {
		all = append(all, t.ring[(t.next+i)%len(t.ring)])
	}
	t.mu.Unlock()
	out := make([]*CapturedTrace, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		if id != "" && all[i].ID != id {
			continue
		}
		out = append(out, all[i])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Handler serves GET /debug/traces: the capture counters, the kept
// traces (newest first, ?limit= and ?trace= filters), and — when reg
// is non-nil — the histogram exemplars linking p99 buckets to concrete
// trace IDs.
func (t *Tracer) Handler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		limit := 20
		if raw := r.URL.Query().Get("limit"); raw != "" {
			if n, err := strconv.Atoi(raw); err == nil && n > 0 {
				limit = n
			}
		}
		id := r.URL.Query().Get("trace")
		resp := struct {
			Started   uint64                       `json:"traces_started"`
			Kept      uint64                       `json:"traces_kept"`
			Breaches  uint64                       `json:"kept_slo_breach"`
			Errors    uint64                       `json:"kept_error"`
			Sampled   uint64                       `json:"kept_sampled"`
			Traces    []*CapturedTrace             `json:"traces"`
			Exemplars map[string][]SeriesExemplars `json:"exemplars,omitempty"`
		}{
			Traces: t.Traces(limit, id),
		}
		if t != nil {
			resp.Started = t.started.Load()
			resp.Kept = t.kept.Load()
			resp.Breaches = t.breach.Load()
			resp.Errors = t.errs.Load()
			resp.Sampled = t.sampled.Load()
		}
		if reg != nil {
			resp.Exemplars = reg.Exemplars()
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}
