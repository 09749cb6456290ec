package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// ErrTenantThrottled reports that one tenant exhausted its own rate
// or in-flight budget. It wraps ErrOverloaded, so the HTTP layer's
// existing 429 mapping applies without the global gate being anywhere
// near its limits — that is the point: one hot tenant is throttled at
// its own boundary, not at everyone's.
var ErrTenantThrottled = fmt.Errorf("%w: tenant rate limit", ErrOverloaded)

// tenantKey is the context key carrying the request's collection
// (tenant identity). Unexported; use WithTenant/TenantFrom.
type tenantKey struct{}

// WithTenant tags ctx with the request's collection. Handlers set it
// once at the boundary; the tenant gate and the verdict cache read it
// from there, so no internal signature had to grow a tenant parameter.
func WithTenant(ctx context.Context, collection string) context.Context {
	if collection == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, collection)
}

// TenantFrom reports the collection the request is scoped to, "" when
// unscoped (pre-collection clients, internal traffic).
func TenantFrom(ctx context.Context) string {
	if v, ok := ctx.Value(tenantKey{}).(string); ok {
		return v
	}
	return ""
}

// TenantLimits configures the per-tenant admission gate. Zero values
// disable the corresponding check.
type TenantLimits struct {
	// Rate is the sustained request rate per tenant in requests per
	// second (token-bucket refill rate); Burst is the bucket depth.
	Rate  float64
	Burst int
	// MaxInFlight caps one tenant's concurrently executing requests.
	MaxInFlight int
}

func (l TenantLimits) enabled() bool {
	return l.Rate > 0 || l.MaxInFlight > 0
}

// tenantState is one tenant's live admission state: a token bucket
// refilled at Rate tokens/sec (capped at Burst) plus an in-flight
// count, and the lifetime outcome counters /stats reports.
type tenantState struct {
	tokens   float64
	last     time.Time
	inFlight int

	admitted  uint64
	throttled uint64
}

// TenantGate enforces per-tenant rate limits and in-flight quotas in
// front of the global admission gate. It exists so the blast radius of
// one saturating tenant is that tenant: everyone else's requests never
// even feel the contention. States are created on first sight of a
// collection and live for the server's lifetime (tenant cardinality is
// collections, not users — bounded by design).
type TenantGate struct {
	limits TenantLimits
	now    func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState

	// tele registers per-collection outcome counters lazily, the first
	// time each (collection, outcome) pair occurs; nil means
	// uninstrumented.
	tele *telemetry.Registry
}

// NewTenantGate builds a gate with the given limits. A nil result
// (disabled limits) is valid and admits everything — callers check
// with Enabled.
func NewTenantGate(limits TenantLimits) *TenantGate {
	return &TenantGate{
		limits:  limits,
		now:     time.Now,
		tenants: map[string]*tenantState{},
	}
}

// Enabled reports whether any per-tenant limit is configured.
func (g *TenantGate) Enabled() bool { return g != nil && g.limits.enabled() }

// SetTelemetry binds the registry the tenant outcome counters —
// tenant_requests_total{collection,outcome} and
// tenant_throttled_total{collection} — are registered in.
func (g *TenantGate) SetTelemetry(reg *telemetry.Registry) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.tele = reg
	g.mu.Unlock()
}

// countOutcome bumps the tenant outcome counters; the caller holds
// g.mu (registry counters are internally synchronized, but tele is
// read under the same lock that writes it).
func (g *TenantGate) countOutcome(tenant, outcome string) {
	if g.tele == nil {
		return
	}
	g.tele.Counter("tenant_requests_total",
		"Requests by collection and admission outcome.",
		telemetry.L("collection", tenant), telemetry.L("outcome", outcome)).Inc()
	if outcome == "throttled" {
		g.tele.Counter("tenant_throttled_total",
			"Requests shed at the per-tenant gate, by collection.",
			telemetry.L("collection", tenant)).Inc()
	}
}

// Acquire admits one request for the tenant on ctx (unscoped requests
// pass through untouched). On success the returned release must be
// called when the request finishes; on throttle it returns
// ErrTenantThrottled, which statusFor maps to 429.
func (g *TenantGate) Acquire(ctx context.Context) (release func(), err error) {
	if !g.Enabled() {
		return func() {}, nil
	}
	tenant := TenantFrom(ctx)
	if tenant == "" {
		return func() {}, nil
	}
	tenant = vecdb.NormalizeCollection(tenant)
	g.mu.Lock()
	ts := g.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: float64(g.limits.Burst), last: g.now()}
		g.tenants[tenant] = ts
	}
	if g.limits.Rate > 0 {
		now := g.now()
		ts.tokens += now.Sub(ts.last).Seconds() * g.limits.Rate
		if max := float64(g.limits.Burst); ts.tokens > max {
			ts.tokens = max
		}
		ts.last = now
		if ts.tokens < 1 {
			g.deny(ts, tenant)
			g.mu.Unlock()
			return nil, ErrTenantThrottled
		}
	}
	if g.limits.MaxInFlight > 0 && ts.inFlight >= g.limits.MaxInFlight {
		g.deny(ts, tenant)
		g.mu.Unlock()
		return nil, ErrTenantThrottled
	}
	if g.limits.Rate > 0 {
		ts.tokens--
	}
	ts.inFlight++
	ts.admitted++
	g.countOutcome(tenant, "admitted")
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			ts.inFlight--
			g.mu.Unlock()
		})
	}, nil
}

// deny records a throttled request; the caller holds g.mu.
func (g *TenantGate) deny(ts *tenantState, tenant string) {
	ts.throttled++
	g.countOutcome(tenant, "throttled")
}

// TenantStats is one tenant's /stats entry.
type TenantStats struct {
	// Admitted and Throttled count lifetime admission outcomes.
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
	// InFlight is the tenant's currently executing request count.
	InFlight int `json:"in_flight"`
}

// Stats snapshots every tenant's counters, keyed by collection.
func (g *TenantGate) Stats() map[string]TenantStats {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(g.tenants))
	names := make([]string, 0, len(g.tenants))
	for name := range g.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := g.tenants[name]
		out[name] = TenantStats{Admitted: ts.admitted, Throttled: ts.throttled, InFlight: ts.inFlight}
	}
	return out
}
