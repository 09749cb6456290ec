package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTenantGateTokenBucket drives the per-tenant token bucket on a
// fake clock: the burst is admitted, the flood beyond it is throttled
// with ErrTenantThrottled (a 429 via the ErrOverloaded family), a
// second tenant's bucket is untouched, and refill restores exactly
// Rate tokens per second. Outcome counters land both in Stats() and in
// the labelled telemetry counters /metrics exports.
func TestTenantGateTokenBucket(t *testing.T) {
	g := NewTenantGate(TenantLimits{Rate: 1, Burst: 3})
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	reg := telemetry.NewRegistry()
	g.SetTelemetry(reg)

	ctxA := WithTenant(context.Background(), "tenant-a")
	ctxB := WithTenant(context.Background(), "tenant-b")

	// The full burst is admitted back-to-back.
	for i := 0; i < 3; i++ {
		rel, err := g.Acquire(ctxA)
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		rel()
	}
	// The bucket is dry: everything beyond the burst is shed.
	for i := 0; i < 5; i++ {
		if _, err := g.Acquire(ctxA); !errors.Is(err, ErrTenantThrottled) {
			t.Fatalf("flood %d: err = %v, want ErrTenantThrottled", i, err)
		}
	}
	// The throttle error is in the overload family, so the HTTP layer's
	// existing statusFor mapping turns it into a 429 without new cases.
	if !errors.Is(ErrTenantThrottled, ErrOverloaded) {
		t.Fatal("ErrTenantThrottled must wrap ErrOverloaded for the 429 mapping")
	}
	// Tenant B has its own bucket — A's flood cost it nothing.
	relB, err := g.Acquire(ctxB)
	if err != nil {
		t.Fatalf("tenant-b admit: %v", err)
	}
	relB()
	// Unscoped requests bypass the gate entirely.
	if _, err := g.Acquire(context.Background()); err != nil {
		t.Fatalf("unscoped acquire: %v", err)
	}

	// Two seconds of refill buys exactly two more admissions.
	now = now.Add(2 * time.Second)
	for i := 0; i < 2; i++ {
		rel, err := g.Acquire(ctxA)
		if err != nil {
			t.Fatalf("refill admit %d: %v", i, err)
		}
		defer rel()
	}
	if _, err := g.Acquire(ctxA); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("post-refill err = %v, want ErrTenantThrottled", err)
	}

	st := g.Stats()
	a, b := st["tenant-a"], st["tenant-b"]
	if a.Admitted != 5 || a.Throttled != 6 || a.InFlight != 2 {
		t.Errorf("tenant-a stats = %+v, want {Admitted:5 Throttled:6 InFlight:2}", a)
	}
	if b.Admitted != 1 || b.Throttled != 0 || b.InFlight != 0 {
		t.Errorf("tenant-b stats = %+v, want {Admitted:1 Throttled:0 InFlight:0}", b)
	}
	if got := reg.CounterValue("tenant_throttled_total", telemetry.L("collection", "tenant-a")); got != 6 {
		t.Errorf("tenant_throttled_total{tenant-a} = %d, want 6", got)
	}
	if got := reg.CounterValue("tenant_throttled_total", telemetry.L("collection", "tenant-b")); got != 0 {
		t.Errorf("tenant_throttled_total{tenant-b} = %d, want 0", got)
	}
	if got := reg.CounterValue("tenant_requests_total",
		telemetry.L("collection", "tenant-a"), telemetry.L("outcome", "admitted")); got != 5 {
		t.Errorf("tenant_requests_total{tenant-a,admitted} = %d, want 5", got)
	}
	if got := reg.CounterValue("tenant_requests_total",
		telemetry.L("collection", "tenant-a"), telemetry.L("outcome", "throttled")); got != 6 {
		t.Errorf("tenant_requests_total{tenant-a,throttled} = %d, want 6", got)
	}
}

// TestTenantGateInFlightQuota pins the concurrency quota: a tenant at
// MaxInFlight is refused until a slot frees, and release is
// idempotent so a double-released slot cannot drive the count
// negative.
func TestTenantGateInFlightQuota(t *testing.T) {
	g := NewTenantGate(TenantLimits{MaxInFlight: 2})
	ctx := WithTenant(context.Background(), "tenant-a")

	rel1, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(ctx); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("over-quota err = %v, want ErrTenantThrottled", err)
	}
	rel1()
	rel1() // idempotent: must not free a second slot
	rel3, err := g.Acquire(ctx)
	if err != nil {
		t.Fatalf("post-release acquire: %v", err)
	}
	if _, err := g.Acquire(ctx); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("quota must still hold after double release, got err = %v", err)
	}
	rel2()
	rel3()
	if st := g.Stats()["tenant-a"]; st.InFlight != 0 {
		t.Errorf("in-flight after all releases = %d, want 0", st.InFlight)
	}
}

// TestServerTenantFairness is the end-to-end throttle check of the
// issue: one tenant hammering the server is shed at its own boundary
// (ErrTenantThrottled, counted in tenant_throttled_total) while a
// second tenant's requests all succeed, untouched by the flood.
func TestServerTenantFairness(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := newTestServer(t, Config{
		Shards:      2,
		Dim:         64,
		TopK:        3,
		TenantRate:  0.001, // negligible refill: the burst is the budget
		TenantBurst: 3,
		Telemetry:   reg,
	})
	ctx := context.Background()
	ctxA := WithTenant(ctx, "tenant-a")
	ctxB := WithTenant(ctx, "tenant-b")

	var admitted, throttled int
	for i := 0; i < 20; i++ {
		_, err := s.Search(ctxA, "What are the working hours?", 2)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrTenantThrottled):
			throttled++
		default:
			t.Fatalf("search %d: unexpected err %v", i, err)
		}
	}
	if admitted != 3 || throttled != 17 {
		t.Errorf("tenant-a flood: admitted %d throttled %d, want 3/17", admitted, throttled)
	}
	// The other tenant's full burst succeeds during/after the flood.
	for i := 0; i < 3; i++ {
		if _, err := s.Search(ctxB, "How many days of annual leave do employees get?", 2); err != nil {
			t.Fatalf("tenant-b search %d: %v", i, err)
		}
	}

	st := s.Stats()
	a, b := st.Tenants["tenant-a"], st.Tenants["tenant-b"]
	if a.Admitted != uint64(admitted) || a.Throttled != uint64(throttled) {
		t.Errorf("tenant-a /stats = %+v, want {Admitted:%d Throttled:%d}", a, admitted, throttled)
	}
	if b.Admitted != 3 || b.Throttled != 0 {
		t.Errorf("tenant-b /stats = %+v, want {Admitted:3 Throttled:0}", b)
	}
	if got := reg.CounterValue("tenant_throttled_total", telemetry.L("collection", "tenant-a")); got != uint64(throttled) {
		t.Errorf("tenant_throttled_total{tenant-a} = %d, want %d", got, throttled)
	}
	if got := reg.CounterValue("tenant_throttled_total", telemetry.L("collection", "tenant-b")); got != 0 {
		t.Errorf("tenant_throttled_total{tenant-b} = %d, want 0", got)
	}
}

// TestVerdictCacheNamespacedByTenant: the identical
// (question, context, response) triple verified under two tenants must
// be scored twice — a cached verdict must never leak across the tenant
// boundary — while a same-tenant repeat is served from cache.
func TestVerdictCacheNamespacedByTenant(t *testing.T) {
	s := newTestServer(t, Config{Shards: 1, Dim: 64, TopK: 3})
	ctx := context.Background()
	q := "What are the working hours?"
	doc := strings.Join(handbook, " ")
	resp := handbook[0]

	ctxA := WithTenant(ctx, "tenant-a")
	ctxB := WithTenant(ctx, "tenant-b")
	va, err := s.Verify(ctxA, q, doc, resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(ctxA, q, doc, resp); err != nil {
		t.Fatal(err)
	}
	vb, err := s.Verify(ctxB, q, doc, resp)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.VerdictCache.Hits != 1 || st.VerdictCache.Misses != 2 {
		t.Errorf("verdict cache hits/misses = %d/%d, want 1/2 (per-tenant entries)",
			st.VerdictCache.Hits, st.VerdictCache.Misses)
	}
	// Same triple, same frozen detector: the verdicts agree even though
	// they were computed independently.
	if va.Score != vb.Score {
		t.Errorf("scores diverged across tenants for identical triple: %v vs %v", va.Score, vb.Score)
	}
}
