package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// TestBreakerStateMachine walks the request-level circuit through
// every documented transition at the unit level.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(ResilienceConfig{BreakerThreshold: 3, BreakerCooldown: time.Minute}.withDefaults())
	now := time.Unix(1_700_000_000, 0)

	// Closed admits everything (no trial slot held); failures below
	// threshold stay closed.
	for i := 0; i < 2; i++ {
		if ok, trial, _ := b.allow(now); !ok || trial {
			t.Fatalf("closed breaker allow = (%v, trial=%v), want (true, false)", ok, trial)
		}
		if tr := b.failure(now); tr != "" {
			t.Fatalf("failure %d transitioned to %q early", i+1, tr)
		}
	}
	// Third consecutive failure opens.
	if ok, _, _ := b.allow(now); !ok {
		t.Fatal("still-closed breaker denied a request")
	}
	if tr := b.failure(now); tr != "open" {
		t.Fatalf("threshold failure transitioned to %q, want open", tr)
	}
	if b.stateValue() != 1 {
		t.Fatalf("open stateValue = %v, want 1", b.stateValue())
	}

	// Open fast-fails until the cooldown elapses.
	if ok, _, _ := b.allow(now.Add(time.Second)); ok {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if b.fastFails.Load() != 1 {
		t.Fatalf("fastFails = %d, want 1", b.fastFails.Load())
	}

	// After the cooldown, exactly one half-open trial is admitted, and
	// the admission hands its holder the trial slot.
	later := now.Add(2 * time.Minute)
	ok, trial, tr := b.allow(later)
	if !ok || !trial || tr != "half-open" {
		t.Fatalf("post-cooldown allow = (%v, %v, %q), want (true, true, half-open)", ok, trial, tr)
	}
	if ok, _, _ := b.allow(later); ok {
		t.Fatal("second request admitted while the half-open trial is in flight")
	}

	// A failed trial re-opens; a later successful trial closes.
	if tr := b.failure(later); tr != "open" {
		t.Fatalf("failed trial transitioned to %q, want open", tr)
	}
	evenLater := later.Add(2 * time.Minute)
	if ok, trial, tr := b.allow(evenLater); !ok || !trial || tr != "half-open" {
		t.Fatal("breaker did not re-enter half-open after the second cooldown")
	}
	if tr := b.success(); tr != "closed" {
		t.Fatalf("successful trial transitioned to %q, want closed", tr)
	}
	if ok, _, _ := b.allow(evenLater); !ok {
		t.Fatal("closed breaker denied a request after recovery")
	}

	// A success in closed state resets the failure streak.
	b.failure(evenLater)
	b.failure(evenLater)
	b.success()
	if tr := b.failure(evenLater); tr != "" {
		t.Fatalf("streak not reset by success: transitioned to %q", tr)
	}

	// Nil breaker (resilience disabled) admits everything.
	var nb *breaker
	if ok, _, _ := nb.allow(now); !ok {
		t.Fatal("nil breaker denied a request")
	}
	nb.success()
	nb.failure(now)
	nb.release()
}

// TestBreakerRelease: a half-open trial whose outcome says nothing
// about the backend (caller cancellation, decided hedge race) hands
// its slot back, so the next request is admitted as a fresh trial
// instead of fast-failing until a restart.
func TestBreakerRelease(t *testing.T) {
	b := newBreaker(ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: time.Minute}.withDefaults())
	now := time.Unix(1_700_000_000, 0)
	b.allow(now)
	if tr := b.failure(now); tr != "open" {
		t.Fatalf("first failure transitioned to %q, want open", tr)
	}

	later := now.Add(2 * time.Minute)
	if ok, trial, _ := b.allow(later); !ok || !trial {
		t.Fatal("post-cooldown trial not admitted")
	}
	// The trial's context dies: released, never reported.
	b.release()
	ok, trial, _ := b.allow(later)
	if !ok || !trial {
		t.Fatal("breaker wedged: released trial slot not re-admitted")
	}
	if tr := b.success(); tr != "closed" {
		t.Fatalf("second trial's success transitioned to %q, want closed", tr)
	}
	// release on a closed breaker is a no-op — it must not clear a
	// slot it does not hold.
	b.release()
	if ok, _, _ := b.allow(later); !ok {
		t.Fatal("closed breaker denied a request after release no-op")
	}
}

func TestJitteredBackoffBounds(t *testing.T) {
	base := 2 * time.Millisecond
	for round := 1; round <= 4; round++ {
		max := base << uint(round-1)
		for i := 0; i < 50; i++ {
			d := jitteredBackoff(base, round)
			if d < 0 || d > max {
				t.Fatalf("round %d: backoff %v outside [0, %v]", round, d, max)
			}
		}
	}
	if d := jitteredBackoff(0, 1); d != 0 {
		t.Fatalf("zero base produced %v", d)
	}
}

// countingBackend counts SearchVector arrivals, so a test can prove a
// breaker-skipped backend was never asked.
type countingBackend struct {
	Backend
	searches atomic.Uint64
}

func (c *countingBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	c.searches.Add(1)
	return c.Backend.SearchVector(ctx, vec, k, f)
}

// TestRouterBreakerFastFail: after BreakerThreshold live failures the
// primary's breaker opens and subsequent reads go straight to the
// replica without sending the primary anything — distinct from health
// ejection, which here is held off by a high FailThreshold. Each skip
// at an open breaker counts once, hedged or not.
func TestRouterBreakerFastFail(t *testing.T) {
	for _, hedgeAfter := range []time.Duration{0, 20 * time.Millisecond} {
		t.Run(fmt.Sprintf("hedge=%v", hedgeAfter), func(t *testing.T) {
			testRouterBreakerFastFail(t, hedgeAfter)
		})
	}
}

func testRouterBreakerFastFail(t *testing.T, hedgeAfter time.Duration) {
	const dim = 32
	primaryDB, replicaDB := newLocalDB(t, dim), newLocalDB(t, dim)
	pb, _ := NewLocalBackend("primary", primaryDB)
	rb, _ := NewLocalBackend("replica", replicaDB)
	flaky := &flakyBackend{Backend: pb}
	counting := &countingBackend{Backend: flaky}
	flakyReplica := &flakyBackend{Backend: rb}
	cfg := HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100, // keep health ejection out of this test
		Resilience:    ResilienceConfig{BreakerThreshold: 2, BreakerCooldown: time.Hour, HedgeAfter: hedgeAfter},
	}
	r, err := NewRouter([]ShardBackends{{Primary: counting, Replicas: []Backend{flakyReplica}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	ctx := context.Background()
	seedRouter(t, r, corpus[:3])
	flaky.broken.Store(true)
	vec, err := vecdb.NewHashedEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vec.Embed("annual leave")
	if err != nil {
		t.Fatal(err)
	}

	// Two failing reads feed the breaker; both still succeed via the
	// replica.
	for i := 0; i < 2; i++ {
		if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err != nil {
			t.Fatalf("read %d failed despite replica: %v", i, err)
		}
	}
	asked := counting.searches.Load()
	if asked != 2 {
		t.Fatalf("primary asked %d times while closed, want 2", asked)
	}

	// Breaker is now open: the next reads must not touch the primary.
	for i := 0; i < 3; i++ {
		if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := counting.searches.Load(); got != asked {
		t.Fatalf("open breaker still sent %d reads to the primary", got-asked)
	}
	st := r.Stats()
	if st.BreakerFastFails != 3 {
		t.Errorf("BreakerFastFails = %d, want 3 (one skip per read)", st.BreakerFastFails)
	}
	if st.Failovers != 2 {
		t.Errorf("Failovers = %d, want 2 (only the pre-open reads tried the primary first)", st.Failovers)
	}
	found := false
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.Name == "primary" && b.Breaker == "open" {
				found = true
			}
		}
	}
	if !found {
		t.Error("primary breaker not reported open in health snapshot")
	}

	// Two failing replica reads open its breaker too (one more skip of
	// the primary each); then a read skips both backends, once each.
	flakyReplica.broken.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err == nil {
			t.Fatalf("read %d succeeded with both backends broken", i)
		}
	}
	if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("read with both breakers open: %v, want ErrUnavailable", err)
	}
	if got := r.Stats().BreakerFastFails; got != 7 {
		t.Errorf("BreakerFastFails = %d, want 7 (3 + 2 + one skip of each backend)", got)
	}
}

// TestRouterReadRetry: a read that fails on every backend of its shard
// is retried once, hedged or not, and a transient single-backend
// failure is absorbed by that retry instead of surfacing to the
// caller.
func TestRouterReadRetry(t *testing.T) {
	for _, hedgeAfter := range []time.Duration{0, 20 * time.Millisecond} {
		t.Run(fmt.Sprintf("hedge=%v", hedgeAfter), func(t *testing.T) {
			testRouterReadRetry(t, hedgeAfter)
		})
	}
}

// failNBackend fails its next fails SearchVector calls, then answers.
type failNBackend struct {
	Backend
	fails atomic.Int32
}

func (b *failNBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if b.fails.Add(-1) >= 0 {
		return nil, errBroken
	}
	return b.Backend.SearchVector(ctx, vec, k, f)
}

func testRouterReadRetry(t *testing.T, hedgeAfter time.Duration) {
	const dim = 32
	db := newLocalDB(t, dim)
	lb, _ := NewLocalBackend("only", db)
	failing := &failNBackend{Backend: lb}
	cfg := HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100,
		Resilience:    ResilienceConfig{RetryReads: 1, HedgeAfter: hedgeAfter},
	}
	r, err := NewRouter([]ShardBackends{{Primary: failing}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus[:2])

	vec, _ := vecdb.NewHashedEmbedder(dim)
	v, err := vec.Embed("working hours")
	if err != nil {
		t.Fatal(err)
	}
	// One failure: the first round fails, the retry round answers.
	failing.fails.Store(1)
	hits, err := r.SearchVector(context.Background(), v, 2, vecdb.Filter{})
	if err != nil {
		t.Fatalf("read failed despite a retry round after one failure: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	if got := r.Stats().ReadRetries; got != 1 {
		t.Fatalf("ReadRetries = %d after one absorbed failure, want 1", got)
	}
	// Two failures: the retry round fails too, the read errors, and the
	// counter moves by exactly one extra round.
	failing.fails.Store(2)
	if _, err := r.SearchVector(context.Background(), v, 2, vecdb.Filter{}); err == nil {
		t.Fatal("read succeeded against a backend that failed both rounds")
	}
	if got := r.Stats().ReadRetries; got != 2 {
		t.Fatalf("ReadRetries = %d, want 2 (one extra round)", got)
	}
}

// blockingBackend stalls SearchVector and Get until the request
// context dies while block is set — the shape of an attempt whose
// caller gave up, or of a stalled primary a hedge races against.
type blockingBackend struct {
	Backend
	block atomic.Bool
}

func (b *blockingBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if b.block.Load() {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return b.Backend.SearchVector(ctx, vec, k, f)
}

func (b *blockingBackend) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	if b.block.Load() {
		<-ctx.Done()
		return vecdb.Document{}, ctx.Err()
	}
	return b.Backend.Get(ctx, id)
}

// TestRouterBreakerTrialNotLeakedOnCtxFailure: a half-open trial whose
// caller context expires mid-flight says nothing about the backend,
// but it must hand its trial slot back — the regression here left
// trialBusy set forever, fast-failing the backend until restart.
func TestRouterBreakerTrialNotLeakedOnCtxFailure(t *testing.T) {
	const dim = 32
	db := newLocalDB(t, dim)
	lb, _ := NewLocalBackend("only", db)
	flaky := &flakyBackend{Backend: lb}
	blocking := &blockingBackend{Backend: flaky}
	cfg := HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100,
		Resilience:    ResilienceConfig{BreakerThreshold: 1, BreakerCooldown: 10 * time.Millisecond},
	}
	r, err := NewRouter([]ShardBackends{{Primary: blocking}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus[:2])
	vec, _ := vecdb.NewHashedEmbedder(dim)
	v, err := vec.Embed("annual leave")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One live failure opens the breaker (threshold 1).
	flaky.broken.Store(true)
	if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err == nil {
		t.Fatal("read succeeded against a broken backend")
	}
	flaky.broken.Store(false)

	// Past the cooldown, the half-open trial is admitted but the
	// caller's own deadline expires mid-flight: no verdict either way.
	time.Sleep(20 * time.Millisecond)
	blocking.block.Store(true)
	tctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	if _, err := r.SearchVector(tctx, v, 2, vecdb.Filter{}); err == nil {
		t.Fatal("read succeeded while the backend was stalled")
	}
	cancel()
	blocking.block.Store(false)

	// The slot must have been released: the next read is admitted as a
	// fresh trial and closes the breaker. With the leak it fast-failed
	// here forever.
	hits, err := r.SearchVector(ctx, v, 2, vecdb.Filter{})
	if err != nil {
		t.Fatalf("breaker wedged after an unresolved trial: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits after breaker recovery")
	}
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.Breaker != "closed" {
				t.Errorf("backend %s breaker %q after successful trial, want closed", b.Name, b.Breaker)
			}
		}
	}
}

// TestHedgedSearchAdmitsOnlyLaunchedTrials: hedging must not consume a
// replica's half-open trial slot for candidates the race never
// launches. The regression admitted every serving candidate up front;
// when the primary kept winning before the hedge timer, the replica's
// trial leaked and the replica was lost to reads until restart.
func TestHedgedSearchAdmitsOnlyLaunchedTrials(t *testing.T) {
	const dim = 32
	primaryDB, replicaDB := newLocalDB(t, dim), newLocalDB(t, dim)
	pb, _ := NewLocalBackend("primary", primaryDB)
	rb, _ := NewLocalBackend("replica", replicaDB)
	flakyP := &flakyBackend{Backend: pb}
	flakyR := &flakyBackend{Backend: rb}
	cfg := HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100,
		Resilience: ResilienceConfig{
			BreakerThreshold: 1,
			BreakerCooldown:  10 * time.Millisecond,
			HedgeAfter:       50 * time.Millisecond,
		},
	}
	r, err := NewRouter([]ShardBackends{{Primary: flakyP, Replicas: []Backend{flakyR}}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus[:3])
	vec, _ := vecdb.NewHashedEmbedder(dim)
	v, err := vec.Embed("shopkeepers required")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Break both backends: one hedged read fails over through both and
	// opens both breakers.
	flakyP.broken.Store(true)
	flakyR.broken.Store(true)
	if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err == nil {
		t.Fatal("read succeeded with both backends broken")
	}
	flakyP.broken.Store(false)
	time.Sleep(20 * time.Millisecond) // both cooldowns elapse

	// Fast primary reads: each closes/keeps the primary healthy and
	// must not touch the replica's (still pending) half-open trial.
	for i := 0; i < 3; i++ {
		if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); err != nil {
			t.Fatalf("read %d failed via healthy primary: %v", i, err)
		}
	}

	// Now the primary breaks and the replica recovers: the failover
	// must be admitted as the replica's half-open trial. With the
	// up-front admission leak, the slot was already consumed and the
	// read fast-failed.
	flakyR.broken.Store(false)
	flakyP.broken.Store(true)
	hits, err := r.SearchVector(ctx, v, 2, vecdb.Filter{})
	if err != nil {
		t.Fatalf("failover to recovered replica failed (leaked trial slot?): %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("no hits from replica failover")
	}
}

// TestRouterGetMissResetsBreakerStreak: an authoritative not-found is
// a healthy backend answering correctly, so it must reset the
// breaker's consecutive-failure streak — sparse transient errors
// interleaved with healthy misses must not accumulate to the
// threshold and open the breaker.
func TestRouterGetMissResetsBreakerStreak(t *testing.T) {
	const dim = 32
	db := newLocalDB(t, dim)
	lb, _ := NewLocalBackend("only", db)
	flaky := &flakyBackend{Backend: lb}
	cfg := HealthConfig{
		Interval:      time.Hour,
		FailThreshold: 100,
		Resilience:    ResilienceConfig{BreakerThreshold: 2, BreakerCooldown: time.Hour},
	}
	r, err := NewRouter([]ShardBackends{{Primary: flaky}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ids := seedRouter(t, r, corpus[:2])
	ctx := context.Background()

	// Transient failure, healthy miss, transient failure: the miss
	// resets the streak so the breaker (threshold 2) stays closed.
	flaky.broken.Store(true)
	if _, err := r.Get(ctx, ids[0]); err == nil {
		t.Fatal("get succeeded against a broken backend")
	}
	flaky.broken.Store(false)
	if _, err := r.Get(ctx, 999); !errors.Is(err, vecdb.ErrNotFound) {
		t.Fatalf("get(999) = %v, want ErrNotFound", err)
	}
	flaky.broken.Store(true)
	if _, err := r.Get(ctx, ids[0]); err == nil {
		t.Fatal("get succeeded against a broken backend")
	}
	flaky.broken.Store(false)

	// Still closed: this read must reach the backend and succeed.
	if _, err := r.Get(ctx, ids[0]); err != nil {
		t.Fatalf("breaker opened despite a healthy miss resetting the streak: %v", err)
	}
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.Breaker != "closed" {
				t.Errorf("backend %s breaker %q, want closed", b.Name, b.Breaker)
			}
		}
	}
}

// TestHedgeDisabledBelowBudget: with the primary stalled, a read whose
// deadline leaves less than 2×HedgeAfter is not hedged — doubling load
// cannot save a reply due after the deadline — and runs out on the
// primary; a read with a long deadline is hedged once and the replica
// wins. A point read is hedged the same way.
func TestHedgeDisabledBelowBudget(t *testing.T) {
	const (
		dim        = 32
		hedgeAfter = 20 * time.Millisecond
	)
	newRouter := func(t *testing.T) (*Router, []int64) {
		primaryDB, replicaDB := newLocalDB(t, dim), newLocalDB(t, dim)
		pb, _ := NewLocalBackend("primary", primaryDB)
		rb, _ := NewLocalBackend("replica", replicaDB)
		stalled := &blockingBackend{Backend: pb}
		cfg := HealthConfig{
			Interval:      time.Hour,
			FailThreshold: 100,
			Resilience:    ResilienceConfig{HedgeAfter: hedgeAfter},
		}
		r, err := NewRouter([]ShardBackends{{Primary: stalled, Replicas: []Backend{rb}}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		ids := seedRouter(t, r, corpus[:2])
		stalled.block.Store(true)
		return r, ids
	}
	vec, _ := vecdb.NewHashedEmbedder(dim)
	v, _ := vec.Embed("working hours")

	t.Run("search under budget", func(t *testing.T) {
		r, _ := newRouter(t)
		ctx, cancel := context.WithTimeout(context.Background(), 3*hedgeAfter/2)
		defer cancel()
		if _, err := r.SearchVector(ctx, v, 2, vecdb.Filter{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("search with a stalled primary and no hedge budget: %v, want a deadline error", err)
		}
		if st := r.Stats(); st.Hedges != 0 {
			t.Errorf("hedged %d reads under an insufficient budget", st.Hedges)
		}
	})
	t.Run("search with budget", func(t *testing.T) {
		r, _ := newRouter(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hits, err := r.SearchVector(ctx, v, 2, vecdb.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) == 0 {
			t.Fatal("no hits from the hedged read")
		}
		if st := r.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
			t.Errorf("Hedges=%d HedgeWins=%d, want 1 and 1", st.Hedges, st.HedgeWins)
		}
	})
	t.Run("get with budget", func(t *testing.T) {
		r, ids := newRouter(t)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		doc, err := r.Get(ctx, ids[0])
		if err != nil {
			t.Fatalf("get with a stalled primary: %v", err)
		}
		if doc.ID != ids[0] || doc.Text != corpus[0] {
			t.Errorf("get returned %d %q, want %d %q", doc.ID, doc.Text, ids[0], corpus[0])
		}
		if st := r.Stats(); st.Hedges != 1 {
			t.Errorf("Hedges = %d, want 1", st.Hedges)
		}
	})
}
