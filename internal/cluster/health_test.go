package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// backendState reads backend name's state from the router's health
// snapshot.
func backendState(r *Router, name string) string {
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.Name == name {
				return b.State
			}
		}
	}
	return ""
}

// TestHealthStateMachine walks one backend through the full cycle
// driven by the active prober: healthy → (FailThreshold consecutive
// probe failures) → ejected → (first good probe) → half-open →
// (RecoverThreshold consecutive good probes) → healthy.
func TestHealthStateMachine(t *testing.T) {
	db := newLocalDB(t, 16)
	b, _ := NewLocalBackend("node", db)
	flaky := &flakyBackend{Backend: b}
	cfg := HealthConfig{
		Interval:         3 * time.Millisecond,
		Timeout:          time.Second,
		FailThreshold:    3,
		RecoverThreshold: 2,
	}
	r, err := NewRouter([]ShardBackends{{Primary: flaky}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	waitFor(t, "initial healthy", func() bool { return backendState(r, "node") == "healthy" })

	// Sustained failure ejects.
	flaky.broken.Store(true)
	waitFor(t, "ejection", func() bool { return backendState(r, "node") == "ejected" })

	// Recovery walks through half-open (RecoverThreshold 2 means at
	// least one probe round reports half-open before healthy) and back
	// to healthy.
	flaky.broken.Store(false)
	sawHalfOpen := false
	waitFor(t, "recovery to healthy", func() bool {
		switch backendState(r, "node") {
		case "half-open":
			sawHalfOpen = true
		case "healthy":
			return true
		}
		return false
	})
	if !sawHalfOpen {
		t.Log("half-open window raced past the poll; acceptable but unexpected at 3ms interval")
	}

	// A failure during half-open drops straight back to ejected.
	flaky.broken.Store(true)
	waitFor(t, "re-ejection", func() bool { return backendState(r, "node") == "ejected" })
	flaky.broken.Store(false)
	waitFor(t, "half-open or healthy", func() bool {
		s := backendState(r, "node")
		return s == "half-open" || s == "healthy"
	})
	flaky.broken.Store(true)
	waitFor(t, "ejected after half-open failure", func() bool {
		return backendState(r, "node") == "ejected"
	})
}

// TestHealthTransitions drives the per-backend state machine
// directly — no timers — asserting every edge: sub-threshold failures
// don't eject, a success resets the failure streak, ejection at the
// threshold, half-open on the first good probe, re-ejection on a
// half-open failure, and recovery after RecoverThreshold successes.
func TestHealthTransitions(t *testing.T) {
	db := newLocalDB(t, 16)
	b, _ := NewLocalBackend("n", db)
	cfg := HealthConfig{FailThreshold: 3, RecoverThreshold: 2}.withDefaults()
	h := &backendHealth{backend: b}

	st := func() State { h.mu.Lock(); defer h.mu.Unlock(); return h.state }

	h.reportFailure(cfg, errBroken)
	h.reportFailure(cfg, errBroken)
	if st() != StateHealthy {
		t.Fatalf("ejected below threshold: %v", st())
	}
	h.reportSuccess(cfg)
	h.reportFailure(cfg, errBroken)
	h.reportFailure(cfg, errBroken)
	if st() != StateHealthy {
		t.Fatalf("success did not reset the failure streak: %v", st())
	}
	h.reportFailure(cfg, errBroken)
	if st() != StateEjected {
		t.Fatalf("not ejected at threshold: %v", st())
	}
	h.reportSuccess(cfg)
	if st() != StateHalfOpen {
		t.Fatalf("first good probe did not half-open: %v", st())
	}
	h.reportFailure(cfg, errBroken)
	if st() != StateEjected {
		t.Fatalf("half-open failure did not re-eject: %v", st())
	}
	h.reportSuccess(cfg)
	h.reportSuccess(cfg)
	// Ejection marked the backend for resync: probe successes alone
	// saturate in half-open — only the resync manager's parity check
	// re-admits it to reads.
	if st() != StateHalfOpen {
		t.Fatalf("resync-held backend left half-open early: %v", st())
	}
	if !h.resyncNeeded() {
		t.Fatal("ejection did not mark the backend for resync")
	}
	if h.serving() {
		t.Fatal("resync-held backend serving")
	}
	h.clearResync(cfg)
	if st() != StateHealthy {
		t.Fatalf("clearResync after RecoverThreshold successes did not restore: %v", st())
	}
	if !h.serving() {
		t.Fatal("healthy backend not serving")
	}
}

// TestHealthPassiveEjection: live-traffic failures reported by the
// router eject a backend without waiting for the prober (whose
// interval here is an hour).
func TestHealthPassiveEjection(t *testing.T) {
	healthyDB, brokenDB := newLocalDB(t, 16), newLocalDB(t, 16)
	hb, _ := NewLocalBackend("alive", healthyDB)
	bb, _ := NewLocalBackend("node", brokenDB)
	flaky := &flakyBackend{Backend: bb}
	cfg := HealthConfig{Interval: time.Hour, FailThreshold: 2}
	r, err := NewRouter([]ShardBackends{{Primary: hb}, {Primary: flaky}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus)

	// A start-up probe that saw the backend broken would count toward
	// the threshold: break it only once that probe has passed it.
	waitFirstProbe(t, flaky)
	flaky.broken.Store(true)
	v, err := healthyDB.Embedder().Embed("q")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two degraded queries reach the threshold; after that the backend
	// is ejected and skipped without I/O.
	for i := 0; i < 2; i++ {
		if _, err := r.SearchVector(ctx, v, 1, vecdb.Filter{}); err != nil {
			t.Fatalf("degraded query %d: %v", i, err)
		}
	}
	if got := backendState(r, "node"); got != "ejected" {
		t.Fatalf("state after threshold = %s", got)
	}
	if st := r.Stats(); st.DegradedQueries < 2 {
		t.Errorf("degradation not counted: %+v", st)
	}
}
