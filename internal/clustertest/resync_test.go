package clustertest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/vecdb"
)

// manualHealth disables every timer: probes and anti-entropy sweeps
// run only when a test calls ProbeNow/ResyncNow, so each transition
// is scripted and the tests are deterministic under -race.
var manualHealth = cluster.HealthConfig{
	Interval:         time.Hour,
	Timeout:          time.Second,
	FailThreshold:    1,
	RecoverThreshold: 1,
	ResyncInterval:   -1,
	ResyncBatch:      4,
}

// newPair builds a 1-shard router over a durable primary + replica.
func newPair(t *testing.T, cfg cluster.HealthConfig) (*cluster.Router, *Node, *Node) {
	t.Helper()
	primary := NewDurableNode(t, "primary")
	replica := NewDurableNode(t, "replica")
	r, err := cluster.NewRouter([]cluster.ShardBackends{{
		Primary:  primary.Chaos,
		Replicas: []cluster.Backend{replica.Chaos},
	}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	// The checker fires one probe round at startup from its own
	// goroutine. Wait for it to land on both backends: the scripted
	// scenarios assume no probe runs between their steps (Interval is
	// an hour), and under a loaded machine the startup round could
	// otherwise slip past a Partition call and eject a backend the
	// script expects to fail in-band.
	deadline := time.Now().Add(10 * time.Second)
	for primary.Chaos.Calls("Probe") == 0 || replica.Chaos.Calls("Probe") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("startup probe round never completed")
		}
		time.Sleep(time.Millisecond)
	}
	return r, primary, replica
}

// write routes one add through the router, failing the test on error.
func write(t *testing.T, r *cluster.Router, id int64, text string) {
	t.Helper()
	m := vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: text}
	if err := r.Apply(context.Background(), 0, []vecdb.Mutation{m}); err != nil {
		t.Fatalf("write %d: %v", id, err)
	}
}

// backendHealth finds one backend's health snapshot by name.
func backendHealth(t *testing.T, r *cluster.Router, name string) cluster.BackendHealth {
	t.Helper()
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.Name == name {
				return b
			}
		}
	}
	t.Fatalf("backend %q not in health snapshot", name)
	return cluster.BackendHealth{}
}

// queryVec embeds a probe query through a node's (shared, cached)
// embedder.
func queryVec(t *testing.T, n *Node, q string) []float32 {
	t.Helper()
	v, err := n.Store.Embedder().Embed(q)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestEjectionDivergenceResyncConvergence is the acceptance scenario
// end to end, fully scripted: a replica is partitioned away while
// writes flow (divergence), held out of reads when it returns even
// though probes succeed, caught up in-band from the primary's WAL
// (two delta rounds — the batch size is smaller than the gap), and
// only then re-admitted — converged to the primary's exact doc set
// and top-k.
func TestEjectionDivergenceResyncConvergence(t *testing.T) {
	r, primary, replica := newPair(t, manualHealth)
	ctx := context.Background()

	for i := int64(1); i <= 6; i++ {
		write(t, r, i, fmt.Sprintf("Policy document %d: employees receive %d days of leave.", i, 10+i))
	}
	RequireConverged(t, primary.Store, replica.Store)
	if seq := replica.Store.Seq(); seq != 6 {
		t.Fatalf("replica seq after replicated writes = %d, want 6", seq)
	}

	// Partition the replica; the first write it misses is a partial
	// write that marks it diverged and demotes it from reads.
	replica.Chaos.Partition(true)
	for i := int64(7); i <= 11; i++ {
		write(t, r, i, fmt.Sprintf("Amendment %d: overtime rule %d applies on weekends.", i, i))
	}
	if got := r.Stats(); got.WriteFailures == 0 || got.PartialWrites == 0 {
		t.Fatalf("partial write not accounted: %+v", got)
	}
	bh := backendHealth(t, r, "replica")
	if bh.State == cluster.StateHealthy.String() || !bh.NeedsResync {
		t.Fatalf("diverged replica still serving: %+v", bh)
	}
	if p, q := primary.Store.Seq(), replica.Store.Seq(); p != 11 || q != 6 {
		t.Fatalf("divergence not as scripted: primary seq %d, replica seq %d", p, q)
	}

	// Anti-entropy while the replica is unreachable is a no-op: it
	// cannot be repaired, and it must stay held.
	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("sweep with partitioned replica: %v", err)
	}
	if bh := backendHealth(t, r, "replica"); !bh.NeedsResync {
		t.Fatal("unreachable replica lost its resync hold")
	}

	// Heal. Probes succeed now — but probe success alone must NOT
	// re-admit the replica: it is still missing five documents.
	replica.Chaos.Partition(false)
	r.ProbeNow()
	bh = backendHealth(t, r, "replica")
	if bh.State == cluster.StateHealthy.String() {
		t.Fatalf("lagging replica re-admitted before resync: %+v", bh)
	}

	// One sweep repairs it: the 5-mutation gap ships in two rounds
	// (ResyncBatch 4), straight from the primary's WAL segments.
	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("resync sweep: %v", err)
	}
	st := r.ResyncStats()
	if st.Resyncs != 1 || st.MutationsShipped != 5 || st.SnapshotFallbacks != 0 {
		t.Fatalf("resync stats = %+v, want 1 resync / 5 shipped / 0 snapshots", st)
	}
	if bh = backendHealth(t, r, "replica"); bh.State != cluster.StateHealthy.String() || bh.NeedsResync {
		t.Fatalf("repaired replica not re-admitted: %+v", bh)
	}
	RequireConverged(t, primary.Store, replica.Store)
	RequireSameTopK(t, primary.Store, replica.Store, queryVec(t, primary, "overtime rule on weekends"), 4)

	// The recovered replica serves reads again: kill the primary and
	// the router must answer identically from the replica alone.
	want, err := replica.Store.SearchVectorFiltered(queryVec(t, primary, "days of leave"), 3, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	primary.Chaos.Partition(true)
	got, err := r.SearchVector(ctx, queryVec(t, primary, "days of leave"), 3, vecdb.Filter{})
	if err != nil {
		t.Fatalf("search via recovered replica: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replica-served top-k: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("replica-served hit %d = {%d %v}, want {%d %v}", i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestSnapshotFallbackAfterWALTruncation: checkpointing the primary
// while the replica is away truncates the WAL past the replica's
// position, so the delta read reports ErrSeqTruncated and the repair
// must fall back to a full snapshot transfer — which also pins the
// adopted seq durably on the replica via an immediate checkpoint.
func TestSnapshotFallbackAfterWALTruncation(t *testing.T) {
	r, primary, replica := newPair(t, manualHealth)
	ctx := context.Background()

	for i := int64(1); i <= 4; i++ {
		write(t, r, i, fmt.Sprintf("Handbook section %d: probation lasts %d months.", i, i))
	}
	replica.Chaos.Partition(true)
	for i := int64(5); i <= 8; i++ {
		write(t, r, i, fmt.Sprintf("Handbook section %d: reviews happen in month %d.", i, i))
	}
	// Fold the whole journal into the checkpoint: the WAL now begins
	// after seq 8, and the replica needs everything since 4.
	if err := primary.Store.Save(); err != nil {
		t.Fatalf("checkpoint primary: %v", err)
	}
	if _, err := primary.Store.MutationsSince(4, 0); !errors.Is(err, vecdb.ErrSeqTruncated) {
		t.Fatalf("MutationsSince after truncation = %v, want ErrSeqTruncated", err)
	}

	replica.Chaos.Partition(false)
	r.ProbeNow()
	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("resync sweep: %v", err)
	}
	st := r.ResyncStats()
	if st.SnapshotFallbacks != 1 || st.Resyncs != 1 {
		t.Fatalf("resync stats = %+v, want snapshot fallback", st)
	}
	if bh := backendHealth(t, r, "replica"); bh.State != cluster.StateHealthy.String() {
		t.Fatalf("replica not re-admitted after snapshot: %+v", bh)
	}
	RequireConverged(t, primary.Store, replica.Store)
	if seq := replica.Store.Seq(); seq != 8 {
		t.Fatalf("replica did not adopt snapshot seq: %d, want 8", seq)
	}
	// The snapshot apply checkpointed the replica so the adopted seq
	// survives a crash.
	if ck := replica.Store.PersistStats().Checkpoints; ck == 0 {
		t.Fatal("snapshot apply did not checkpoint the replica")
	}
}

// TestEqualSeqDivergenceRepairedByChecksum: two backends at the same
// seq with different contents (the divergence a partial-failure race
// can leave behind) cannot be reconciled by a delta — the checksum
// exposes it and the replica adopts the primary's exact doc set.
func TestEqualSeqDivergenceRepairedByChecksum(t *testing.T) {
	r, primary, replica := newPair(t, manualHealth)
	ctx := context.Background()

	for i := int64(1); i <= 3; i++ {
		write(t, r, i, fmt.Sprintf("Shared rule %d: shifts last %d hours.", i, 6+i))
	}
	// Scripted split-brain write: the same ID lands with different
	// contents on each side, leaving seqs equal and contents not.
	if err := primary.Store.ApplyAll([]vecdb.Mutation{{Op: vecdb.OpAdd, ID: 50, Text: "The store closes at 5 PM."}}); err != nil {
		t.Fatal(err)
	}
	if err := replica.Store.ApplyAll([]vecdb.Mutation{{Op: vecdb.OpAdd, ID: 50, Text: "The store closes at 9 PM."}}); err != nil {
		t.Fatal(err)
	}
	if p, q := primary.Store.Seq(), replica.Store.Seq(); p != q {
		t.Fatalf("setup: seqs differ (%d vs %d)", p, q)
	}
	if primary.Store.Checksum() == replica.Store.Checksum() {
		t.Fatal("setup: checksums agree despite divergence")
	}

	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("resync sweep: %v", err)
	}
	st := r.ResyncStats()
	if st.SnapshotFallbacks == 0 {
		t.Fatalf("equal-seq divergence repaired without snapshot? %+v", st)
	}
	RequireConverged(t, primary.Store, replica.Store)
	doc, err := replica.Store.Get(50)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Text != "The store closes at 5 PM." {
		t.Fatalf("replica kept its divergent write: %q (primary must win)", doc.Text)
	}
	// The demoted replica re-serves after its next successful probe.
	r.ProbeNow()
	if bh := backendHealth(t, r, "replica"); bh.State != cluster.StateHealthy.String() {
		t.Fatalf("replica not re-admitted after repair+probe: %+v", bh)
	}
}

// TestHeldReplicaWaitsForObservableSource: a stale, held replica must
// not elect itself source of truth — and self-clear back into the
// read path — just because the healthy primary failed one Stat call.
// The sweep has to wait until it can actually observe a serving peer.
func TestHeldReplicaWaitsForObservableSource(t *testing.T) {
	r, primary, replica := newPair(t, manualHealth)
	ctx := context.Background()

	for i := int64(1); i <= 3; i++ {
		write(t, r, i, fmt.Sprintf("Baseline document %d.", i))
	}
	replica.Chaos.Partition(true)
	write(t, r, 4, "Written while the replica was away.")
	replica.Chaos.Partition(false)
	r.ProbeNow()

	// The primary serves fine but its stat/resync surface is flaky
	// this sweep: the replica is the only observable backend, yet it
	// must stay held — its peer is still serving.
	primary.Chaos.FailResync(ErrInjected)
	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("sweep with unobservable source: %v", err)
	}
	if bh := backendHealth(t, r, "replica"); bh.State == cluster.StateHealthy.String() || !bh.NeedsResync {
		t.Fatalf("stale replica re-admitted while a serving peer exists: %+v", bh)
	}

	// Once the primary is observable again, the normal repair runs.
	primary.Chaos.FailResync(nil)
	if err := r.ResyncNow(ctx); err != nil {
		t.Fatalf("resync sweep: %v", err)
	}
	if bh := backendHealth(t, r, "replica"); bh.State != cluster.StateHealthy.String() {
		t.Fatalf("replica not repaired after source returned: %+v", bh)
	}
	RequireConverged(t, primary.Store, replica.Store)
}

// TestResyncUnderChaos hammers the pair with concurrent writers while
// the replica flaps through two partitions, then lets timers (fast
// probe + background sweeps) and a convergence loop repair it — the
// race-detector workout for the whole resync surface.
func TestResyncUnderChaos(t *testing.T) {
	cfg := cluster.HealthConfig{
		Interval:         5 * time.Millisecond,
		Timeout:          time.Second,
		FailThreshold:    2,
		RecoverThreshold: 1,
		ResyncInterval:   5 * time.Millisecond,
		ResyncBatch:      16,
	}
	r, primary, replica := newPair(t, cfg)
	ctx := context.Background()

	const writers, docsPerWriter = 4, 30
	var wg sync.WaitGroup
	var idCounter int64
	var idMu sync.Mutex
	nextID := func() int64 {
		idMu.Lock()
		defer idMu.Unlock()
		idCounter++
		return idCounter
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docsPerWriter; i++ {
				id := nextID()
				m := vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: fmt.Sprintf("Chaos doc %d from writer %d.", id, w)}
				// Writes may fail entirely during flaps (no healthy
				// backend wins the shard) — retry a few times, tolerate
				// the rest; convergence is asserted on what landed.
				for try := 0; try < 10; try++ {
					if err := r.Apply(ctx, 0, []vecdb.Mutation{m}); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	flap := func() {
		replica.Chaos.Partition(true)
		time.Sleep(15 * time.Millisecond)
		replica.Chaos.Partition(false)
		time.Sleep(15 * time.Millisecond)
	}
	flap()
	flap()
	wg.Wait()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if primary.Store.Seq() == replica.Store.Seq() &&
			primary.Store.Checksum() == replica.Store.Checksum() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: primary seq %d check %x, replica seq %d check %x",
				primary.Store.Seq(), primary.Store.Checksum(), replica.Store.Seq(), replica.Store.Checksum())
		}
		r.ProbeNow()
		if err := r.ResyncNow(ctx); err != nil {
			t.Logf("sweep error (will retry): %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	RequireConverged(t, primary.Store, replica.Store)
}
