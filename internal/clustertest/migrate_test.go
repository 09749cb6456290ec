package clustertest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/vecdb"
)

// routerStore adapts a Router to cluster.NodeStore so RequireSameTopK
// can compare the cluster's merged top-k against a single-process
// oracle. Only the read surface is real; the rest is unreachable in
// these tests.
type routerStore struct {
	r *cluster.Router
}

func (s routerStore) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	return s.r.SearchVector(context.Background(), vec, k, f)
}
func (s routerStore) CollectionCounts() map[string]int {
	return s.r.CollectionCounts(context.Background())
}
func (s routerStore) Get(id int64) (vecdb.Document, error) {
	return s.r.Get(context.Background(), id)
}
func (s routerStore) Len() int { return s.r.Len(context.Background()) }
func (s routerStore) ApplyAll(ms []vecdb.Mutation) error {
	return errors.New("clustertest: routerStore is read-only")
}
func (s routerStore) NextID() int64    { panic("unused") }
func (s routerStore) Seq() uint64      { panic("unused") }
func (s routerStore) Checksum() uint64 { panic("unused") }
func (s routerStore) MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error) {
	panic("unused")
}
func (s routerStore) ApplyResync(ms []vecdb.SeqMutation) error              { panic("unused") }
func (s routerStore) SnapshotDocs() (uint64, []vecdb.Document, error)       { panic("unused") }
func (s routerStore) ApplySnapshot(seq uint64, docs []vecdb.Document) error { panic("unused") }

// requireSameRanking compares the cluster's merged top-k against the
// oracle rank by rank on scores rather than IDs. Writer texts are
// templates, so distinct documents collide on bitwise-equal scores,
// and which member of a tie group makes the k cut depends on
// insertion order — nondeterministic under concurrent writers, and
// different between a merged two-shard read and a flat store by
// construction. Tied documents are interchangeable results; the
// ranked score profile is not, and every hit the cluster returns
// must still be a document the oracle holds with the same text.
func requireSameRanking(t *testing.T, r *cluster.Router, oracle *vecdb.DB, vec []float32, k int) {
	t.Helper()
	got, err := r.SearchVector(context.Background(), vec, k, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.SearchVector(vec, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("top-k sizes diverged: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Score != want[i].Score {
			t.Fatalf("rank %d score diverged: {%d %v} vs {%d %v}",
				i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
		doc, err := oracle.Get(got[i].ID)
		if err != nil {
			t.Fatalf("cluster hit %d (rank %d) not in the oracle: %v", got[i].ID, i, err)
		}
		if doc.Text != got[i].Text {
			t.Fatalf("hit %d text diverged: %q vs %q", got[i].ID, got[i].Text, doc.Text)
		}
	}
}

// newMigrationCluster builds a 2-shard router over durable chaos
// nodes plus a single-store oracle that mirrors every acknowledged
// write.
func newMigrationCluster(t *testing.T, cfg cluster.HealthConfig) (*cluster.Router, []*Node, *vecdb.DB) {
	t.Helper()
	s0 := NewDurableNode(t, "s0")
	s1 := NewDurableNode(t, "s1")
	r, err := cluster.NewRouter([]cluster.ShardBackends{
		{Primary: s0.Chaos},
		{Primary: s1.Chaos},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	oracle, err := vecdb.NewDefault(Dim)
	if err != nil {
		t.Fatal(err)
	}
	return r, []*Node{s0, s1}, oracle
}

// TestMigrationLosslessQuiet: the protocol's core promise with no
// traffic in flight — after a move, the retired source is a perfect
// oracle for the target: same seq, same checksum, same documents,
// same top-k.
func TestMigrationLosslessQuiet(t *testing.T) {
	r, nodes, oracle := newMigrationCluster(t, manualHealth)
	ctx := context.Background()

	for i := int64(1); i <= 20; i++ {
		text := fmt.Sprintf("Quiet policy %d: rule %d applies to department %d.", i, i*3, i%5)
		m := vecdb.Mutation{Op: vecdb.OpAdd, ID: i, Text: text}
		if err := r.Apply(ctx, r.ShardFor(i), []vecdb.Mutation{m}); err != nil {
			t.Fatal(err)
		}
		if err := oracle.ApplyAll([]vecdb.Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}

	target := NewDurableNode(t, "tgt")
	st, err := r.Rebalance(ctx, 0, target.Chaos)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Outcome != "ok" {
		t.Fatalf("migration = %+v", st)
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", r.Epoch())
	}

	vec := queryVec(t, nodes[0], "which rule applies to department 3")
	RequireMigrated(t, nodes[0].Store, target.Store, vec, 5)
	RequireSameTopK(t, routerStore{r}, oracle, vec, 5)

	// The retired source 409s direct data traffic with the new ring.
	var stale *cluster.StaleEpochError
	if _, err := nodes[0].Chaos.Stat(ctx); !errors.As(err, &stale) || stale.Ring.Epoch != 2 {
		t.Fatalf("retired source = %v, want StaleEpochError epoch 2", err)
	}
}

// catchupGate holds a migration target's Stat calls in the catch-up
// phase until release is closed, so a test can act while the phase is
// provably open. The wait respects ctx, which the router bounds by
// its probe timeout.
type catchupGate struct {
	*ChaosBackend
	r       *cluster.Router
	release chan struct{}
}

func (g catchupGate) Stat(ctx context.Context) (cluster.ShardStat, error) {
	if migs := g.r.Migrations(); len(migs) > 0 && migs[0].Phase == "catchup" {
		select {
		case <-g.release:
		case <-ctx.Done():
			return cluster.ShardStat{}, ctx.Err()
		}
	}
	return g.ChaosBackend.Stat(ctx)
}

// waitPhase polls until the active migration reaches phase.
func waitPhase(t *testing.T, r *cluster.Router, phase string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		migs := r.Migrations()
		if len(migs) > 0 && migs[0].Phase == phase {
			return
		}
		if len(migs) > 0 && migs[0].Outcome != "" {
			t.Fatalf("migration finished (%s) before reaching phase %q", migs[0].Outcome, phase)
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never reached phase %q: %+v", phase, migs)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitOutcome polls until the newest migration finishes.
func waitOutcome(t *testing.T, r *cluster.Router) cluster.MigrationStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		migs := r.Migrations()
		if len(migs) > 0 && migs[0].Outcome != "" {
			return migs[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration never finished: %+v", migs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMigrationChaosLossless is the headline invariant suite: three
// writers stream adds and deletes through the router while a
// migration attempt is killed mid-seeding by an injected fault, a
// second attempt (with transfer latency injected) runs to completion,
// and the search path is compared against a single-process oracle
// mid-migration. At no point may a document be lost or duplicated, an
// acknowledged write vanish, or the cluster's top-k diverge from the
// oracle's.
//
// ackMu makes router+oracle updates atomic with respect to the
// comparator: writers hold it shared around each (router apply,
// oracle apply) pair; comparison passes take it exclusively, so they
// always observe a consistent cut of both stores.
func TestMigrationChaosLossless(t *testing.T) {
	r, nodes, oracle := newMigrationCluster(t, manualHealth)
	ctx := context.Background()

	var ackMu sync.RWMutex
	type writerState struct {
		live    map[int64]bool // acked adds still expected present
		deleted []int64        // acked deletes
	}
	const writers = 3
	states := make([]*writerState, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	apply := func(m vecdb.Mutation) error {
		ackMu.RLock()
		defer ackMu.RUnlock()
		if err := r.Apply(ctx, r.ShardFor(m.ID), []vecdb.Mutation{m}); err != nil {
			return err
		}
		// Acked: mirror into the oracle under the same lock hold.
		if err := oracle.ApplyAll([]vecdb.Mutation{m}); err != nil {
			return fmt.Errorf("oracle apply: %w", err)
		}
		return nil
	}

	for w := 0; w < writers; w++ {
		ws := &writerState{live: make(map[int64]bool)}
		states[w] = ws
		wg.Add(1)
		go func(w int, ws *writerState) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := int64(1000 + w*100000 + i)
				text := fmt.Sprintf("Writer %d document %d: clause %d of the handbook.", w, i, id%17)
				if err := apply(vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: text}); err != nil {
					t.Errorf("writer %d add %d: %v", w, id, err)
					return
				}
				ws.live[id] = true
				// Every 7th write deletes an earlier acked doc, so the
				// migration must carry deletes as faithfully as adds.
				if i%7 == 6 {
					victim := int64(1000 + w*100000 + (i - 5))
					if err := apply(vecdb.Mutation{Op: vecdb.OpDelete, ID: victim}); err != nil {
						t.Errorf("writer %d delete %d: %v", w, victim, err)
						return
					}
					delete(ws.live, victim)
					ws.deleted = append(ws.deleted, victim)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}(w, ws)
	}

	// Attempt 1 under live writes: the target's transfer surface dies
	// after one call (the activation push lands, then the seed
	// snapshot is killed) — the migration must abort and leave the old
	// assignment serving.
	badTarget := NewDurableNode(t, "tgt-doomed")
	badTarget.Chaos.FailMigrationAfter(1, ErrInjected)
	st, err := r.Rebalance(ctx, 0, badTarget.Chaos)
	if err != nil {
		t.Fatalf("attempt 1 begin: %v", err)
	}
	if st.Outcome != "aborted" || !strings.Contains(st.Error, "injected") {
		t.Fatalf("attempt 1 = %+v, want aborted by the injected fault", st)
	}
	if r.Epoch() != 1 {
		t.Fatalf("aborted attempt moved the epoch to %d", r.Epoch())
	}

	// Attempt 2: a healthy target with injected transfer latency, so
	// seeding and catch-up provably overlap the write stream. The gate
	// holds catch-up open until the mid-migration comparison is done:
	// under this write rate the first catch-up round already finds the
	// target within catchupLag, so the phase would otherwise pass in
	// microseconds.
	target := NewDurableNode(t, "tgt")
	target.Chaos.DelayMigration(2 * time.Millisecond)
	gated := catchupGate{ChaosBackend: target.Chaos, r: r, release: make(chan struct{})}
	if _, err := r.StartRebalance(0, gated); err != nil {
		t.Fatalf("attempt 2 begin: %v", err)
	}

	// Mid-migration comparison: with catch-up running, freeze the
	// writers and check the cluster answers exactly like the oracle.
	waitPhase(t, r, "catchup")
	vec := queryVec(t, nodes[0], "which clause of the handbook applies")
	ackMu.Lock()
	requireSameRanking(t, r, oracle, vec, 5)
	ackMu.Unlock()
	close(gated.release)

	final := waitOutcome(t, r)
	if final.Outcome != "ok" {
		t.Fatalf("attempt 2 = %+v, want ok", final)
	}

	// Let writes continue across the new assignment briefly, then
	// stop and settle.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Invariants, on the frozen state:
	// 1. No acked write vanished, no deleted doc resurrected.
	expected := 0
	for _, ws := range states {
		for id := range ws.live {
			doc, err := r.Get(ctx, id)
			if err != nil {
				t.Fatalf("acked doc %d lost (shard %d): %v", id, r.ShardFor(id), err)
			}
			if doc.ID != id {
				t.Fatalf("doc %d came back as %d", id, doc.ID)
			}
			expected++
		}
		for _, id := range ws.deleted {
			if _, err := r.Get(ctx, id); !errors.Is(err, vecdb.ErrNotFound) {
				t.Fatalf("deleted doc %d resurrected: %v", id, err)
			}
		}
	}
	// 2. No duplication: total document count equals the oracle's,
	// and the moved shard's store holds exactly its hash class.
	if got, want := r.Len(ctx), oracle.Len(); got != want {
		t.Fatalf("cluster holds %d docs, oracle %d", got, want)
	}
	shard0 := 0
	for _, ws := range states {
		for id := range ws.live {
			if r.ShardFor(id) == 0 {
				shard0++
			}
		}
	}
	if got := target.Store.Len(); got != shard0 {
		t.Fatalf("migrated shard holds %d docs, want %d", got, shard0)
	}
	// 3. The read path agrees with the oracle after retirement too.
	requireSameRanking(t, r, oracle, vec, 5)
	requireSameRanking(t, r, oracle, queryVec(t, nodes[0], "writer zero document"), 3)

	// 4. The ring advanced exactly once and both attempts are on the
	// record.
	if r.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", r.Epoch())
	}
	outcomes := map[string]int{}
	for _, m := range r.Migrations() {
		outcomes[m.Outcome]++
	}
	if outcomes["ok"] != 1 || outcomes["aborted"] != 1 {
		t.Fatalf("migration history = %v, want one ok and one aborted", outcomes)
	}
	// 5. The retired source bounces direct traffic toward the new
	// ring (the stale-epoch self-heal a slow client relies on).
	var stale *cluster.StaleEpochError
	if _, err := nodes[0].Chaos.Stat(ctx); !errors.As(err, &stale) || stale.Ring.Epoch != 2 {
		t.Fatalf("retired source = %v, want StaleEpochError epoch 2", err)
	}
}

// TestRouterCloseAbortsMigration: Close must abort a migration that is
// blocked inside a transfer call rather than leave it to run out its
// timeout, and return only once the abort is on the record.
func TestRouterCloseAbortsMigration(t *testing.T) {
	s0 := NewDurableNode(t, "s0")
	s1 := NewDurableNode(t, "s1")
	r, err := cluster.NewRouter([]cluster.ShardBackends{
		{Primary: s0.Chaos},
		{Primary: s1.Chaos},
	}, manualHealth)
	if err != nil {
		t.Fatal(err)
	}
	// The test closes the router itself; a second Close would panic.
	closed := false
	t.Cleanup(func() {
		if !closed {
			r.Close()
		}
	})
	writeShard(t, r, 0, 5, 1)

	// The seed snapshot read stalls far longer than the test runs.
	s0.Chaos.DelayMigration(20 * time.Second)
	target := NewDurableNode(t, "tgt")
	if _, err := r.StartRebalance(0, target.Chaos); err != nil {
		t.Fatal(err)
	}
	waitPhase(t, r, "seeding")

	start := time.Now()
	r.Close()
	closed = true
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a migration blocked in seeding", d)
	}
	migs := r.Migrations()
	if len(migs) == 0 || migs[0].Outcome != "aborted" {
		t.Fatalf("migrations after Close = %+v, want the blocked one aborted", migs)
	}
	if r.Epoch() != 1 {
		t.Fatalf("aborted migration moved the epoch to %d", r.Epoch())
	}
}

// writeShard routes n adds to shard si, taking IDs from base upward
// that hash there, and returns the next unused ID.
func writeShard(t *testing.T, r *cluster.Router, si, n int, base int64) int64 {
	t.Helper()
	id := base
	for ; n > 0; id++ {
		if r.ShardFor(id) != si {
			continue
		}
		m := vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: fmt.Sprintf("Shard %d document %d: rule %d.", si, id, id%11)}
		if err := r.Apply(context.Background(), si, []vecdb.Mutation{m}); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
		n--
	}
	return id
}

// afterSeed wraps a migration target so hook runs once, right after
// the seed snapshot lands: it shapes what the catch-up rounds find.
type afterSeed struct {
	*ChaosBackend
	once *sync.Once
	hook func()
}

func (a afterSeed) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	if err := a.ChaosBackend.ApplySnapshot(ctx, seq, docs); err != nil {
		return err
	}
	a.once.Do(a.hook)
	return nil
}

// TestMigrationAndResyncCountApart: migration and replica resync share
// one catch-up loop, but each counts its own transfers — a migration in
// MigrationStatus, a resync sweep in ResyncStats.
func TestMigrationAndResyncCountApart(t *testing.T) {
	s0 := NewDurableNode(t, "s0")
	s1 := NewDurableNode(t, "s1")
	s1r := NewDurableNode(t, "s1r")
	r, err := cluster.NewRouter([]cluster.ShardBackends{
		{Primary: s0.Chaos},
		{Primary: s1.Chaos, Replicas: []cluster.Backend{s1r.Chaos}},
	}, manualHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	next := writeShard(t, r, 0, 5, 1)

	// Ten writes land on the source after the seed: the migration must
	// ship exactly them as deltas.
	const deltas = 10
	target := NewDurableNode(t, "tgt")
	st, err := r.Rebalance(context.Background(), 0, afterSeed{
		ChaosBackend: target.Chaos,
		once:         new(sync.Once),
		hook:         func() { next = writeShard(t, r, 0, deltas, next) },
	})
	if err != nil || st.Outcome != "ok" {
		t.Fatalf("migration = %+v, %v", st, err)
	}
	if st.ShippedMutations != deltas {
		t.Fatalf("migration shipped %d mutations, want %d", st.ShippedMutations, deltas)
	}
	if rs := r.ResyncStats(); rs != (cluster.ResyncStats{}) {
		t.Fatalf("migration counted in resync stats: %+v", rs)
	}
	RequireConverged(t, s0.Store, target.Store)

	// The replica of shard 1 misses six writes; one sweep ships them.
	const missed = 6
	s1r.Chaos.FailWrites(ErrInjected)
	writeShard(t, r, 1, missed, next)
	s1r.Chaos.FailWrites(nil)
	if err := r.ResyncNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := cluster.ResyncStats{Resyncs: 1, MutationsShipped: missed}
	if rs := r.ResyncStats(); rs != want {
		t.Fatalf("resync stats = %+v, want %+v", rs, want)
	}
	RequireConverged(t, s1.Store, s1r.Store)
	if migs := r.Migrations(); len(migs) != 1 || migs[0].ShippedMutations != deltas {
		t.Fatalf("resync counted in the migration: %+v", migs)
	}
}

// TestMigrationSnapshotFallbackCountsNoResync: a migration whose
// catch-up finds the source's WAL checkpointed past the target falls
// back to a snapshot transfer, and counts nothing as a resync.
func TestMigrationSnapshotFallbackCountsNoResync(t *testing.T) {
	r, nodes, _ := newMigrationCluster(t, manualHealth)
	next := writeShard(t, r, 0, 5, 1)

	target := NewDurableNode(t, "tgt")
	st, err := r.Rebalance(context.Background(), 0, afterSeed{
		ChaosBackend: target.Chaos,
		once:         new(sync.Once),
		hook: func() {
			writeShard(t, r, 0, 10, next)
			if err := nodes[0].Store.Save(); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil || st.Outcome != "ok" {
		t.Fatalf("migration = %+v, %v", st, err)
	}
	if n := target.Chaos.Calls("ApplySnapshot"); n != 2 {
		t.Fatalf("target took %d snapshots, want the seed and one fallback", n)
	}
	if st.ShippedMutations != 0 {
		t.Fatalf("snapshot fallback reported %d shipped mutations", st.ShippedMutations)
	}
	if rs := r.ResyncStats(); rs != (cluster.ResyncStats{}) {
		t.Fatalf("migration counted in resync stats: %+v", rs)
	}
	RequireConverged(t, nodes[0].Store, target.Store)
}
