package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// migrateHealth keeps every timer manual so migrations finish in
// milliseconds.
var migrateHealth = HealthConfig{
	Interval:       time.Hour,
	Timeout:        time.Second,
	FailThreshold:  1,
	ResyncInterval: -1,
}

// newMigrationTarget builds a fresh local backend (and its store)
// that is not part of any ring yet.
func newMigrationTarget(t *testing.T, dim int) (*LocalBackend, *vecdb.DB) {
	t.Helper()
	db := newLocalDB(t, dim)
	b, err := NewLocalBackend("target-0", db)
	if err != nil {
		t.Fatal(err)
	}
	return b, db
}

// TestMigrateHappyPath moves a live shard onto a fresh backend and
// checks the full contract: status, epoch bump, identical reads
// through the new assignment, source retirement, and counters.
func TestMigrateHappyPath(t *testing.T) {
	const dim = 32
	// Build the router by hand so the test keeps references to the
	// original shard backends and can verify their retirement.
	dbs := []*vecdb.DB{newLocalDB(t, dim), newLocalDB(t, dim)}
	srcs := make([]*LocalBackend, 2)
	shards := make([]ShardBackends, 2)
	for i := range dbs {
		b, err := NewLocalBackend(fmt.Sprintf("shard-%d", i), dbs[i])
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = b
		shards[i] = ShardBackends{Primary: b}
	}
	r, err := NewRouter(shards, migrateHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus)
	ctx := context.Background()

	vec, err := dbs[0].Embedder().Embed("how much annual leave")
	if err != nil {
		t.Fatal(err)
	}
	before, err := r.SearchVector(ctx, vec, 3, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}

	target, tdb := newMigrationTarget(t, dim)
	st, err := r.Rebalance(ctx, 0, target)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if st.Outcome != "ok" || st.Phase != "done" {
		t.Fatalf("status = %+v, want outcome ok / phase done", st)
	}
	if st.Epoch != 2 || r.Epoch() != 2 {
		t.Fatalf("epoch = %d (router %d), want 2", st.Epoch, r.Epoch())
	}
	if !st.SourceRetired {
		t.Fatalf("source not retired: %+v", st)
	}
	if st.Shard != 0 || st.Target != "target-0" {
		t.Fatalf("status identity = %+v", st)
	}

	// The moved shard's state landed intact: same seq, same checksum,
	// same doc count as the retired source.
	if a, b := dbs[0].Seq(), tdb.Seq(); a != b {
		t.Fatalf("seq diverged after migration: source %d, target %d", a, b)
	}
	if a, b := dbs[0].Checksum(), tdb.Checksum(); a != b {
		t.Fatalf("checksum diverged after migration: %x vs %x", a, b)
	}

	// Reads through the router are byte-identical to pre-migration.
	after, err := r.SearchVector(ctx, vec, 3, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("top-k size changed across migration: %d vs %d", len(after), len(before))
	}
	for i := range before {
		if after[i].ID != before[i].ID || after[i].Score != before[i].Score {
			t.Fatalf("hit %d changed across migration: %+v vs %+v", i, after[i], before[i])
		}
	}

	// The new ring names the target as shard 0's sole backend.
	rg := r.Ring()
	if len(rg.Shards[0]) != 1 || rg.Shards[0][0] != "target-0" {
		t.Fatalf("post-migration ring shard 0 = %v", rg.Shards[0])
	}

	// The retired source holds the new ring with Serving=false and
	// 409s direct traffic toward it — the self-heal signal for any
	// client still routing by the old assignment.
	var stale *StaleEpochError
	if _, err := srcs[0].Stat(ctx); !errors.As(err, &stale) || stale.Ring.Epoch != 2 {
		t.Fatalf("retired source stat = %v, want StaleEpochError carrying epoch 2", err)
	}
	// The untouched shard keeps serving under the new epoch.
	if _, err := srcs[1].Stat(withRingEpoch(ctx, 2)); err != nil {
		t.Fatalf("surviving shard rejected the new epoch: %v", err)
	}

	// Writes routed to shard 0 land on the target, not the retired
	// source store.
	var id int64
	for id = 100; r.ShardFor(id) != 0; id++ {
	}
	if err := r.Apply(ctx, 0, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: id, Text: "post-cutover doc"}}); err != nil {
		t.Fatalf("post-migration write: %v", err)
	}
	if _, err := tdb.Get(id); err != nil {
		t.Fatalf("post-cutover write missing on target: %v", err)
	}
	if _, err := dbs[0].Get(id); !errors.Is(err, vecdb.ErrNotFound) {
		t.Fatalf("post-cutover write leaked to retired source: %v", err)
	}

	// Status surfaces: history and stats.
	migs := r.Migrations()
	if len(migs) != 1 || migs[0].Outcome != "ok" {
		t.Fatalf("migrations = %+v", migs)
	}
	if stats := r.Stats(); stats.RingEpoch != 2 {
		t.Fatalf("stats ring epoch = %d", stats.RingEpoch)
	}
}

// TestMigrateBeginErrors: every way a migration can refuse to start,
// and the single-slot guarantee.
func TestMigrateBeginErrors(t *testing.T) {
	const dim = 16
	r, _ := newLocalRouter(t, 2, dim, migrateHealth)
	ctx := context.Background()
	target, _ := newMigrationTarget(t, dim)

	if _, err := r.Rebalance(ctx, 0, nil); err == nil {
		t.Fatal("nil target accepted")
	}
	if _, err := r.Rebalance(ctx, -1, target); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("shard -1 = %v", err)
	}
	if _, err := r.Rebalance(ctx, 2, target); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("shard 2 = %v", err)
	}

	// A target already serving a shard cannot also be a migration
	// target: that would assign it to two shards at once.
	inRing, err := NewLocalBackend("shard-1", newLocalDB(t, dim))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Rebalance(ctx, 0, inRing); err == nil || !strings.Contains(err.Error(), "already serves shard") {
		t.Fatalf("in-ring target = %v", err)
	}

	// One migration at a time: while a claimed slot is held, a second
	// begin reports ErrMigrationActive.
	m, err := r.beginMigration(0, target)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := newMigrationTarget(t, dim)
	if _, err := r.Rebalance(ctx, 1, other); !errors.Is(err, ErrMigrationActive) {
		t.Fatalf("second migration = %v, want ErrMigrationActive", err)
	}
	r.finishMigration(m, "aborted", errors.New("test cleanup"))

	// The slot is free again.
	if _, err := r.Rebalance(ctx, 0, target); err != nil {
		t.Fatalf("migration after slot release: %v", err)
	}
}

// failingSnapshotTarget wraps a backend so ApplySnapshot always
// fails — the seed phase can never complete.
type failingSnapshotTarget struct {
	Backend
}

func (f failingSnapshotTarget) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	return errors.New("injected: snapshot refused")
}

// TestMigrateAbortLeavesRingIntact: a migration that dies before the
// flip must leave the old assignment fully serving, the epoch
// unchanged, and the outcome observable as "aborted" without an error
// from Rebalance itself.
func TestMigrateAbortLeavesRingIntact(t *testing.T) {
	const dim = 32
	r, dbs := newLocalRouter(t, 2, dim, migrateHealth)
	seedRouter(t, r, corpus)
	ctx := context.Background()

	target, _ := newMigrationTarget(t, dim)
	st, err := r.Rebalance(ctx, 0, failingSnapshotTarget{target})
	if err != nil {
		t.Fatalf("an aborted migration is not a Rebalance error: %v", err)
	}
	if st.Outcome != "aborted" || st.Phase != "aborted" {
		t.Fatalf("status = %+v, want aborted", st)
	}
	if !strings.Contains(st.Error, "snapshot refused") {
		t.Fatalf("abort error not surfaced: %+v", st)
	}
	if st.Epoch != 0 || r.Epoch() != 1 {
		t.Fatalf("aborted migration moved the epoch: status %d, router %d", st.Epoch, r.Epoch())
	}

	// The original assignment still serves reads and writes.
	vec, err := dbs[0].Embedder().Embed("shopkeepers required")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SearchVector(ctx, vec, 3, vecdb.Filter{}); err != nil {
		t.Fatalf("search after aborted migration: %v", err)
	}
	if err := r.Apply(ctx, 0, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: 50, Text: "still writable"}}); err != nil {
		t.Fatalf("write after aborted migration: %v", err)
	}
	if got := r.Stats(); got.RingEpoch != 1 {
		t.Fatalf("stats after abort = %+v", got)
	}
	migs := r.Migrations()
	if len(migs) != 1 || migs[0].Outcome != "aborted" {
		t.Fatalf("migrations after abort = %+v", migs)
	}

	// The slot is released: a clean retry succeeds end to end.
	if st, err := r.Rebalance(ctx, 0, target); err != nil || st.Outcome != "ok" {
		t.Fatalf("retry after abort = %+v, %v", st, err)
	}
	if r.Epoch() != 2 {
		t.Fatalf("epoch after retry = %d, want 2", r.Epoch())
	}
}

// cutoverFailTarget wraps a backend so every call fails once the
// migration has entered its cutover phase: the parity drain dies with
// the shard's write barrier held.
type cutoverFailTarget struct {
	Backend
	r *Router
}

func (f cutoverFailTarget) fault() error {
	if migs := f.r.Migrations(); len(migs) > 0 && migs[0].Phase == "cutover" {
		return errors.New("injected: target lost")
	}
	return nil
}

func (f cutoverFailTarget) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Backend.Apply(ctx, ms)
}

func (f cutoverFailTarget) Stat(ctx context.Context) (ShardStat, error) {
	if err := f.fault(); err != nil {
		return ShardStat{}, err
	}
	return f.Backend.Stat(ctx)
}

func (f cutoverFailTarget) ApplyResync(ctx context.Context, ms []vecdb.SeqMutation) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Backend.ApplyResync(ctx, ms)
}

func (f cutoverFailTarget) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	if err := f.fault(); err != nil {
		return err
	}
	return f.Backend.ApplySnapshot(ctx, seq, docs)
}

// TestMigrationCutoverFaultReleasesBarrier: the cutover drains to
// parity and flips the ring under one write barrier. A target that
// dies inside it must abort the migration with the ring untouched and
// the barrier released, so the shard takes writes again at once.
func TestMigrationCutoverFaultReleasesBarrier(t *testing.T) {
	const dim = 32
	r, dbs := newLocalRouter(t, 2, dim, migrateHealth)
	seedRouter(t, r, corpus)
	ctx := context.Background()

	target, _ := newMigrationTarget(t, dim)
	st, err := r.Rebalance(ctx, 0, cutoverFailTarget{Backend: target, r: r})
	if err != nil {
		t.Fatalf("an aborted migration is not a Rebalance error: %v", err)
	}
	if st.Outcome != "aborted" || !strings.Contains(st.Error, "cutover") {
		t.Fatalf("status = %+v, want aborted naming the cutover", st)
	}
	if st.Epoch != 0 || r.Epoch() != 1 {
		t.Fatalf("aborted cutover moved the epoch: status %d, router %d", st.Epoch, r.Epoch())
	}

	var id int64
	for id = 100; r.ShardFor(id) != 0; id++ {
	}
	// Apply waits on the barrier without a deadline, so run it aside
	// and bound the wait here.
	done := make(chan error, 1)
	go func() {
		done <- r.Apply(ctx, 0, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: id, Text: "written after the abort"}})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after aborted cutover: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write after aborted cutover still blocked: the write barrier was not released")
	}
	if _, err := dbs[0].Get(id); err != nil {
		t.Fatalf("write after aborted cutover missing on the source: %v", err)
	}
}

// TestStartRebalanceAsync: the non-blocking variant reports progress
// through Migrations and completes on its own.
func TestStartRebalanceAsync(t *testing.T) {
	const dim = 32
	r, _ := newLocalRouter(t, 2, dim, migrateHealth)
	seedRouter(t, r, corpus)
	target, tdb := newMigrationTarget(t, dim)

	st, err := r.StartRebalance(0, target)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outcome != "" {
		t.Fatalf("initial status already finished: %+v", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		migs := r.Migrations()
		if len(migs) > 0 && migs[0].Outcome != "" {
			if migs[0].Outcome != "ok" {
				t.Fatalf("async migration = %+v", migs[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("async migration never finished: %+v", migs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r.Epoch() != 2 || tdb.Len() == 0 {
		t.Fatalf("async migration incomplete: epoch %d, target docs %d", r.Epoch(), tdb.Len())
	}
}

// TestRebalancePlan: the dry-run planner proposes the shard carrying
// the most documents and mutates nothing.
func TestRebalancePlan(t *testing.T) {
	const dim = 16
	r, _ := newLocalRouter(t, 3, dim, migrateHealth)
	ctx := context.Background()

	// Pile documents onto one shard by routing every write there.
	heavy := 1
	for i := 0; i < 6; i++ {
		id := int64(i*3 + heavy + 1) // IDs congruent to shard `heavy`
		si := r.ShardFor(id)
		if err := r.Apply(ctx, si, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: id, Text: fmt.Sprintf("doc %d", id)}}); err != nil {
			t.Fatal(err)
		}
	}
	lens := r.Lens(ctx)
	want, max := 0, -1
	for si, n := range lens {
		if n > max {
			want, max = si, n
		}
	}

	plan := r.Plan(ctx)
	if plan.Epoch != 1 || len(plan.Shards) != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.ProposedShard != want {
		t.Fatalf("proposed shard %d, want %d (lens %v)", plan.ProposedShard, want, lens)
	}
	if plan.Shards[want].Writes == 0 {
		t.Fatalf("planner lost the write counters: %+v", plan.Shards[want])
	}
	if !strings.Contains(plan.Reason, fmt.Sprintf("shard %d", want)) {
		t.Fatalf("reason = %q", plan.Reason)
	}
	if r.Epoch() != 1 {
		t.Fatal("dry-run plan mutated the ring")
	}
}
