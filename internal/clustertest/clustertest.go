// Package clustertest is the in-process chaos harness for the cluster
// layer: a fault-injecting Backend wrapper plus helpers for building
// real durable shard nodes inside one test process and asserting
// seq-level convergence between them.
//
// Before this package existed, the only coverage for
// ejection/divergence/recovery was a CI shell smoke that kill -9'd a
// real process — unrunnable under `go test`, undebuggable under the
// race detector, and too coarse to script partial failures. The
// harness closes that gap: a ChaosBackend wraps a real
// cluster.Backend (over a real WAL-backed store) and injects scripted
// errors, partitions and latency per operation class, so
// ejection → divergence → resync → convergence runs as a
// deterministic, race-clean Go test. Probing and anti-entropy are
// driven explicitly through Router.ProbeNow and Router.ResyncNow, so
// tests never sleep-and-hope.
package clustertest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/vecdb"
)

// Dim is the embedding width every harness store uses.
const Dim = 32

// Injected fault errors, distinguishable in assertions.
var (
	ErrPartitioned = errors.New("clustertest: partitioned")
	ErrInjected    = errors.New("clustertest: injected fault")
)

// ChaosBackend wraps a cluster.Backend with scripted fault injection.
// Faults are grouped by operation class so a test can, say, fail
// writes while probes still succeed (a diverging-but-alive replica)
// or cut everything (a network partition):
//
//	reads     — SearchVector, Get
//	writes    — Apply
//	probes    — Probe
//	resync    — Stat, MutationsSince, ApplyResync, SnapshotDocs, ApplySnapshot
//	migration — the transfer surface a shard move rides on: snapshot
//	            read/apply, delta read/apply, and InstallRing — armed
//	            separately from resync so a test can break a migration
//	            mid-cutover while background anti-entropy stays healthy
//
// Partition(true) fails every class. All methods are safe for
// concurrent use; fault state changes take effect on the next call.
type ChaosBackend struct {
	inner cluster.Backend

	mu          sync.Mutex
	partitioned bool
	writeErr    error
	readErr     error
	probeErr    error
	resyncErr   error
	migErr      error
	migAfter    int
	migDelay    time.Duration
	latency     time.Duration
	spikeEvery  int
	spikeDur    time.Duration
	spikeN      uint64
	spikes      uint64
	calls       map[string]uint64
}

// Wrap builds a ChaosBackend over inner with no faults armed.
func Wrap(inner cluster.Backend) *ChaosBackend {
	return &ChaosBackend{inner: inner, calls: make(map[string]uint64)}
}

// Partition cuts (or restores) the backend entirely — every
// operation fails with ErrPartitioned, exactly what a dead node or a
// network split looks like to the router.
func (c *ChaosBackend) Partition(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partitioned = on
}

// FailWrites arms (or, with nil, disarms) a fault on Apply.
// ErrInjected is used when err is nil but arm is true.
func (c *ChaosBackend) FailWrites(err error) { c.setErr(&c.writeErr, err) }

// FailReads arms a fault on SearchVector and Get.
func (c *ChaosBackend) FailReads(err error) { c.setErr(&c.readErr, err) }

// FailProbes arms a fault on Probe — the backend looks dead to the
// health checker while still answering data calls.
func (c *ChaosBackend) FailProbes(err error) { c.setErr(&c.probeErr, err) }

// FailResync arms a fault on the resync surface (Stat, delta and
// snapshot transfer), for tests that pin a backend in its
// needs-resync hold.
func (c *ChaosBackend) FailResync(err error) { c.setErr(&c.resyncErr, err) }

// FailMigration arms (or, with nil, disarms) a fault on the migration
// transfer surface — SnapshotDocs, ApplySnapshot, MutationsSince,
// ApplyResync and InstallRing — dropping a shard move's seeding,
// catch-up or ring push while ordinary reads, writes and probes keep
// working.
func (c *ChaosBackend) FailMigration(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.migErr, c.migAfter = err, 0
}

// FailMigrationAfter lets n migration-surface calls through and then
// arms err — the "node died mid-cutover" script: seeding starts,
// some batches land, and the transfer dies partway. err == nil
// disarms.
func (c *ChaosBackend) FailMigrationAfter(n int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.migErr, c.migAfter = err, n
}

// DelayMigration stalls every migration-surface call by d (0
// disarms), stretching the seeding/catch-up window so concurrent
// writes provably overlap it. The stall respects ctx.
func (c *ChaosBackend) DelayMigration(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.migDelay = d
}

// migEnter applies the migration fault class on top of the resync
// class: the armed delay first (ctx-aware), then the countdown fault.
func (c *ChaosBackend) migEnter(ctx context.Context) error {
	c.mu.Lock()
	d := c.migDelay
	var err error
	if c.migErr != nil {
		if c.migAfter > 0 {
			c.migAfter--
		} else {
			err = c.migErr
		}
	}
	c.mu.Unlock()
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return err
}

func (c *ChaosBackend) setErr(slot *error, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	*slot = err
}

// SetLatency injects a fixed delay before every operation.
func (c *ChaosBackend) SetLatency(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latency = d
}

// SetSpike arms a deterministic tail-latency spike: every every-th
// SearchVector call stalls for d before executing (1-in-every, counted
// per backend). Unlike SetLatency it models the occasional slow
// replica — GC pause, page-cache miss, noisy neighbor — that hedged
// reads exist to cut, and being counter-based rather than random it
// reproduces the same tail on every run. every <= 0 or d <= 0
// disarms. The stall respects ctx, so a hedge race that has already
// been decided cancels the spiked loser instead of waiting it out.
func (c *ChaosBackend) SetSpike(every int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spikeEvery, c.spikeDur = every, d
	c.spikeN = 0
}

// Spikes reports how many SearchVector calls were stalled by SetSpike.
func (c *ChaosBackend) Spikes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spikes
}

// spikeHit advances the spike counter and returns the stall to apply
// to this SearchVector call (0 for the fast path).
func (c *ChaosBackend) spikeHit() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spikeEvery <= 0 || c.spikeDur <= 0 {
		return 0
	}
	c.spikeN++
	if c.spikeN%uint64(c.spikeEvery) != 0 {
		return 0
	}
	c.spikes++
	return c.spikeDur
}

// Calls reports how many times the named method has been invoked
// (faulted calls included).
func (c *ChaosBackend) Calls(method string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[method]
}

// enter records the call, applies latency, and returns the armed
// fault for the operation class (classErr may be nil for
// partition-only classes).
func (c *ChaosBackend) enter(method string, classErr *error) error {
	c.mu.Lock()
	c.calls[method]++
	d := c.latency
	var err error
	switch {
	case c.partitioned:
		err = ErrPartitioned
	case classErr != nil && *classErr != nil:
		err = *classErr
	}
	c.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	return err
}

func (c *ChaosBackend) Name() string { return c.inner.Name() }

func (c *ChaosBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if err := c.enter("SearchVector", &c.readErr); err != nil {
		return nil, err
	}
	if d := c.spikeHit(); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	return c.inner.SearchVector(ctx, vec, k, f)
}

func (c *ChaosBackend) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	if err := c.enter("Apply", &c.writeErr); err != nil {
		return err
	}
	return c.inner.Apply(ctx, ms)
}

func (c *ChaosBackend) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	if err := c.enter("Get", &c.readErr); err != nil {
		return vecdb.Document{}, err
	}
	return c.inner.Get(ctx, id)
}

func (c *ChaosBackend) Stat(ctx context.Context) (cluster.ShardStat, error) {
	if err := c.enter("Stat", &c.resyncErr); err != nil {
		return cluster.ShardStat{}, err
	}
	return c.inner.Stat(ctx)
}

func (c *ChaosBackend) Probe(ctx context.Context) error {
	if err := c.enter("Probe", &c.probeErr); err != nil {
		return err
	}
	return c.inner.Probe(ctx)
}

func (c *ChaosBackend) MutationsSince(ctx context.Context, since uint64, max int) ([]vecdb.SeqMutation, error) {
	if err := c.enter("MutationsSince", &c.resyncErr); err != nil {
		return nil, err
	}
	if err := c.migEnter(ctx); err != nil {
		return nil, err
	}
	return c.inner.MutationsSince(ctx, since, max)
}

func (c *ChaosBackend) ApplyResync(ctx context.Context, ms []vecdb.SeqMutation) error {
	if err := c.enter("ApplyResync", &c.resyncErr); err != nil {
		return err
	}
	if err := c.migEnter(ctx); err != nil {
		return err
	}
	return c.inner.ApplyResync(ctx, ms)
}

func (c *ChaosBackend) SnapshotDocs(ctx context.Context) (uint64, []vecdb.Document, error) {
	if err := c.enter("SnapshotDocs", &c.resyncErr); err != nil {
		return 0, nil, err
	}
	if err := c.migEnter(ctx); err != nil {
		return 0, nil, err
	}
	return c.inner.SnapshotDocs(ctx)
}

func (c *ChaosBackend) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	if err := c.enter("ApplySnapshot", &c.resyncErr); err != nil {
		return err
	}
	if err := c.migEnter(ctx); err != nil {
		return err
	}
	return c.inner.ApplySnapshot(ctx, seq, docs)
}

// InstallRing forwards a ring update to the inner backend when it
// participates in the epoch handshake (LocalBackend and HTTPBackend
// both do), subject to the partition and migration fault classes — a
// chaos target can refuse the activation push exactly like a dead
// node would.
func (c *ChaosBackend) InstallRing(ctx context.Context, up cluster.RingUpdate) error {
	if err := c.enter("InstallRing", nil); err != nil {
		return err
	}
	if err := c.migEnter(ctx); err != nil {
		return err
	}
	if rr, ok := c.inner.(cluster.RingReceiver); ok {
		return rr.InstallRing(ctx, up)
	}
	return nil
}

var (
	_ cluster.Backend      = (*ChaosBackend)(nil)
	_ cluster.RingReceiver = (*ChaosBackend)(nil)
)

// Node is one in-process shard node: a real single-shard durable
// store (its own WAL + checkpoint dir, background checkpointer
// disabled so tests control truncation) behind a chaos-wrapped local
// backend.
type Node struct {
	Name  string
	Dir   string
	Store *serve.ShardedDB
	Chaos *ChaosBackend
}

// NewDurableNode builds a Node named name over a fresh temp dir,
// closed automatically when the test ends.
func NewDurableNode(t testing.TB, name string) *Node {
	t.Helper()
	dir := t.TempDir()
	st, err := serve.OpenShardedWithIndex(dir, 1, Dim, serve.IndexConfig{}, serve.PersistConfig{
		CheckpointEvery: -1, // checkpoints only when a test (or snapshot apply) asks
	})
	if err != nil {
		t.Fatalf("clustertest: open node %s: %v", name, err)
	}
	t.Cleanup(func() { st.CloseNoCheckpoint() })
	lb, err := cluster.NewLocalBackend(name, st)
	if err != nil {
		t.Fatalf("clustertest: backend %s: %v", name, err)
	}
	return &Node{Name: name, Dir: dir, Store: st, Chaos: Wrap(lb)}
}

// RequireConverged asserts two stores hold byte-identical state: same
// seq, same checksum, and the same document set (IDs, texts,
// metadata) — the anti-entropy acceptance check.
func RequireConverged(t testing.TB, a, b cluster.NodeStore) {
	t.Helper()
	if as, bs := a.Seq(), b.Seq(); as != bs {
		t.Fatalf("seq diverged: %d vs %d", as, bs)
	}
	if ac, bc := a.Checksum(), b.Checksum(); ac != bc {
		t.Fatalf("checksum diverged: %x vs %x", ac, bc)
	}
	_, adocs, err := a.SnapshotDocs()
	if err != nil {
		t.Fatal(err)
	}
	_, bdocs, err := b.SnapshotDocs()
	if err != nil {
		t.Fatal(err)
	}
	if len(adocs) != len(bdocs) {
		t.Fatalf("doc count diverged: %d vs %d", len(adocs), len(bdocs))
	}
	for i := range adocs {
		x, y := adocs[i], bdocs[i]
		if x.ID != y.ID || x.Text != y.Text || len(x.Meta) != len(y.Meta) {
			t.Fatalf("doc %d diverged: %+v vs %+v", i, x, y)
		}
		for k, v := range x.Meta {
			if y.Meta[k] != v {
				t.Fatalf("doc %d meta %q diverged: %q vs %q", x.ID, k, v, y.Meta[k])
			}
		}
	}
}

// RequireSameTopK asserts both stores answer the same top-k (IDs,
// scores, order) for an embedded query — the read-side face of
// convergence.
func RequireSameTopK(t testing.TB, a, b cluster.NodeStore, vec []float32, k int) {
	t.Helper()
	ah, err := a.SearchVectorFiltered(vec, k, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	bh, err := b.SearchVectorFiltered(vec, k, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ah) != len(bh) {
		t.Fatalf("top-k sizes diverged: %d vs %d", len(ah), len(bh))
	}
	for i := range ah {
		if ah[i].ID != bh[i].ID || ah[i].Score != bh[i].Score || ah[i].Text != bh[i].Text {
			t.Fatalf("hit %d diverged: {%d %v} vs {%d %v}", i, ah[i].ID, ah[i].Score, bh[i].ID, bh[i].Score)
		}
	}
}

// RequireMigrated is the lossless-move acceptance check: after a
// shard migration retires src in favor of tgt, both must hold
// byte-identical state (seq, checksum, full document set) and answer
// the identical top-k — the retired source serves as the oracle for
// what the target was supposed to receive.
func RequireMigrated(t testing.TB, src, tgt cluster.NodeStore, vec []float32, k int) {
	t.Helper()
	RequireConverged(t, src, tgt)
	RequireSameTopK(t, src, tgt, vec, k)
}
