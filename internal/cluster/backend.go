package cluster

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/vecdb"
)

// ShardStat is one shard's observable state: its document count, the
// next ID its store would allocate, the last applied mutation
// sequence number, and the order-independent content checksum. The
// router uses NextID to restore its global ID allocator past every
// document the cluster already holds and Len for per-shard counts in
// /stats; the resync manager compares Seq and Checksum across a
// shard's backends to detect replicas that lag or have silently
// diverged.
type ShardStat struct {
	Len      int    `json:"len"`
	NextID   int64  `json:"next_id"`
	Seq      uint64 `json:"seq"`
	Checksum uint64 `json:"checksum"`
	// Collections maps collection name to the shard's document count
	// for it — the per-shard slice of /stats' per-collection totals.
	Collections map[string]int `json:"collections,omitempty"`
}

// Backend abstracts the per-shard store operations the sharded
// serving store exposes — vector search, grouped mutations (the
// AddBulk/Delete write path), point reads, and size — plus the
// liveness probe the health checker drives and the four anti-entropy
// operations the resync manager composes (delta read, delta apply,
// snapshot read, snapshot apply). A LocalBackend serves them from an
// in-process NodeStore; an HTTPBackend forwards them to a remote
// shard node. All methods must be safe for concurrent use.
type Backend interface {
	// Name identifies the backend in health state and stats (an
	// address for remote backends).
	Name() string
	// SearchVector returns the shard's top-k hits for an
	// already-embedded query, best first. A non-zero filter is applied
	// on the shard before its top-k is taken, so the merged result
	// equals an unfiltered search over the matching subset.
	SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	// Apply executes a batch of mutations (adds and deletes) that all
	// route to this shard. Deleting an absent ID reports
	// vecdb.ErrNotFound.
	Apply(ctx context.Context, ms []vecdb.Mutation) error
	// Get returns the stored document for id, or vecdb.ErrNotFound.
	Get(ctx context.Context, id int64) (vecdb.Document, error)
	// Stat reports the shard's document count, ID high-water mark, seq
	// and checksum.
	Stat(ctx context.Context) (ShardStat, error)
	// Probe checks the backend is alive and ready to serve (for a
	// remote node: recovery complete). The health checker calls it
	// periodically; an error counts toward ejection.
	Probe(ctx context.Context) error

	// MutationsSince reads the journaled mutations with seq > since,
	// oldest first, up to max records (max <= 0 means no cap). It
	// reports vecdb.ErrSeqTruncated when the backend's journal no
	// longer retains the range, telling the resync manager to fall
	// back to snapshot transfer.
	MutationsSince(ctx context.Context, since uint64, max int) ([]vecdb.SeqMutation, error)
	// ApplyResync applies a delta shipped from a more advanced peer:
	// idempotent upserts, absent-delete-tolerant, sequence numbers
	// adopted from the records.
	ApplyResync(ctx context.Context, ms []vecdb.SeqMutation) error
	// SnapshotDocs reads the backend's full document set and the seq
	// it is current as of.
	SnapshotDocs(ctx context.Context) (uint64, []vecdb.Document, error)
	// ApplySnapshot replaces the backend's contents with a peer's full
	// document set, adopting its seq.
	ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error
}

// LocalBackend adapts an in-process NodeStore — a bare *vecdb.DB or a
// serve.ShardedDB — to the Backend interface: the degenerate
// "cluster" of one process, used to keep the router's semantics
// identical across transports, to benchmark the HTTP hop against a
// no-transport baseline, and to run the in-process chaos harness in
// internal/clustertest against real stores.
type LocalBackend struct {
	name  string
	store NodeStore
	// ring mirrors NodeHandler's held ring update: a LocalBackend
	// handed Serving=false is retired and answers every data call with
	// StaleEpochError, so the in-process chaos harness exercises the
	// same stale-epoch handshake a remote node does.
	ring atomic.Pointer[RingUpdate]
}

// NewLocalBackend wraps store as a Backend.
func NewLocalBackend(name string, store NodeStore) (*LocalBackend, error) {
	if store == nil {
		return nil, errors.New("cluster: nil store")
	}
	if name == "" {
		name = "local"
	}
	return &LocalBackend{name: name, store: store}, nil
}

func (b *LocalBackend) Name() string { return b.name }

// InstallRing installs a ring update, monotonic by epoch (an equal
// epoch is accepted so a retired backend can be re-activated as a
// migration target without minting a new epoch).
func (b *LocalBackend) InstallRing(ctx context.Context, up RingUpdate) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := up.Ring.Validate(); err != nil {
		return err
	}
	for {
		cur := b.ring.Load()
		if cur != nil && up.Epoch < cur.Epoch {
			return &StaleEpochError{Ring: cur.Ring}
		}
		if b.ring.CompareAndSwap(cur, &up) {
			return nil
		}
	}
}

// gateEpoch mirrors NodeHandler's data-path epoch gate: retired (or
// provably stale-routed) calls get the typed 409 equivalent.
func (b *LocalBackend) gateEpoch(ctx context.Context) error {
	cur := b.ring.Load()
	if cur == nil {
		return nil
	}
	if !cur.Serving {
		return &StaleEpochError{Ring: cur.Ring}
	}
	if ep, ok := ringEpochFrom(ctx); ok && ep < cur.Epoch {
		return &StaleEpochError{Ring: cur.Ring}
	}
	return nil
}

func (b *LocalBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.gateEpoch(ctx); err != nil {
		return nil, err
	}
	return b.store.SearchVectorFiltered(vec, k, f)
}

func (b *LocalBackend) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.gateEpoch(ctx); err != nil {
		return err
	}
	return b.store.ApplyAll(ms)
}

func (b *LocalBackend) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	if err := ctx.Err(); err != nil {
		return vecdb.Document{}, err
	}
	if err := b.gateEpoch(ctx); err != nil {
		return vecdb.Document{}, err
	}
	return b.store.Get(id)
}

func (b *LocalBackend) Stat(ctx context.Context) (ShardStat, error) {
	if err := ctx.Err(); err != nil {
		return ShardStat{}, err
	}
	if err := b.gateEpoch(ctx); err != nil {
		return ShardStat{}, err
	}
	return ShardStat{
		Len:         b.store.Len(),
		NextID:      b.store.NextID(),
		Seq:         b.store.Seq(),
		Checksum:    b.store.Checksum(),
		Collections: b.store.CollectionCounts(),
	}, nil
}

// Probe always succeeds: an in-process shard is alive as long as the
// process is.
func (b *LocalBackend) Probe(ctx context.Context) error { return ctx.Err() }

func (b *LocalBackend) MutationsSince(ctx context.Context, since uint64, max int) ([]vecdb.SeqMutation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.store.MutationsSince(since, max)
}

func (b *LocalBackend) ApplyResync(ctx context.Context, ms []vecdb.SeqMutation) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.store.ApplyResync(ms)
}

func (b *LocalBackend) SnapshotDocs(ctx context.Context) (uint64, []vecdb.Document, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	return b.store.SnapshotDocs()
}

func (b *LocalBackend) ApplySnapshot(ctx context.Context, seq uint64, docs []vecdb.Document) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return b.store.ApplySnapshot(seq, docs)
}

var (
	_ Backend      = (*LocalBackend)(nil)
	_ RingReceiver = (*LocalBackend)(nil)
)
