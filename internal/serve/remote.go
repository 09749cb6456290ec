package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// RemoteStore is the cluster-mode Store: documents are hash-routed
// over a cluster.Router to shard nodes speaking the shard protocol,
// while ID allocation, query embedding and top-k merge stay on the
// routing server. Because the hash ring, the embedder and
// the merge order are shared with ShardedDB, a corpus ingested
// through a RemoteStore over n nodes returns bit-identical results to
// the same corpus in a single n-shard process.
//
// Durability lives on each node (its own WAL + checkpoints, per
// docs/persistence.md); the router holds no document state, so Save
// reports ErrNoDataDir and PersistStats is zero.
type RemoteStore struct {
	router *cluster.Router
	embed  vecdb.Embedder
	nextID atomic.Int64
	// opTimeout bounds one store operation (rag.Store's Add and Search
	// carry no caller context at all). statTimeout is the
	// much shorter budget for observational fan-outs (Len/ShardSizes):
	// they back a liveness endpoint and fall back to the health
	// checker's cached counts, so a slow node must not stall a scrape.
	opTimeout   time.Duration
	statTimeout time.Duration
	// embedH times query embedding; nil until SetTelemetry.
	embedH atomic.Pointer[telemetry.Histogram]
}

// NewRemoteStore builds a cluster-mode store over router, embedding
// queries with a dim-wide hashed embedder as the shard nodes embed
// documents. The third argument is ignored; it stays only because
// bench/ still passes it. The global ID allocator is restored from the
// cluster's high-water mark, so every node must be reachable at boot —
// allocating IDs below a dead shard's maximum would collide when it
// returns.
func NewRemoteStore(router *cluster.Router, dim, _ int) (*RemoteStore, error) {
	embed, err := vecdb.NewHashedEmbedder(dim)
	if err != nil {
		return nil, err
	}
	s := &RemoteStore{
		router:      router,
		embed:       embed,
		opTimeout:   10 * time.Second,
		statTimeout: 2 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opTimeout)
	defer cancel()
	next, err := router.MaxNextID(ctx)
	if err != nil {
		return nil, fmt.Errorf("serve: restore cluster ID allocator: %w", err)
	}
	s.nextID.Store(next - 1)
	return s, nil
}

// Router exposes the underlying cluster router (for /stats health
// reporting and tests).
func (s *RemoteStore) Router() *cluster.Router { return s.router }

// opCtx bounds one store operation. parent keeps the caller's
// cancellation, deadline and request ID flowing into the cluster RPCs
// (context.WithTimeout keeps whichever deadline is earlier).
func (s *RemoteStore) opCtx(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, s.opTimeout)
}

// SetTelemetry binds the router-side embed stage histogram. The
// fan-out/merge/backend series are bound by the router itself at
// construction (cluster.HealthConfig.Telemetry).
func (s *RemoteStore) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.embedH.Store(nil)
		return
	}
	s.embedH.Store(reg.Histogram("stage_duration_seconds",
		"Hot-path stage latency in seconds.", nil, telemetry.L("stage", "embed")))
}

// Add stores one passage, implementing rag.Store.
func (s *RemoteStore) Add(text string, meta map[string]string) (int64, error) {
	return addOne(s, text, meta)
}

// AddBulkDocsContext assigns IDs in input order — the same allocation a
// ShardedDB performs — groups the adds by owning shard, and applies
// each group in one shard RPC, all shards in flight at once. Embedding
// on arrival is the node's job: the mutation carries text, and the
// owning node embeds with the same deterministic embedder the router
// uses for queries.
func (s *RemoteStore) AddBulkDocsContext(parent context.Context, docs []vecdb.Document) ([]int64, error) {
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	n := s.router.Shards()
	ids, groups := groupAdds(&s.nextID, n, docs)
	ctx, cancel := s.opCtx(parent)
	defer cancel()
	errs := make([]error, n)
	parallel.ForWorkers(n, n, func(si int) {
		if len(groups[si]) == 0 {
			return
		}
		errs[si] = s.router.Apply(ctx, si, groups[si])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// AddBulkContext and AddBulk are AddBulkDocsContext for bare passages,
// kept outside Store for ingest.Store and bench/.
func (s *RemoteStore) AddBulkContext(ctx context.Context, texts []string) ([]int64, error) {
	return s.AddBulkDocsContext(ctx, textDocs(texts))
}

func (s *RemoteStore) AddBulk(texts []string) ([]int64, error) {
	return s.AddBulkDocsContext(context.Background(), textDocs(texts))
}

// Search is the unfiltered SearchFilteredContext, implementing
// rag.Store.
func (s *RemoteStore) Search(query string, k int) ([]vecdb.Hit, error) {
	return s.SearchFilteredContext(context.Background(), query, k, vecdb.Filter{})
}

// SearchContext is the unfiltered SearchFilteredContext, kept outside
// Store for bench/.
func (s *RemoteStore) SearchContext(ctx context.Context, query string, k int) ([]vecdb.Hit, error) {
	return s.SearchFilteredContext(ctx, query, k, vecdb.Filter{})
}

// SearchFilteredContext embeds the query once and fans the vector out
// with the filter pushed down to every shard node, degrading around
// dead shards (see cluster.Router.SearchVector). The request ID and
// trace ride the shard RPCs (X-Request-ID / traceparent) and the
// caller's deadline, if sooner than opTimeout, bounds them
// (X-Deadline-Ms).
func (s *RemoteStore) SearchFilteredContext(parent context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if err := parent.Err(); err != nil {
		return nil, err
	}
	_, sp := telemetry.StartSpan(parent, "embed")
	start := time.Now()
	vec, err := s.embed.Embed(query)
	sp.End(err)
	if err != nil {
		return nil, fmt.Errorf("serve: embed query: %w", err)
	}
	s.embedH.Load().ObserveSinceCtx(parent, start)
	ctx, cancel := s.opCtx(parent)
	defer cancel()
	return s.router.SearchVector(ctx, vec, k, f)
}

// GetContext fetches one document from its owning shard, failing over
// across that shard's backends.
func (s *RemoteStore) GetContext(parent context.Context, id int64) (vecdb.Document, error) {
	if err := parent.Err(); err != nil {
		return vecdb.Document{}, err
	}
	ctx, cancel := s.opCtx(parent)
	defer cancel()
	return s.router.Get(ctx, id)
}

// DeleteContext removes one document from its owning shard. A
// non-empty collection makes it a checked delete: the shard node
// reports ErrNotFound for a document that exists in a different
// collection.
func (s *RemoteStore) DeleteContext(parent context.Context, collection string, id int64) error {
	if err := parent.Err(); err != nil {
		return err
	}
	ctx, cancel := s.opCtx(parent)
	defer cancel()
	m := vecdb.Mutation{Op: vecdb.OpDelete, ID: id, Collection: collection}
	return s.router.Apply(ctx, s.router.ShardFor(id), []vecdb.Mutation{m})
}

// CollectionCounts merges per-collection counts across the reachable
// shard nodes (stat-budget bounded, like Len).
func (s *RemoteStore) CollectionCounts() map[string]int {
	ctx, cancel := context.WithTimeout(context.Background(), s.statTimeout)
	defer cancel()
	return s.router.CollectionCounts(ctx)
}

// Len sums live per-shard counts (last-observed for shards that don't
// answer within the stat budget).
func (s *RemoteStore) Len() int {
	ctx, cancel := context.WithTimeout(context.Background(), s.statTimeout)
	defer cancel()
	return s.router.Len(ctx)
}

// Shards reports the hash-ring width.
func (s *RemoteStore) Shards() int { return s.router.Shards() }

// ShardSizes reports per-shard document counts.
func (s *RemoteStore) ShardSizes() []int {
	ctx, cancel := context.WithTimeout(context.Background(), s.statTimeout)
	defer cancel()
	return s.router.Lens(ctx)
}

// Embedder exposes the router-side query embedder.
func (s *RemoteStore) Embedder() vecdb.Embedder { return s.embed }

// Save reports ErrNoDataDir: checkpointing is each node's own
// business (their background checkpointers keep running regardless of
// what the router does).
func (s *RemoteStore) Save() error { return ErrNoDataDir }

// Close stops the router's health checker. Node processes are not
// touched.
func (s *RemoteStore) Close() error {
	s.router.Close()
	return nil
}

// PersistStats is zero: the router owns no durable state.
func (s *RemoteStore) PersistStats() PersistStats { return PersistStats{} }

// Available feeds the admission gate: ErrUnavailable when no shard
// has a healthy backend.
func (s *RemoteStore) Available() error { return s.router.Available() }
