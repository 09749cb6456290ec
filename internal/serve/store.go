package serve

import (
	"context"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/rag"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Store is the document-store surface the Server drives: one
// context-first method per operation. Two implementations exist:
// ShardedDB (in-process shards, optionally durable via per-shard WAL +
// checkpoints) and RemoteStore (a cluster.Router fanning the same
// operations out to shard nodes over HTTP). The Server is agnostic: the
// full Ask path — admission, caches, verification — is
// identical in both modes; only where the vectors live changes.
//
// Every ctx-taking method returns ctx.Err() without doing work when ctx
// is already done, and carries the caller's request ID, deadline and
// trace as far down as the store reaches (stage timers and spans on a
// ShardedDB, shard RPC hop headers on a RemoteStore). See the "Store
// contract" table in docs/serving.md.
type Store interface {
	// rag.Store's context-free Add and Search are one-line delegations
	// to the methods below, kept so a Store drops into rag.Pipeline.
	rag.Store
	// SearchFilteredContext embeds query once and returns the merged
	// top-k across shards, best first. The filter is pushed down to
	// every shard before its per-shard top-k is taken, so the result
	// equals an unfiltered search over the matching subset; the zero
	// Filter is the unfiltered search.
	SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	// GetContext returns a stored document, or ErrNotFound.
	GetContext(ctx context.Context, id int64) (vecdb.Document, error)
	// AddBulkDocsContext stores a batch of documents, returning their
	// IDs in input order, with writes grouped per shard. IDs on the
	// inputs are ignored (the store allocates); an empty Collection is
	// the default collection, and a Document carrying only Text is the
	// plain-passage case.
	AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error)
	// DeleteContext removes a document, or reports ErrNotFound. A
	// non-empty collection scopes the delete: a document in a different
	// collection reports ErrNotFound and is left in place.
	DeleteContext(ctx context.Context, collection string, id int64) error
	// CollectionCounts reports per-collection document counts.
	CollectionCounts() map[string]int
	// Embedder exposes the query-path embedder.
	Embedder() vecdb.Embedder
	// Shards reports the shard count; ShardSizes the per-shard
	// document counts.
	Shards() int
	ShardSizes() []int
	// Available reports whether the store can serve at all. The
	// admission gate consults it before spending any work on a request,
	// so traffic against a dead cluster sheds in microseconds instead
	// of waiting out transport timeouts; an in-process store is always
	// available.
	Available() error
	// SetTelemetry binds the store's stage histograms to reg.
	SetTelemetry(reg *telemetry.Registry)
	// Save checkpoints durable state now (ErrNoDataDir when the store
	// owns none — a RemoteStore's durability lives on its nodes).
	Save() error
	// Close releases the store (final checkpoint + WAL close for a
	// durable ShardedDB, health-checker shutdown for a RemoteStore).
	Close() error
	// PersistStats reports durability counters (zero-valued when the
	// store owns no durable state).
	PersistStats() PersistStats
}

var (
	_ Store = (*ShardedDB)(nil)
	_ Store = (*RemoteStore)(nil)
)

// textDocs lifts bare passages into the documents AddBulkDocsContext
// takes: default collection, no metadata.
func textDocs(texts []string) []vecdb.Document {
	docs := make([]vecdb.Document, len(texts))
	for i, t := range texts {
		docs[i].Text = t
	}
	return docs
}

// addOne is rag.Store's Add over the bulk write.
func addOne(s Store, text string, meta map[string]string) (int64, error) {
	ids, err := s.AddBulkDocsContext(context.Background(), []vecdb.Document{{Text: text, Meta: meta}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// groupAdds allocates one ID per document from next, in input order,
// and groups the add mutations by owning shard on the shared hash ring
// — the allocation both stores perform, which is what keeps a corpus
// ingested through a RemoteStore over n nodes identical to the same
// corpus in one n-shard ShardedDB.
func groupAdds(next *atomic.Int64, shards int, docs []vecdb.Document) ([]int64, [][]vecdb.Mutation) {
	ids := make([]int64, len(docs))
	groups := make([][]vecdb.Mutation, shards)
	for i, d := range docs {
		id := next.Add(1)
		ids[i] = id
		si := cluster.ShardIndex(id, shards)
		groups[si] = append(groups[si], vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Collection: d.Collection, Text: d.Text, Meta: d.Meta})
	}
	return ids, groups
}
