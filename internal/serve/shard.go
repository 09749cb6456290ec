package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// ShardedDB partitions documents across N independent vecdb.DB shards,
// routed by a hash of the document ID. Each shard has its own mutex,
// so writes to different shards never contend, and a query fans out to
// all shards in parallel and merges their top-k — replacing the seed's
// single-mutex bottleneck. ShardedDB implements rag.Store, so it drops
// into the existing pipeline unchanged.
type ShardedDB struct {
	embed  vecdb.Embedder
	shards []*vecdb.DB
	nextID atomic.Int64
	// persist is the durable layer (WAL + checkpoints) attached by
	// OpenSharded; nil for a memory-only store.
	persist *persistence
	// tele holds the query-path stage timers; nil until SetTelemetry.
	// An atomic pointer because telemetry attaches after the store is
	// built, possibly while recovery traffic is already flowing.
	tele atomic.Pointer[searchStageTimers]
	// indexCfg echoes the index configuration the store was built with
	// (zero for custom NewSharded factories); see IndexStats.
	indexCfg IndexConfig
}

// searchStageTimers are the query-path stage histograms, bound once so
// the hot path never takes a registry lock.
type searchStageTimers struct {
	embed  *telemetry.Histogram
	search *telemetry.Histogram // single-shard probe (shardnode mode)
	fanout *telemetry.Histogram
	merge  *telemetry.Histogram
}

// timers returns the bound stage histograms, or the zero set — nil
// histograms, whose observations no-op — before SetTelemetry.
func (s *ShardedDB) timers() *searchStageTimers {
	if t := s.tele.Load(); t != nil {
		return t
	}
	return &noStageTimers
}

var noStageTimers searchStageTimers

// SetTelemetry binds the query-path stage histograms (embed,
// shard_search, shard_fanout, merge, rerank) to reg. Safe to call
// while the store is serving; nil reg detaches.
func (s *ShardedDB) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.tele.Store(nil)
		for _, sh := range s.shards {
			sh.SetStageObserver(nil)
		}
		return
	}
	const help = "Hot-path stage latency in seconds."
	s.tele.Store(&searchStageTimers{
		embed:  reg.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "embed")),
		search: reg.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "shard_search")),
		fanout: reg.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "shard_fanout")),
		merge:  reg.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "merge")),
	})
	// Index-internal stages (the quantized re-rank) report through the
	// per-shard stage observer into the same series.
	rerank := reg.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "rerank"))
	obs := func(stage string, seconds float64) {
		if stage == "rerank" {
			rerank.Observe(seconds)
		}
	}
	for _, sh := range s.shards {
		sh.SetStageObserver(obs)
	}
}

// ErrNotFound is the typed error for operations on absent document
// IDs, re-exported so HTTP handlers can map it to 404 without
// importing vecdb. Every ShardedDB method that can miss wraps it.
var ErrNotFound = vecdb.ErrNotFound

// NewSharded builds n shards over a shared embedder, one index per
// shard produced by mkIndex. The same embedder serves the ingest path
// (each shard embeds the adds applied to it) and the query path
// (SearchFilteredContext embeds once, then fans the vector out).
func NewSharded(n int, embed vecdb.Embedder, mkIndex func() (vecdb.Index, error)) (*ShardedDB, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: shard count must be positive, got %d", n)
	}
	if embed == nil || mkIndex == nil {
		return nil, errors.New("serve: nil embedder or index factory")
	}
	shards := make([]*vecdb.DB, n)
	for i := range shards {
		idx, err := mkIndex()
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d index: %w", i, err)
		}
		db, err := vecdb.New(embed, idx)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		shards[i] = db
	}
	return &ShardedDB{embed: embed, shards: shards}, nil
}

// shardIndex maps a document ID onto its owning shard through the
// shared hash ring in internal/cluster — the same function a
// multi-node router uses, so a corpus keeps its routing when its
// shards move onto separate nodes.
func (s *ShardedDB) shardIndex(id int64) int {
	return cluster.ShardIndex(id, len(s.shards))
}

func (s *ShardedDB) shardFor(id int64) *vecdb.DB {
	return s.shards[s.shardIndex(id)]
}

// apply executes a batch of mutations that all route to shard i,
// journaling them through the shard's WAL when the store is durable.
// The shard's persistence mutex spans apply+journal, so WAL order is
// exactly apply order and a concurrent checkpoint can never truncate a
// record for state its snapshot missed. A batch that fails — in
// application or in journaling — is rolled back from the in-memory
// shard, so callers never observe a "failed" write that later becomes
// durable (or a durable state the caller was told failed).
func (s *ShardedDB) apply(i int, ms []vecdb.Mutation) error {
	db := s.shards[i]
	p := s.persist
	if p == nil {
		return applyMutations(db, ms)
	}
	// Encode before touching anything: an unjournalable mutation (e.g.
	// an oversized meta key) must be rejected while no state has moved.
	raw := make([][]byte, len(ms))
	for j, m := range ms {
		b, err := vecdb.EncodeMutation(m)
		if err != nil {
			return err
		}
		raw[j] = b
	}
	ds := p.shards[i]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	// The persistence mutex serializes appliers, so the batch owns the
	// seq range (base, base+len] — frame each record with the seq its
	// mutation will be applied at, which is what MutationsSince serves
	// back to lagging replicas.
	base := db.Seq()
	payloads := make([][]byte, len(ms))
	for j, b := range raw {
		payloads[j] = storage.EncodeSeqPayload(base+1+uint64(j), b)
	}
	ids := make([]int64, len(ms))
	for j, m := range ms {
		ids[j] = m.ID
	}
	rollback := undoFunc(db, base, ids)
	if err := applyMutations(db, ms); err != nil {
		rollback()
		return err
	}
	if err := p.journal(i, payloads); err != nil {
		rollback()
		return err
	}
	return nil
}

// undoFunc captures what a batch touching ids can change, the seq
// (base) and the prior document of every ID, and returns the function
// that puts it back: replaced and deleted documents return as they were
// stored, added ones go, and the seq drops back to base. A replacing
// add is an upsert from resync, a router-assigned ID or a re-add, so
// its old document must survive a failed batch: the WAL still holds
// it. Callers hold the shard's persistence mutex, so no other write
// moves the shard in between.
func undoFunc(db *vecdb.DB, base uint64, ids []int64) func() {
	next := db.NextID() // above every stored ID: fresh adds need no lookup
	had := map[int64]bool{}
	var prior []vecdb.Document
	for _, id := range ids {
		if id >= next || had[id] {
			continue
		}
		if d, err := db.Get(id); err == nil {
			had[id] = true
			prior = append(prior, d)
		}
	}
	return func() {
		for _, id := range ids {
			if !had[id] {
				db.Delete(id) // ErrNotFound fine: the add may not have applied
			}
		}
		for _, d := range prior {
			db.AddDocument(d) // in place if still stored, re-added if deleted
		}
		// The primitive undo calls above do not touch the seq counter;
		// restore it over whatever prefix the batch advanced.
		db.SetSeq(base)
	}
}

func applyMutations(db *vecdb.DB, ms []vecdb.Mutation) error {
	if len(ms) == 1 {
		return db.Apply(ms[0])
	}
	return db.ApplyAll(ms)
}

// Add stores one passage, implementing rag.Store.
func (s *ShardedDB) Add(text string, meta map[string]string) (int64, error) {
	return addOne(s, text, meta)
}

// AddBulkDocsContext stores a batch of documents, returning their IDs
// in input order — the store's one write path. IDs are allocated by the
// store (any ID on the input documents is ignored). Writes are grouped
// by owning shard and applied with one lock acquisition, one concurrent
// embedding pass, and (on a durable store) one journal append batch per
// shard — shards proceed in parallel. ctx is checked before starting,
// so an aborted ingest stream stops spending embedding work at the next
// batch boundary. On error, shards already applied stay applied;
// callers treat the batch as all-or-retry.
func (s *ShardedDB) AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, nil
	}
	ids, groups := groupAdds(&s.nextID, len(s.shards), docs)
	if err := s.applyGroups(groups); err != nil {
		return nil, err
	}
	return ids, nil
}

// AddBulkContext and AddBulk are AddBulkDocsContext for bare passages,
// kept outside Store for ingest.Store and bench/.
func (s *ShardedDB) AddBulkContext(ctx context.Context, texts []string) ([]int64, error) {
	return s.AddBulkDocsContext(ctx, textDocs(texts))
}

func (s *ShardedDB) AddBulk(texts []string) ([]int64, error) {
	return s.AddBulkDocsContext(context.Background(), textDocs(texts))
}

// applyGroups applies per-shard mutation groups in parallel, returning
// the first error (shards already applied stay applied).
func (s *ShardedDB) applyGroups(groups [][]vecdb.Mutation) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for si, ms := range groups {
		if len(ms) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, ms []vecdb.Mutation) {
			defer wg.Done()
			if err := s.apply(si, ms); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(si, ms)
	}
	wg.Wait()
	return firstErr
}

// ApplyAll executes a batch of externally-journaled mutations with
// caller-assigned IDs — the write path of the shard protocol, where a
// cluster router allocates IDs globally and a shard node applies (and
// WAL-journals, on a durable store) the mutations that hash to it.
// Mutations are grouped by owning shard, preserving relative order
// within each shard, and shards proceed in parallel. The internal ID
// allocator is advanced past every ID in the batch before anything
// applies, so Adds issued *after* an ApplyAll returns (or after the
// reservation below) allocate above it. Running ApplyAll and
// Add/AddBulk concurrently is not part of the contract: a shard node
// takes router-assigned IDs or allocates locally, never both at once.
func (s *ShardedDB) ApplyAll(ms []vecdb.Mutation) error {
	if len(ms) == 0 {
		return nil
	}
	groups := make([][]vecdb.Mutation, len(s.shards))
	var maxID int64
	for _, m := range ms {
		si := s.shardIndex(m.ID)
		groups[si] = append(groups[si], m)
		if m.Op == vecdb.OpAdd && m.ID > maxID {
			maxID = m.ID
		}
	}
	// Reserve the ID range before applying: a concurrent Add must not
	// be handed an ID this batch is about to install.
	for {
		cur := s.nextID.Load()
		if maxID <= cur || s.nextID.CompareAndSwap(cur, maxID) {
			break
		}
	}
	return s.applyGroups(groups)
}

// NextID reports the next ID the store would allocate — the high-water
// mark a cluster router reads (via the shard protocol's stat endpoint)
// to restore its global allocator past every stored document.
func (s *ShardedDB) NextID() int64 {
	next := s.nextID.Load() + 1
	for _, sh := range s.shards {
		if id := sh.NextID(); id > next {
			next = id
		}
	}
	return next
}

// Get returns the stored document for id from its owning shard (the
// cluster.NodeStore spelling; GetContext is the Store one).
func (s *ShardedDB) Get(id int64) (vecdb.Document, error) {
	return s.shardFor(id).Get(id)
}

// GetContext is Get refusing an already-done ctx.
func (s *ShardedDB) GetContext(ctx context.Context, id int64) (vecdb.Document, error) {
	if err := ctx.Err(); err != nil {
		return vecdb.Document{}, err
	}
	return s.Get(id)
}

// DeleteContext removes a document from its owning shard, journaling
// the removal on a durable store. A missing ID reports ErrNotFound. A
// non-empty collection scopes the delete: a document that exists but
// belongs to a different collection reports ErrNotFound and is left
// untouched, so one tenant can never delete another's data by guessing
// IDs.
func (s *ShardedDB) DeleteContext(ctx context.Context, collection string, id int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m := vecdb.Mutation{Op: vecdb.OpDelete, ID: id, Collection: collection}
	return s.apply(s.shardIndex(id), []vecdb.Mutation{m})
}

// CollectionCounts merges per-collection document counts across
// shards — the store-level view /stats and the shard-protocol stat
// endpoint report.
func (s *ShardedDB) CollectionCounts() map[string]int {
	out := map[string]int{}
	for _, sh := range s.shards {
		for c, n := range sh.CollectionCounts() {
			out[c] += n
		}
	}
	return out
}

// Len sums the shard sizes, implementing rag.Store.
func (s *ShardedDB) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Shards reports the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// ShardSizes returns each shard's document count, for /stats and for
// tests asserting the hash spreads load.
func (s *ShardedDB) ShardSizes() []int {
	sizes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sizes[i] = sh.Len()
	}
	return sizes
}

// Embedder exposes the query-path embedder, the one every shard
// embeds its documents with.
func (s *ShardedDB) Embedder() vecdb.Embedder { return s.embed }

// Available is always nil: in-process shards live as long as the
// process does.
func (s *ShardedDB) Available() error { return nil }

// Search is the unfiltered SearchFilteredContext, implementing
// rag.Store.
func (s *ShardedDB) Search(query string, k int) ([]vecdb.Hit, error) {
	return s.SearchFilteredContext(context.Background(), query, k, vecdb.Filter{})
}

// SearchContext is the unfiltered SearchFilteredContext, kept outside
// Store for bench/.
func (s *ShardedDB) SearchContext(ctx context.Context, query string, k int) ([]vecdb.Hit, error) {
	return s.SearchFilteredContext(ctx, query, k, vecdb.Filter{})
}

// SearchFilteredContext embeds the query once and fans the vector out
// with the filter pushed down to every shard — the store's one text
// search path. ctx is checked at the stage boundaries (shard probes are
// CPU-bound and non-blocking), and a traced request gets embed and
// shard_fanout spans, so the in-process store renders the same trace
// shape as a cluster whatever the filter.
func (s *ShardedDB) SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := telemetry.StartSpan(ctx, "embed")
	start := time.Now()
	vec, err := s.embed.Embed(query)
	sp.End(err)
	if err != nil {
		return nil, fmt.Errorf("serve: embed query: %w", err)
	}
	s.timers().embed.ObserveSinceCtx(ctx, start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp = telemetry.StartSpan(ctx, "shard_fanout")
	hits, err := s.SearchVectorFiltered(vec, k, f)
	sp.End(err)
	return hits, err
}

// SearchVectorFiltered queries every shard in parallel with the same
// vector and merges the per-shard top-k into a global top-k, best
// first, with the same deterministic (score desc, ID asc) order a
// single index returns. The filter is applied on each shard before its
// top-k is taken, so the merged result equals an unfiltered search
// over the matching subset (the zero Filter matches everything). This
// is also the cluster.NodeStore search a shard node serves.
func (s *ShardedDB) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	t := s.timers()
	start := time.Now()
	if len(s.shards) == 1 {
		hits, err := s.shards[0].SearchVectorFiltered(vec, k, f)
		t.search.ObserveSince(start)
		return hits, err
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	lists := make([][]vecdb.Hit, len(s.shards))
	wg.Add(len(s.shards))
	for i, sh := range s.shards {
		go func(i int, db *vecdb.DB) {
			defer wg.Done()
			hits, err := db.SearchVectorFiltered(vec, k, f)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			lists[i] = hits
		}(i, sh)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	mergeStart := time.Now()
	t.fanout.Observe(mergeStart.Sub(start).Seconds())
	hits := cluster.MergeTopK(lists, k)
	t.merge.ObserveSince(mergeStart)
	return hits, nil
}

// A ShardedDB is also a complete shard-protocol store: cmd/shardnode
// mounts cluster.NewNodeHandler over a one-shard durable ShardedDB.
var _ cluster.NodeStore = (*ShardedDB)(nil)
