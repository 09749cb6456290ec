package vecdb

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"sync"

	"repro/internal/storage"
)

// DefaultCollection is the collection documents belong to when the
// caller names none — including every document written before
// collections existed, so a pre-collection WAL or checkpoint recovers
// into it unchanged.
const DefaultCollection = "default"

// NormalizeCollection maps the empty collection name onto
// DefaultCollection. Every write path normalizes before storing, so a
// stored document's Collection is never empty and checksums agree
// between pre-collection replays and fresh default-collection writes.
func NormalizeCollection(c string) string {
	if c == "" {
		return DefaultCollection
	}
	return c
}

// Document is one stored passage with optional caller metadata,
// scoped to a named collection (tenant). A Meta map the DB hands out
// (Get, searches, SnapshotDocs) is shared by every stored document
// carrying the same metadata set and must be treated as read-only.
type Document struct {
	ID         int64
	Collection string
	Text       string
	Meta       map[string]string
}

// DB is the vectorized document database: it embeds added passages,
// indexes the vectors, and answers nearest-neighbour text queries —
// the retrieval substrate behind the paper's RAG flow (Fig. 2 (a)).
// All methods are safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	embed  Embedder
	index  Index
	docs   map[int64]Document
	nextID int64
	// seq is the last applied mutation sequence number (see Seq); it
	// advances only through the journaled mutation paths
	// (Apply/ApplyAll/ApplyResync/ApplySnapshot), never through the
	// primitive Add/Delete calls, so rollback helpers can undo state
	// without disturbing the stream numbering.
	seq uint64
	// check is the XOR of every stored document's docHash — the
	// order-independent content checksum behind Checksum.
	check uint64
	// colls counts stored documents per (normalized) collection,
	// maintained by addLocked/deleteLocked so CollectionCounts is O(1)
	// in the document count.
	colls map[string]int
	// metas holds the one map per distinct metadata set that stored
	// documents share.
	metas metaPool
}

// New creates a database over the given embedder and index. The index
// must accept vectors of the embedder's dimension.
func New(embed Embedder, index Index) (*DB, error) {
	if embed == nil || index == nil {
		return nil, errors.New("vecdb: nil embedder or index")
	}
	return &DB{embed: embed, index: index, docs: map[int64]Document{}, colls: map[string]int{}, metas: metaPool{}, nextID: 1}, nil
}

// NewDefault builds a DB with a hashed embedder and a flat cosine
// index — the zero-configuration path used by the examples.
func NewDefault(dim int) (*DB, error) {
	e, err := NewHashedEmbedder(dim)
	if err != nil {
		return nil, err
	}
	x, err := NewFlatIndex(Cosine, dim)
	if err != nil {
		return nil, err
	}
	return New(e, x)
}

// Len returns the number of stored documents.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.docs)
}

// Add embeds and stores text in the default collection, returning the
// assigned document ID.
func (db *DB) Add(text string, meta map[string]string) (int64, error) {
	return db.AddIn("", text, meta)
}

// AddIn embeds and stores text in the named collection ("" means the
// default collection), returning the assigned document ID.
func (db *DB) AddIn(collection, text string, meta map[string]string) (int64, error) {
	vec, err := db.embed.Embed(text)
	if err != nil {
		return 0, fmt.Errorf("vecdb: embed: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	id := db.nextID
	if err := db.addLocked(id, collection, text, meta, vec); err != nil {
		return 0, err
	}
	return id, nil
}

// AddDocument embeds and stores d under its caller-assigned ID and
// collection (empty means default), replacing any existing document
// with that ID. It exists for external routers (e.g. a shard router)
// that allocate IDs globally, and for restore paths (rollback after a
// failed batch) that reinstall a document exactly as it was stored;
// mixing it with Add is safe because the internal counter is advanced
// past every caller-assigned ID.
func (db *DB) AddDocument(d Document) error {
	if d.ID <= 0 {
		return fmt.Errorf("vecdb: document ID must be positive, got %d", d.ID)
	}
	vec, err := db.embed.Embed(d.Text)
	if err != nil {
		return fmt.Errorf("vecdb: embed: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.addLocked(d.ID, d.Collection, d.Text, d.Meta, vec)
}

// addLocked installs an embedded document under a caller-assigned ID
// and advances the ID counter past it. The collection is normalized
// here — the single chokepoint every write path funnels through, so
// stored documents never carry an empty collection. Callers hold
// db.mu.
func (db *DB) addLocked(id int64, collection, text string, meta map[string]string, vec []float32) error {
	if err := db.index.Add(id, vec); err != nil {
		return fmt.Errorf("vecdb: index add: %w", err)
	}
	doc := Document{ID: id, Collection: NormalizeCollection(collection), Text: text, Meta: db.metas.intern(meta)}
	if old, ok := db.docs[id]; ok {
		db.check ^= docHash(old) // replacement: retire the old content hash
		db.colls[old.Collection]--
		if db.colls[old.Collection] == 0 {
			delete(db.colls, old.Collection)
		}
		db.metas.release(old.Meta)
	}
	db.docs[id] = doc
	db.check ^= docHash(doc)
	db.colls[doc.Collection]++
	if id >= db.nextID {
		db.nextID = id + 1
	}
	return nil
}

// AddAll stores a batch of passages, returning their IDs in order.
func (db *DB) AddAll(texts []string) ([]int64, error) {
	ids := make([]int64, 0, len(texts))
	for _, t := range texts {
		id, err := db.Add(t, nil)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// ErrNotFound reports a missing document ID.
var ErrNotFound = errors.New("vecdb: document not found")

// Get returns the stored document for id.
func (db *DB) Get(id int64) (Document, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	d, ok := db.docs[id]
	if !ok {
		return Document{}, fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	return d, nil
}

// Delete removes a document; deleting an absent ID returns
// ErrNotFound.
func (db *DB) Delete(id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.deleteLocked(id, "")
}

// DeleteIn removes a document only if it belongs to the named
// collection — the checked delete a tenant-scoped API needs, so a
// caller cannot remove another tenant's document by guessing its ID.
// A mismatched collection reports ErrNotFound, indistinguishable from
// an absent ID.
func (db *DB) DeleteIn(collection string, id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.deleteLocked(id, collection)
}

// deleteLocked removes a document; a non-empty collection makes the
// delete checked (the stored document must belong to it). Callers
// hold db.mu.
func (db *DB) deleteLocked(id int64, collection string) error {
	old, ok := db.docs[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	if collection != "" && old.Collection != NormalizeCollection(collection) {
		return fmt.Errorf("%w: id %d", ErrNotFound, id)
	}
	db.index.Remove(id)
	delete(db.docs, id)
	db.check ^= docHash(old)
	db.colls[old.Collection]--
	if db.colls[old.Collection] == 0 {
		delete(db.colls, old.Collection)
	}
	db.metas.release(old.Meta)
	return nil
}

// metaPool interns document metadata: one read-only map per distinct
// non-empty set, shared by every stored document that carries it, so a
// corpus tagged with ten values holds ten maps rather than one per
// document. It is keyed by metaHash; a set whose hash is already taken
// by different content is stored as a private copy outside the pool.
// Callers hold DB.mu.
type metaPool map[uint64]metaEntry

type metaEntry struct {
	meta map[string]string
	refs int // stored documents sharing meta
}

// intern returns the form of a caller's metadata a document stores:
// nil stays nil, an empty map stays an empty map, and a non-empty set
// resolves to the pooled map, copied from the caller's on its first
// sighting so the caller keeps its own map to itself. Each call that
// returns a pooled map takes one reference; release gives it back.
func (p metaPool) intern(meta map[string]string) map[string]string {
	if len(meta) == 0 {
		return copyMeta(meta)
	}
	h := metaHash(meta)
	e, ok := p[h]
	switch {
	case !ok:
		e.meta = copyMeta(meta)
	case !maps.Equal(e.meta, meta):
		return copyMeta(meta) // hash collision: keep a private copy
	}
	e.refs++
	p[h] = e
	return e.meta
}

// release drops one stored document's reference to its metadata and
// deletes the pool entry with the last one. Empty maps and private
// copies hold no reference.
func (p metaPool) release(meta map[string]string) {
	if len(meta) == 0 {
		return
	}
	h := metaHash(meta)
	e, ok := p[h]
	if !ok || reflect.ValueOf(e.meta).UnsafePointer() != reflect.ValueOf(meta).UnsafePointer() {
		return
	}
	e.refs--
	if e.refs == 0 {
		delete(p, h)
		return
	}
	p[h] = e
}

// copyMeta copies a metadata map, keeping nil as nil.
func copyMeta(meta map[string]string) map[string]string {
	if meta == nil {
		return nil
	}
	c := make(map[string]string, len(meta))
	for k, v := range meta {
		c[k] = v
	}
	return c
}

// CollectionCounts reports the stored document count per collection.
func (db *DB) CollectionCounts() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make(map[string]int, len(db.colls))
	for c, n := range db.colls {
		out[c] = n
	}
	return out
}

// NextID reports the next ID the internal counter would assign. A
// recovering shard router uses it to restore its global allocator past
// every replayed document.
func (db *DB) NextID() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextID
}

// Hit is one retrieved document with its similarity score.
type Hit struct {
	Document
	Score float64
}

// Search embeds the query and returns the top-k most similar
// documents, best first.
func (db *DB) Search(query string, k int) ([]Hit, error) {
	vec, err := db.embed.Embed(query)
	if err != nil {
		return nil, fmt.Errorf("vecdb: embed query: %w", err)
	}
	return db.SearchVector(vec, k)
}

// SearchVector answers a query that is already embedded. A shard
// router uses this to embed a query once and fan the same vector out
// to every shard.
func (db *DB) SearchVector(vec []float32, k int) ([]Hit, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	results, err := db.index.Search(vec, k)
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, 0, len(results))
	for _, r := range results {
		doc, ok := db.docs[r.ID]
		if !ok {
			continue // index/docs raced on a delete; skip the orphan
		}
		hits = append(hits, Hit{Document: doc, Score: r.Score})
	}
	return hits, nil
}

// Filter restricts a search to documents in one collection and/or
// matching a set of metadata key=value predicates (all must match).
// The zero Filter matches every document.
type Filter struct {
	// Collection, when non-empty, keeps only documents in that
	// collection (normalized, so "" in a stored doc never occurs and
	// "default" matches pre-collection data).
	Collection string
	// Meta keeps only documents whose metadata carries every listed
	// key with exactly the listed value.
	Meta map[string]string
}

// IsZero reports whether the filter matches everything.
func (f Filter) IsZero() bool { return f.Collection == "" && len(f.Meta) == 0 }

// Match reports whether d passes the filter.
func (f Filter) Match(d Document) bool {
	if f.Collection != "" && d.Collection != NormalizeCollection(f.Collection) {
		return false
	}
	for k, v := range f.Meta {
		if d.Meta[k] != v {
			return false
		}
	}
	return true
}

// SearchVectorFiltered is SearchVector restricted to documents passing
// the filter. The index is probed with an adaptively widened k
// (starting at 4k, doubling until k survivors or the index is
// exhausted), then survivors are trimmed to k — so on an exact index
// the result is byte-identical to searching a store that holds only
// the matching documents. On approximate indexes (IVF/HNSW) the same
// over-fetch applies within the index's candidate set.
func (db *DB) SearchVectorFiltered(vec []float32, k int, f Filter) ([]Hit, error) {
	if f.IsZero() {
		return db.SearchVector(vec, k)
	}
	if k <= 0 {
		return nil, nil
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	fetch := k * 4
	for {
		results, err := db.index.Search(vec, fetch)
		if err != nil {
			return nil, err
		}
		hits := make([]Hit, 0, k)
		for _, r := range results {
			doc, ok := db.docs[r.ID]
			if !ok || !f.Match(doc) {
				continue
			}
			hits = append(hits, Hit{Document: doc, Score: r.Score})
			if len(hits) == k {
				break
			}
		}
		// Enough survivors, or the index returned everything it has —
		// widening further cannot change the answer.
		if len(hits) == k || len(results) < fetch {
			return hits, nil
		}
		fetch *= 2
	}
}

// Embedder exposes the database's embedder so callers sharing several
// DBs (shards) can embed queries once.
func (db *DB) Embedder() Embedder { return db.embed }

// SetStageObserver forwards a stage-timing observer (fn(stage,
// seconds)) to the underlying index when it reports internal stages
// (StageObservable); on other indexes it is a no-op. A nil fn
// detaches.
func (db *DB) SetStageObserver(fn func(stage string, seconds float64)) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if so, ok := db.index.(StageObservable); ok {
		so.SetStageObserver(fn)
	}
}

// IndexMemory reports the index's storage footprint when the index
// accounts one (MemoryReporter); ok is false otherwise.
func (db *DB) IndexMemory() (IndexMemory, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if mr, ok := db.index.(MemoryReporter); ok {
		return mr.Memory(), true
	}
	return IndexMemory{}, false
}

// snapshot is the gob wire form of a DB. Seq carries the last applied
// mutation sequence number, so a checkpoint pins the journal position
// its contents are current as of; snapshots written before seq
// tracking decode with Seq 0 (gob treats the missing field as zero)
// and the WAL replay on top re-derives the position.
type snapshot struct {
	Version int
	Docs    []Document
	NextID  int64
	Seq     uint64
}

// currentVersion is bumped when the wire form changes incompatibly. It
// doubles as the payload version stamped into checkpoint files by the
// storage codec.
const currentVersion = 1

// SnapshotVersion is the checkpoint payload version written by
// SaveFile and accepted by LoadFile.
const SnapshotVersion uint32 = currentVersion

// Save serializes the database's documents. Vectors are not stored:
// embedders are deterministic, so Load re-embeds, which keeps the file
// format independent of embedder internals.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	snap := snapshot{Version: currentVersion, Docs: db.docsByIDLocked(), NextID: db.nextID, Seq: db.seq}
	db.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("vecdb: save: %w", err)
	}
	return nil
}

// SaveFile checkpoints the database to path through the shared storage
// codec: the gob payload from Save is framed with a magic, version and
// checksum, written to a temp file and atomically renamed into place,
// so a crash mid-checkpoint never leaves a half-written file where a
// snapshot should be.
func (db *DB) SaveFile(path string) error {
	return storage.WriteSnapshot(path, SnapshotVersion, db.Save)
}

// Load restores documents saved by Save into a fresh DB built on the
// given embedder and index. Re-embedding runs on a concurrent worker
// pool, so recovery scales with cores.
func Load(r io.Reader, embed Embedder, index Index) (*DB, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("vecdb: load: %w", err)
	}
	if snap.Version != currentVersion {
		return nil, fmt.Errorf("vecdb: unsupported snapshot version %d", snap.Version)
	}
	db, err := New(embed, index)
	if err != nil {
		return nil, err
	}
	texts := make([]string, len(snap.Docs))
	for i, d := range snap.Docs {
		texts[i] = d.Text
	}
	vecs, err := embedAll(embed, texts)
	if err != nil {
		return nil, err
	}
	// Pre-collection snapshots decode with Collection "" (gob's
	// missing-field zero); addLocked normalizes it, so they land in the
	// default collection with the checksum a fresh write produces. It
	// also interns the metadata. db.mu is not taken: no other goroutine
	// can reach db yet.
	for i, d := range snap.Docs {
		if err := db.addLocked(d.ID, d.Collection, d.Text, d.Meta, vecs[i]); err != nil {
			return nil, err
		}
	}
	db.nextID = snap.NextID
	db.seq = snap.Seq
	return db, nil
}

// LoadFile restores a database from a checkpoint written by SaveFile,
// verifying the codec frame (magic, version, checksum) before
// decoding. A missing file surfaces as a not-exist error so callers
// can cold-start.
func LoadFile(path string, embed Embedder, index Index) (*DB, error) {
	var db *DB
	err := storage.ReadSnapshot(path, SnapshotVersion, func(r io.Reader) error {
		d, err := Load(r, embed, index)
		db = d
		return err
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}
