package vecdb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
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

// Checkpoint payload, version 2 (what Save writes):
//
//	[8B LE NextID][8B LE Seq][8B LE document count]
//	then per document, in ascending ID order:
//	  [uvarint len][1B flags][len bytes: the document as an OpAdd
//	  mutation in EncodeMutation's wire form, metadata keys sorted]
//
// Flag bit 0 marks a document whose Meta is empty but not nil: the
// mutation form writes both as zero pairs, and a stored {} must
// survive a restart as {}. One document set thus encodes to one byte
// sequence. Version 1 was a single gob value (snapshotV1Payload); LoadFile
// still reads it, and the next checkpoint rewrites the file as v2.
const (
	// SnapshotVersion is the checkpoint payload version SaveFile writes.
	SnapshotVersion uint32 = 2
	snapshotV1      uint32 = 1

	flagEmptyMeta = 1 << 0
	// minRecord is the smallest encoded document: a one-byte length,
	// the flags, and an OpAdd with empty text and no metadata.
	minRecord = 1 + 1 + 9 + 4 + 2
	// loadBatch is how many decoded documents Load embeds at a time.
	loadBatch = 4096
)

// Save serializes the database's documents as a version-2 payload.
// Vectors are not stored: embedders are deterministic, so Load
// re-embeds, which keeps the file format independent of embedder
// internals. Documents are encoded one at a time into one reused
// buffer and written with one Write each, so the number of allocations
// does not grow with the document count; w should be buffered.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	docs, nextID, seq := db.docsByIDLocked(), db.nextID, db.seq
	db.mu.RUnlock()
	buf := make([]byte, 0, 1024)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(nextID))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(docs)))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("vecdb: save: %w", err)
	}
	var keys []string
	for _, d := range docs {
		m := Mutation{Op: OpAdd, ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: d.Meta}
		n, err := mutationSize(m)
		if err != nil {
			return fmt.Errorf("vecdb: save: %w", err)
		}
		var flags byte
		if d.Meta != nil && len(d.Meta) == 0 {
			flags |= flagEmptyMeta
		}
		buf = binary.AppendUvarint(buf[:0], uint64(n))
		buf = append(buf, flags)
		buf, keys = appendMutation(buf, keys, m)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("vecdb: save: %w", err)
		}
	}
	return nil
}

// SaveFile checkpoints the database to path through the shared storage
// codec: the payload from Save is framed with a magic, version and
// checksum, written to a temp file and atomically renamed into place,
// so a crash mid-checkpoint never leaves a half-written file where a
// snapshot should be.
func (db *DB) SaveFile(path string) error {
	return storage.WriteSnapshot(path, SnapshotVersion, db.Save)
}

// Load restores documents saved by Save into a fresh DB built on the
// given embedder and index. Records are decoded as they stream in and
// re-embedded in batches on a concurrent worker pool, so recovery
// scales with cores without holding every vector at once. Every count
// and length prefix is checked against the bytes left before it sizes
// anything, so a corrupt payload fails instead of allocating what it
// claims; a reader that cannot report its length (as *io.LimitedReader
// and Len methods do) is read into memory first.
func Load(r io.Reader, embed Embedder, index Index) (*DB, error) {
	db, err := New(embed, index)
	if err != nil {
		return nil, err
	}
	p, err := newPayload(r)
	if err != nil {
		return nil, fmt.Errorf("vecdb: load: %w", err)
	}
	if err := db.load(p); err != nil {
		return nil, fmt.Errorf("vecdb: load: %w", err)
	}
	return db, nil
}

// load decodes a version-2 payload into db, which no other goroutine
// can reach yet.
func (db *DB) load(p *payload) error {
	var hdr [24]byte
	if err := p.read(hdr[:]); err != nil {
		return err
	}
	nextID := int64(binary.LittleEndian.Uint64(hdr[0:8]))
	seq := binary.LittleEndian.Uint64(hdr[8:16])
	count := binary.LittleEndian.Uint64(hdr[16:24])
	if count > uint64(p.left/minRecord) {
		return fmt.Errorf("%d documents cannot fit in %d bytes", count, p.left)
	}
	var (
		batch []Document
		rec   []byte
		last  int64
	)
	for i := uint64(0); i < count; i++ {
		n, err := binary.ReadUvarint(p)
		if err != nil {
			return fmt.Errorf("document %d: %w", i, noEOF(err))
		}
		flags, err := p.ReadByte()
		if err != nil {
			return fmt.Errorf("document %d: %w", i, noEOF(err))
		}
		if flags&^flagEmptyMeta != 0 {
			return fmt.Errorf("document %d: unknown flags %#x", i, flags)
		}
		if n > uint64(p.left) {
			return fmt.Errorf("document %d: %d bytes, %d left", i, n, p.left)
		}
		rec = slices.Grow(rec[:0], int(n))[:n]
		if err := p.read(rec); err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
		m, err := DecodeMutation(rec)
		if err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
		switch {
		case m.Op != OpAdd:
			return fmt.Errorf("document %d: op %d is not an add", i, m.Op)
		case m.ID <= last:
			return fmt.Errorf("document %d: ID %d does not follow %d", i, m.ID, last)
		case flags&flagEmptyMeta != 0 && m.Meta != nil:
			return fmt.Errorf("document %d: empty-metadata flag on %d pairs", i, len(m.Meta))
		case flags&flagEmptyMeta != 0:
			m.Meta = map[string]string{}
		}
		last = m.ID
		batch = append(batch, Document{ID: m.ID, Collection: m.Collection, Text: m.Text, Meta: m.Meta})
		if len(batch) == loadBatch {
			if err := db.addEmbedded(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := db.addEmbedded(batch); err != nil {
		return err
	}
	if _, err := p.ReadByte(); err != io.EOF {
		return fmt.Errorf("trailing bytes after %d documents", count)
	}
	if nextID <= last {
		return fmt.Errorf("next ID %d does not follow document %d", nextID, last)
	}
	db.nextID = nextID
	db.seq = seq
	return nil
}

// addEmbedded embeds docs on all cores and installs them in order.
// Collections are normalized and metadata interned by addLocked. db.mu
// is not taken: callers hold a DB no other goroutine can reach.
func (db *DB) addEmbedded(docs []Document) error {
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	vecs, err := embedAll(db.embed, texts)
	if err != nil {
		return err
	}
	for i, d := range docs {
		if err := db.addLocked(d.ID, d.Collection, d.Text, d.Meta, vecs[i]); err != nil {
			return err
		}
	}
	return nil
}

// payload reads a checkpoint payload and counts the bytes it has left.
type payload struct {
	*bufio.Reader
	left int64
}

// newPayload wraps r, taking the byte count from the reader when it
// can tell and reading r into memory when it cannot.
func newPayload(r io.Reader) (*payload, error) {
	var left int64
	switch lr := r.(type) {
	case *io.LimitedReader:
		left = lr.N
	case interface{ Len() int }:
		left = int64(lr.Len())
	default:
		b, err := io.ReadAll(r)
		if err != nil {
			return nil, err
		}
		r, left = bytes.NewReader(b), int64(len(b))
	}
	return &payload{Reader: bufio.NewReader(r), left: left}, nil
}

// ReadByte reads one byte and counts it; binary.ReadUvarint reads the
// record lengths through it.
func (p *payload) ReadByte() (byte, error) {
	c, err := p.Reader.ReadByte()
	if err == nil {
		p.left--
	}
	return c, err
}

// read fills b, which the caller has checked against p.left.
func (p *payload) read(b []byte) error {
	n, err := io.ReadFull(p.Reader, b)
	p.left -= int64(n)
	return noEOF(err)
}

// noEOF reports a payload that ends mid-record as truncated.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// snapshotV1Payload is the version-1 checkpoint payload: one gob value.
// Snapshots written before seq tracking decode with Seq 0 (gob treats
// the missing field as zero) and the WAL replay on top re-derives the
// position.
type snapshotV1Payload struct {
	Version int
	Docs    []Document
	NextID  int64
	Seq     uint64
}

// loadV1 restores a version-1 payload.
func loadV1(r io.Reader, embed Embedder, index Index) (*DB, error) {
	var snap snapshotV1Payload
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("vecdb: load: %w", err)
	}
	if snap.Version != int(snapshotV1) {
		return nil, fmt.Errorf("vecdb: unsupported snapshot version %d", snap.Version)
	}
	db, err := New(embed, index)
	if err != nil {
		return nil, err
	}
	// Pre-collection snapshots decode with Collection "" (gob's
	// missing-field zero); addLocked normalizes it, so they land in the
	// default collection with the checksum a fresh write produces.
	if err := db.addEmbedded(snap.Docs); err != nil {
		return nil, err
	}
	// Keep the counter past every stored ID, which is what Save's next
	// version-2 payload must show.
	db.nextID = max(db.nextID, snap.NextID)
	db.seq = snap.Seq
	return db, nil
}

// LoadFile restores a database from a checkpoint written by SaveFile,
// verifying the codec frame (magic, version, checksum) before
// decoding. It reads version-2 payloads and, from data directories
// written before them, version 1; an older binary refuses a version-2
// file with storage.ErrSnapshotVersion. A missing file surfaces as a
// not-exist error so callers can cold-start.
func LoadFile(path string, embed Embedder, index Index) (*DB, error) {
	var db *DB
	load := func(r io.Reader) (err error) {
		db, err = Load(r, embed, index)
		return err
	}
	err := storage.ReadSnapshot(path, SnapshotVersion, load)
	if errors.Is(err, storage.ErrSnapshotVersion) {
		load = func(r io.Reader) (err error) {
			db, err = loadV1(r, embed, index)
			return err
		}
		err = storage.ReadSnapshot(path, snapshotV1, load)
	}
	if err != nil {
		return nil, err
	}
	return db, nil
}
