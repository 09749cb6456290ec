package vecdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// This file is the replication-facing surface of a DB: a monotonic
// per-shard mutation sequence number, an order-independent content
// checksum, and the three operations anti-entropy resync is built
// from — reading a consistent snapshot, applying a journaled delta
// with explicit sequence numbers, and applying a full snapshot.
// See docs/cluster.md ("Replica resync") for how the cluster layer
// composes them.

// ErrSeqTruncated reports that a journal no longer retains the
// mutations after the requested sequence number — the reader must
// fall back to a full snapshot transfer. It is returned by
// MutationsSince implementations whose WAL was truncated past the
// requested point (or that keep no journal at all).
var ErrSeqTruncated = errors.New("vecdb: journal truncated past requested seq")

// SeqMutation pairs a journaled mutation with the per-shard sequence
// number it was applied at. Sequence numbers order one shard's
// mutation stream; they carry no meaning across shards.
type SeqMutation struct {
	Seq uint64
	Mutation
}

// Seq reports the last applied mutation sequence number. It advances
// by one for every mutation applied through Apply/ApplyAll, and jumps
// to the source's numbering under ApplyResync/ApplySnapshot. A fresh
// DB is at seq 0.
func (db *DB) Seq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq
}

// SetSeq pins the sequence counter — the recovery path uses it to
// restore the journal's numbering after replay (replay may skip
// already-checkpointed records, so counting applies would drift), and
// the write path uses it to roll the counter back with a failed
// batch.
func (db *DB) SetSeq(seq uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.seq = seq
}

// Checksum reports the order-independent content checksum: the XOR of
// every stored document's hash. Two shards holding the same document
// set report the same checksum regardless of the order writes
// arrived in, so equal seq + equal checksum is the resync manager's
// convergence test, and equal seq + differing checksum exposes silent
// divergence that sequence numbers alone cannot see.
func (db *DB) Checksum() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.check
}

// docHash folds one document (ID, collection, text, and sorted
// metadata) into the 64-bit hash the content checksum accumulates. It
// must be deterministic across processes: FNV-1a over a canonical
// byte ordering, never map iteration order. Stored documents always
// carry a normalized (non-empty) collection, so two shards holding
// the same doc set hash identically regardless of how the collection
// was spelled at write time.
func docHash(d Document) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(uint64(d.ID)>>(8*i)))
	}
	h = fnvByte(h, 0x1d)
	h = fnvString(h, NormalizeCollection(d.Collection))
	h = fnvByte(h, 0x1f)
	h = fnvString(h, d.Text)
	if len(d.Meta) > 0 {
		var buf [8]string
		for _, k := range appendSortedKeys(buf[:0], d.Meta) {
			h = fnvByte(h, 0x1f)
			h = fnvString(h, k)
			h = fnvByte(h, 0x1e)
			h = fnvString(h, d.Meta[k])
		}
	}
	return h
}

// fnvByte and fnvString are fnvWrite for one byte and for a string:
// docHash and metaHash fold their bytes with them, allocating nothing.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// metaHash keys the metadata pool: 64-bit FNV-1a over the set's
// entries in key order, each written as key 0x1e value 0x1f. It
// allocates nothing for sets of up to eight keys.
func metaHash(meta map[string]string) uint64 {
	h := uint64(fnvOffset)
	var buf [8]string
	for _, k := range appendSortedKeys(buf[:0], meta) {
		h = fnvString(h, k)
		h = fnvByte(h, 0x1e)
		h = fnvString(h, meta[k])
		h = fnvByte(h, 0x1f)
	}
	return h
}

// appendSortedKeys appends m's keys to dst in ascending order: the one
// order every encoding of a metadata set uses, since map iteration
// order changes from run to run.
func appendSortedKeys(dst []string, m map[string]string) []string {
	n := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// MutationsSince on a bare DB always reports ErrSeqTruncated: the DB
// keeps no journal (that is the WAL's job, one layer up), so a peer
// that lags it can only be repaired by snapshot transfer. Durable
// stores (serve.ShardedDB) override this with a real WAL read.
func (db *DB) MutationsSince(since uint64, max int) ([]SeqMutation, error) {
	return nil, fmt.Errorf("%w: in-memory db keeps no journal", ErrSeqTruncated)
}

// ApplyResync applies a mutation delta shipped from a more advanced
// peer. It differs from ApplyAll in exactly the ways catch-up needs:
// adds are upserts (re-shipping a document the target already holds
// replaces it in place), deletes of absent IDs are no-ops (the target
// may never have seen the add the source journaled before it), and
// the sequence counter follows the explicit per-mutation numbers
// rather than counting locally — after a clean apply the target's seq
// equals the highest shipped seq. Replays are idempotent, so a resync
// interrupted mid-batch is simply retried.
func (db *DB) ApplyResync(ms []SeqMutation) error {
	vecs := make([][]float32, len(ms))
	var texts []string
	var slots []int
	for i, m := range ms {
		switch m.Op {
		case OpAdd:
			if m.ID <= 0 {
				return fmt.Errorf("vecdb: resync document ID must be positive, got %d", m.ID)
			}
			texts = append(texts, m.Text)
			slots = append(slots, i)
		case OpDelete:
		default:
			return fmt.Errorf("vecdb: unknown mutation op %d", m.Op)
		}
	}
	embedded, err := embedAll(db.embed, texts)
	if err != nil {
		return err
	}
	for j, i := range slots {
		vecs[i] = embedded[j]
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, m := range ms {
		switch m.Op {
		case OpAdd:
			if err := db.addLocked(m.ID, m.Collection, m.Text, m.Meta, vecs[i]); err != nil {
				return err
			}
		case OpDelete:
			if err := db.deleteLocked(m.ID, m.Collection); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
		if m.Seq > db.seq {
			db.seq = m.Seq
		}
	}
	return nil
}

// SnapshotDocs returns a consistent view of the full document set
// (sorted by ID) together with the seq it is current as of — the
// source side of a full snapshot transfer, taken under one read lock
// so the doc set and the seq always agree.
func (db *DB) SnapshotDocs() (uint64, []Document, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.seq, db.docsByIDLocked(), nil
}

// docsByIDLocked lists the stored documents sorted by ID, so one
// document set always reads out, and checkpoints, in one order.
// Callers hold db.mu.
func (db *DB) docsByIDLocked() []Document {
	docs := make([]Document, 0, len(db.docs))
	for id, r := range db.docs {
		docs = append(docs, db.document(id, r))
	}
	// IDs are unique, so any sort gives this order; SortFunc does it
	// without sort.Slice's reflection.
	slices.SortFunc(docs, func(a, b Document) int { return cmp.Compare(a.ID, b.ID) })
	return docs
}

// ApplySnapshot replaces the DB's contents with a peer's full
// document set and adopts its seq — the fallback when the source's
// WAL no longer retains the delta the target needs. It is applied as
// a diff under one lock: documents absent from the snapshot are
// deleted, every snapshot document is upserted (replacing in place
// when present), so a crash mid-apply leaves a state that the next
// resync round repairs rather than a half-cleared store.
func (db *DB) ApplySnapshot(seq uint64, docs []Document) error {
	texts := make([]string, len(docs))
	for i, d := range docs {
		if d.ID <= 0 {
			return fmt.Errorf("vecdb: snapshot document ID must be positive, got %d", d.ID)
		}
		texts[i] = d.Text
	}
	vecs, err := embedAll(db.embed, texts)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	want := make(map[int64]bool, len(docs))
	for _, d := range docs {
		want[d.ID] = true
	}
	var drop []int64
	for id := range db.docs {
		if !want[id] {
			drop = append(drop, id)
		}
	}
	for _, id := range drop {
		if err := db.deleteLocked(id, ""); err != nil {
			return err
		}
	}
	for i, d := range docs {
		if err := db.addLocked(d.ID, d.Collection, d.Text, d.Meta, vecs[i]); err != nil {
			return err
		}
	}
	db.seq = seq
	return nil
}
