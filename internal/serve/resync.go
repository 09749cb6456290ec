package serve

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/storage"
	"repro/internal/vecdb"
)

// This file is ShardedDB's side of anti-entropy replica resync (see
// docs/cluster.md): serving mutation deltas out of the shard's WAL
// segments, and applying deltas or full snapshots shipped by a
// cluster.Router's resync manager. The delta surface is meaningful
// for single-shard stores — the shape cmd/shardnode runs, where the
// routing layer above owns the hash ring and each node is one shard
// of it.

// errNotSingleShard rejects resync application on a multi-shard
// store: sequence numbers order one shard's mutation stream, and a
// store that hash-routes internally has no single stream to adopt.
var errNotSingleShard = errors.New("serve: resync apply requires a single-shard store")

// Seq reports the store's last applied mutation sequence number — the
// per-shard stream position for a single-shard node, the sum of shard
// positions otherwise (a coarse mutation count, still monotonic).
func (s *ShardedDB) Seq() uint64 {
	var seq uint64
	for _, sh := range s.shards {
		seq += sh.Seq()
	}
	return seq
}

// Checksum reports the order-independent content checksum across all
// shards (XOR composes across the partition exactly as it does across
// documents).
func (s *ShardedDB) Checksum() uint64 {
	var check uint64
	for _, sh := range s.shards {
		check ^= sh.Checksum()
	}
	return check
}

// errStopScan aborts a WAL replay early once MutationsSince has
// collected its batch; it never escapes this file.
var errStopScan = errors.New("serve: stop wal scan")

// MutationsSince serves the journaled mutations with seq > since,
// oldest first, up to max records (max <= 0 means no cap), straight
// from the shard's WAL segments. It reports vecdb.ErrSeqTruncated
// when the WAL no longer retains the requested range — after a
// checkpoint truncated it, on a memory-only store (no journal), or on
// a multi-shard store (no single stream) — telling the caller to fall
// back to full snapshot transfer. since equal to the current head
// returns an empty delta.
func (s *ShardedDB) MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error) {
	if len(s.shards) != 1 {
		return nil, fmt.Errorf("%w: multi-shard store serves no delta stream", vecdb.ErrSeqTruncated)
	}
	p := s.persist
	if p == nil {
		return s.shards[0].MutationsSince(since, max)
	}
	ds := p.shards[0]
	if base := ds.base.Load(); since < base {
		return nil, fmt.Errorf("%w: wal begins after seq %d, need > %d", vecdb.ErrSeqTruncated, base, since)
	}
	var out []vecdb.SeqMutation
	prev := ds.base.Load() // for numbering legacy unframed records
	_, err := ds.wal.Replay(func(payload []byte) error {
		seq, raw, framed, err := storage.DecodeSeqPayload(payload)
		if err != nil {
			return err
		}
		if !framed {
			seq = prev + 1
		}
		prev = seq
		if seq <= since {
			return nil
		}
		m, err := vecdb.DecodeMutation(raw)
		if err != nil {
			return err
		}
		out = append(out, vecdb.SeqMutation{Seq: seq, Mutation: m})
		if max > 0 && len(out) >= max {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	// A background checkpoint may have truncated the WAL mid-scan; if
	// the retention floor moved past since, the delta just read can be
	// missing records and must not be trusted as complete.
	if base := ds.base.Load(); since < base {
		return nil, fmt.Errorf("%w: wal truncated during read (floor now %d)", vecdb.ErrSeqTruncated, base)
	}
	return out, nil
}

// ApplyResync applies a mutation delta shipped from a more advanced
// peer, journaling each record under its explicit sequence number so
// the catch-up survives a crash like any other write. Application is
// idempotent (upserting adds, absent-delete-tolerant); a batch that
// fails to apply or journal is rolled back, seq included, reported as
// an error and re-shipped by the resync manager's next round.
func (s *ShardedDB) ApplyResync(ms []vecdb.SeqMutation) error {
	if len(ms) == 0 {
		return nil
	}
	if len(s.shards) != 1 {
		return errNotSingleShard
	}
	db := s.shards[0]
	p := s.persist
	if p == nil {
		return db.ApplyResync(ms)
	}
	payloads := make([][]byte, len(ms))
	for j, m := range ms {
		b, err := vecdb.EncodeMutation(m.Mutation)
		if err != nil {
			return err
		}
		payloads[j] = storage.EncodeSeqPayload(m.Seq, b)
	}
	ids := make([]int64, len(ms))
	for j, m := range ms {
		ids[j] = m.ID
	}
	ds := p.shards[0]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	rollback := undoFunc(db, db.Seq(), ids)
	if err := db.ApplyResync(ms); err != nil {
		rollback()
		return err
	}
	if err := p.journal(0, payloads); err != nil {
		rollback()
		return err
	}
	return nil
}

// SnapshotDocs returns the full document set (sorted by ID) and the
// seq it is current as of — the source side of a snapshot transfer.
func (s *ShardedDB) SnapshotDocs() (uint64, []vecdb.Document, error) {
	if len(s.shards) == 1 {
		return s.shards[0].SnapshotDocs()
	}
	var (
		seq  uint64
		docs []vecdb.Document
	)
	for _, sh := range s.shards {
		sseq, sdocs, err := sh.SnapshotDocs()
		if err != nil {
			return 0, nil, err
		}
		seq += sseq
		docs = append(docs, sdocs...)
	}
	sortDocsByID(docs)
	return seq, docs, nil
}

func sortDocsByID(docs []vecdb.Document) {
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
}

// ApplySnapshot replaces the store's contents with a peer's full
// document set and adopts its seq — the truncated-WAL fallback. On a
// durable store the adopted state is checkpointed immediately in the
// same critical section, pinning the new seq on disk and truncating a
// WAL whose records are now meaningless under the adopted numbering;
// a crash before the checkpoint lands recovers the pre-snapshot state
// and the next anti-entropy round repairs it again.
func (s *ShardedDB) ApplySnapshot(seq uint64, docs []vecdb.Document) error {
	if len(s.shards) != 1 {
		return errNotSingleShard
	}
	db := s.shards[0]
	p := s.persist
	if p == nil {
		return db.ApplySnapshot(seq, docs)
	}
	ds := p.shards[0]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := db.ApplySnapshot(seq, docs); err != nil {
		return err
	}
	if err := p.checkpointShardLocked(s, 0); err != nil {
		p.ckErrors.Add(1)
		return fmt.Errorf("serve: snapshot checkpoint: %w", err)
	}
	return nil
}
