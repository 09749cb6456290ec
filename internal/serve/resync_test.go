package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/vecdb"
)

// openResyncStore builds a single-shard durable store with background
// checkpointing disabled, so tests control exactly when the WAL is
// truncated.
func openResyncStore(t *testing.T, dir string) *ShardedDB {
	t.Helper()
	s, err := OpenShardedWithIndex(dir, 1, 32, IndexConfig{}, PersistConfig{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseNoCheckpoint)
	return s
}

// applyDocs applies adds with explicit IDs start..start+n-1.
func applyDocs(t *testing.T, s *ShardedDB, start int64, n int) {
	t.Helper()
	ms := make([]vecdb.Mutation, n)
	for i := range ms {
		id := start + int64(i)
		ms[i] = vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: fmt.Sprintf("Document %d about policy %d.", id, id)}
	}
	if err := s.ApplyAll(ms); err != nil {
		t.Fatal(err)
	}
}

// TestMutationsSinceEdges covers the WAL-serving contract around the
// journal's boundaries: the full stream from zero, an empty delta at
// the head, a capped batch mid-stream, ErrSeqTruncated once a
// checkpoint drops the range, and the stream resuming past the
// truncation point.
func TestMutationsSinceEdges(t *testing.T) {
	s := openResyncStore(t, t.TempDir())
	applyDocs(t, s, 1, 5)
	if seq := s.Seq(); seq != 5 {
		t.Fatalf("seq after 5 mutations = %d", seq)
	}

	ms, err := s.MutationsSince(0, 0)
	if err != nil {
		t.Fatalf("full stream: %v", err)
	}
	if len(ms) != 5 {
		t.Fatalf("full stream returned %d records", len(ms))
	}
	for i, m := range ms {
		if m.Seq != uint64(i+1) || m.Op != vecdb.OpAdd {
			t.Fatalf("record %d = seq %d op %d", i, m.Seq, m.Op)
		}
	}

	// seq equal to head: an empty delta, not an error — the caller
	// reads it as parity.
	if ms, err = s.MutationsSince(5, 0); err != nil || len(ms) != 0 {
		t.Fatalf("delta at head = %d records, %v", len(ms), err)
	}

	// Batch cap applies from the oldest unseen record.
	if ms, err = s.MutationsSince(2, 2); err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Seq != 3 || ms[1].Seq != 4 {
		t.Fatalf("capped delta = %+v", ms)
	}

	// Checkpointing folds the journal away: anything before the floor
	// is now unservable.
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MutationsSince(2, 0); !errors.Is(err, vecdb.ErrSeqTruncated) {
		t.Fatalf("post-checkpoint delta = %v, want ErrSeqTruncated", err)
	}
	// The head itself is still servable (empty delta)...
	if ms, err = s.MutationsSince(5, 0); err != nil || len(ms) != 0 {
		t.Fatalf("head after checkpoint = %d records, %v", len(ms), err)
	}
	// ...and new writes extend the stream with their original numbers.
	applyDocs(t, s, 6, 1)
	if ms, err = s.MutationsSince(5, 0); err != nil || len(ms) != 1 || ms[0].Seq != 6 {
		t.Fatalf("delta past checkpoint = %+v, %v", ms, err)
	}
}

// TestMutationsSinceTornTail: a WAL whose final segment ends in a
// torn record (the classic crash-mid-append) recovers to the intact
// prefix, and MutationsSince serves exactly that prefix — then the
// stream continues where the surviving records left off.
func TestMutationsSinceTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openResyncStore(t, dir)
	applyDocs(t, s, 1, 5)
	s.CloseNoCheckpoint()

	// Tear the tail: append a whole framed record header plus only
	// part of its payload, as if the process died mid-write.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	sort.Strings(segs)
	payload, err := vecdb.EncodeMutation(vecdb.Mutation{Op: vecdb.OpAdd, ID: 6, Text: "torn mid-write"})
	if err != nil {
		t.Fatal(err)
	}
	framed := storage.EncodeSeqPayload(6, payload)
	var rec []byte
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(framed)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(framed))
	rec = append(rec, framed[:len(framed)/2]...)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Recovery truncates the torn tail; the five whole records — and
	// only those — are served, and the doc the torn record described
	// never surfaces.
	s2 := openResyncStore(t, dir)
	if seq := s2.Seq(); seq != 5 {
		t.Fatalf("seq after torn-tail recovery = %d, want 5", seq)
	}
	ms, err := s2.MutationsSince(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 5 || ms[len(ms)-1].Seq != 5 {
		t.Fatalf("torn-tail stream = %d records, last seq %d", len(ms), ms[len(ms)-1].Seq)
	}
	if _, err := s2.Get(6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record resurrected: %v", err)
	}
	// The journal continues cleanly on the truncated segment.
	applyDocs(t, s2, 6, 1)
	if ms, err = s2.MutationsSince(5, 0); err != nil || len(ms) != 1 || ms[0].Seq != 6 {
		t.Fatalf("post-recovery delta = %+v, %v", ms, err)
	}
}

// TestSeqAndChecksumSurviveRecovery: seq and checksum rebuild
// identically from checkpoint + WAL replay — the property resync's
// parity checks lean on after any node restart.
func TestSeqAndChecksumSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openResyncStore(t, dir)
	applyDocs(t, s, 1, 4)
	if err := s.Save(); err != nil { // checkpoint carries seq 4
		t.Fatal(err)
	}
	applyDocs(t, s, 5, 3) // journaled on top
	if err := s.DeleteContext(context.Background(), "", 2); err != nil {
		t.Fatal(err)
	}
	seq, check := s.Seq(), s.Checksum()
	if seq != 8 {
		t.Fatalf("seq before crash = %d, want 8 (7 adds + 1 delete)", seq)
	}
	s.crash()

	s2 := openResyncStore(t, dir)
	if got := s2.Seq(); got != seq {
		t.Fatalf("seq after recovery = %d, want %d", got, seq)
	}
	if got := s2.Checksum(); got != check {
		t.Fatalf("checksum after recovery = %x, want %x", got, check)
	}
	// The delta floor is the checkpoint seq: older ranges are
	// truncated, newer ones serve.
	if _, err := s2.MutationsSince(3, 0); !errors.Is(err, vecdb.ErrSeqTruncated) {
		t.Fatalf("pre-checkpoint delta after recovery = %v, want ErrSeqTruncated", err)
	}
	ms, err := s2.MutationsSince(4, 0)
	if err != nil || len(ms) != 4 {
		t.Fatalf("post-checkpoint delta after recovery = %d records, %v", len(ms), err)
	}
}

// TestFailedResyncJournalRollsBack: a resync batch whose journal fails
// leaves neither its documents nor its seq behind, so the replica does
// not report a position its disk never reached.
func TestFailedResyncJournalRollsBack(t *testing.T) {
	s := openResyncStore(t, t.TempDir())
	applyDocs(t, s, 1, 1)
	sum, seq := s.Checksum(), s.Seq()
	s.persist.shards[0].wal.Close()
	err := s.ApplyResync([]vecdb.SeqMutation{
		{Seq: 2, Mutation: vecdb.Mutation{Op: vecdb.OpAdd, ID: 2, Text: "Shipped from the primary."}},
		{Seq: 3, Mutation: vecdb.Mutation{Op: vecdb.OpAdd, ID: 1, Text: "Document 1, replaced upstream."}},
	})
	if err == nil {
		t.Fatal("resync after WAL close succeeded")
	}
	if s.Seq() != seq || s.Checksum() != sum {
		t.Errorf("seq %d checksum %016x after failed resync, want seq %d checksum %016x", s.Seq(), s.Checksum(), seq, sum)
	}
	if _, err := s.Get(2); !errors.Is(err, vecdb.ErrNotFound) {
		t.Errorf("Get(2) after failed resync: err = %v, want ErrNotFound", err)
	}
	if d, err := s.Get(1); err != nil || d.Text != "Document 1 about policy 1." {
		t.Errorf("Get(1) after failed resync = %+v, %v; want the original", d, err)
	}
}
