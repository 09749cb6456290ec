package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/vecdb"
)

// openTestStore opens a durable store in dir with the background
// checkpointer disabled, so tests control exactly when checkpoints
// happen.
func openTestStore(t *testing.T, dir string, shards int) *ShardedDB {
	t.Helper()
	s, err := OpenShardedWithIndex(dir, shards, 64, IndexConfig{}, PersistConfig{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var persistDocs = []string{
	"The store operates from nine in the morning until five.",
	"Employees are entitled to fourteen days of annual leave.",
	"At least three shopkeepers are required to run a shop.",
	"Uniforms must be worn at all times on the shop floor.",
	"The probation period lasts three months for new employees.",
	"Overtime is paid at one and a half times the hourly rate.",
}

// searchAll returns deterministic search results for a fixed probe
// query set — the equivalence oracle for recovery tests.
func searchAll(t *testing.T, s *ShardedDB) [][]vecdb.Hit {
	t.Helper()
	queries := []string{
		"when does the store open",
		"how many days of annual leave",
		"what is the probation period",
	}
	out := make([][]vecdb.Hit, len(queries))
	for i, q := range queries {
		hits, err := s.Search(q, 4)
		if err != nil {
			t.Fatalf("search %q: %v", q, err)
		}
		out[i] = hits
	}
	return out
}

// TestRecoverFromWALOnly: a crash with no checkpoint at all replays
// every mutation from the WAL and serves identical results.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	var ids []int64
	for _, d := range persistDocs {
		id, err := s.Add(d, map[string]string{"src": "handbook"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.DeleteContext(context.Background(), "", ids[3]); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, s)
	wantLen := s.Len()
	s.crash() // no checkpoint: everything must come back from the WAL

	r := openTestStore(t, dir, 4)
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("recovered %d docs, want %d", r.Len(), wantLen)
	}
	if st := r.PersistStats(); st.ReplayedRecords != uint64(len(persistDocs))+1 {
		t.Errorf("replayed %d records, want %d", st.ReplayedRecords, len(persistDocs)+1)
	}
	if got := searchAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("search diverged after recovery:\n got %+v\nwant %+v", got, want)
	}
	// The ID allocator must resume past every recovered document.
	id, err := r.Add("a brand new document about store hours", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if id == old {
			t.Fatalf("recovered allocator reissued ID %d", id)
		}
	}
	// Deleted document stays deleted.
	if _, err := r.Get(ids[3]); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted doc resurfaced: err = %v", err)
	}
}

// TestRecoverCheckpointPlusWAL: recovery replays only the records
// journaled after the latest checkpoint, and the combined state equals
// the pre-crash state exactly.
func TestRecoverCheckpointPlusWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	for _, d := range persistDocs[:4] {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if st := s.PersistStats(); st.WALRecords != 0 || st.Checkpoints == 0 {
		t.Fatalf("after checkpoint: %+v", st)
	}
	// Post-checkpoint traffic: two adds and one delete, WAL-only.
	var tail []int64
	for _, d := range persistDocs[4:] {
		id, err := s.Add(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, id)
	}
	if err := s.DeleteContext(context.Background(), "", tail[0]); err != nil {
		t.Fatal(err)
	}
	want := searchAll(t, s)
	wantLen := s.Len()
	s.crash()

	r := openTestStore(t, dir, 4)
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("recovered %d docs, want %d", r.Len(), wantLen)
	}
	if st := r.PersistStats(); st.ReplayedRecords != 3 {
		t.Errorf("replayed %d records on top of checkpoint, want 3", st.ReplayedRecords)
	}
	if got := searchAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("search diverged after checkpoint+WAL recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestGracefulCloseLeavesNothingToReplay: Close checkpoints, so a
// clean restart replays zero records.
func TestGracefulCloseLeavesNothingToReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 2)
	for _, d := range persistDocs {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := searchAll(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir, 2)
	defer r.Close()
	if st := r.PersistStats(); st.ReplayedRecords != 0 || st.WALRecords != 0 {
		t.Errorf("clean restart replayed %d records (wal %d), want 0", st.ReplayedRecords, st.WALRecords)
	}
	if got := searchAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("search diverged after clean restart")
	}
}

// shardWALSegments lists the WAL segment paths of shard 0 in dir.
func shardWALSegments(t *testing.T, dir string) []string {
	t.Helper()
	walDir := filepath.Join(dir, shardDirName(0), "wal")
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, filepath.Join(walDir, e.Name()))
	}
	return out
}

// TestRecoverTornWALTail: a crash mid-append leaves a half-written
// record; recovery keeps the clean prefix and drops the torn record.
func TestRecoverTornWALTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 1) // single shard: the torn record is the last add
	for _, d := range persistDocs {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.crash()
	segs := shardWALSegments(t, dir)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir, 1)
	defer r.Close()
	if r.Len() != len(persistDocs)-1 {
		t.Fatalf("recovered %d docs after torn tail, want %d", r.Len(), len(persistDocs)-1)
	}
	// The store must keep accepting writes on the repaired log.
	if _, err := r.Add(persistDocs[len(persistDocs)-1], nil); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(persistDocs) {
		t.Errorf("len after re-add = %d, want %d", r.Len(), len(persistDocs))
	}
}

// TestRecoverCorruptCRC: a bit-flipped record is dropped with the rest
// of the tail rather than applied as garbage.
func TestRecoverCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 1)
	for _, d := range persistDocs[:3] {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.crash()
	segs := shardWALSegments(t, dir)
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // corrupt the last record's payload
	if err := os.WriteFile(segs[len(segs)-1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir, 1)
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("recovered %d docs after crc corruption, want 2", r.Len())
	}
}

// TestDedupeReplay: deletes already reflected in the checkpoint (a
// crash between checkpoint and WAL truncation) are filtered; ordering
// against adds in the same log is honoured.
func TestDedupeReplay(t *testing.T) {
	db, err := vecdb.NewDefault(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddDocument(vecdb.Document{ID: 1, Text: "present in checkpoint"}); err != nil {
		t.Fatal(err)
	}
	ms := []vecdb.Mutation{
		{Op: vecdb.OpDelete, ID: 1},             // in checkpoint → keep
		{Op: vecdb.OpDelete, ID: 1},             // now gone → drop
		{Op: vecdb.OpAdd, ID: 2, Text: "two"},   // keep
		{Op: vecdb.OpDelete, ID: 2},             // added above → keep
		{Op: vecdb.OpDelete, ID: 2},             // gone again → drop
		{Op: vecdb.OpDelete, ID: 99},            // never existed → drop
		{Op: vecdb.OpAdd, ID: 1, Text: "again"}, // keep
	}
	// dedupeReplay compacts in place, so capture expectations first.
	want := []vecdb.Mutation{ms[0], ms[2], ms[3], ms[6]}
	got := dedupeReplay(db, ms)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dedupeReplay = %+v\nwant %+v", got, want)
	}
	// The filtered log must replay cleanly.
	if err := db.ApplyAll(got); err != nil {
		t.Fatalf("replay of filtered log: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("len = %d, want 1", db.Len())
	}
}

// TestReopenParameterMismatch: a data directory remembers its shard
// count and embedding dim; incompatible reopens fail loudly instead of
// misrouting the hash space.
func TestReopenParameterMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	if _, err := s.Add(persistDocs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedWithIndex(dir, 8, 64, IndexConfig{}, PersistConfig{CheckpointEvery: -1}); err == nil {
		t.Error("reopen with different shard count succeeded")
	}
	if _, err := OpenShardedWithIndex(dir, 4, 128, IndexConfig{}, PersistConfig{CheckpointEvery: -1}); err == nil {
		t.Error("reopen with different dim succeeded")
	}
	// Shards=0 adopts the stored count.
	r, err := OpenShardedWithIndex(dir, 0, 64, IndexConfig{}, PersistConfig{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != 4 {
		t.Errorf("adopted %d shards, want 4", r.Shards())
	}
	if r.Len() != 1 {
		t.Errorf("recovered %d docs, want 1", r.Len())
	}
}

// TestBackgroundCheckpointer: with a short period, dirty shards are
// checkpointed and their WALs truncated without any explicit Save.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedWithIndex(dir, 2, 64, IndexConfig{}, PersistConfig{CheckpointEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range persistDocs {
		if _, err := s.Add(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.PersistStats()
		if st.Checkpoints > 0 && st.WALRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never drained the WAL: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.crash()
	r := openTestStore(t, dir, 2)
	defer r.Close()
	if r.Len() != len(persistDocs) {
		t.Fatalf("recovered %d docs from background checkpoint, want %d", r.Len(), len(persistDocs))
	}
	if st := r.PersistStats(); st.ReplayedRecords != 0 {
		t.Errorf("replayed %d records, want 0 (all state in checkpoint)", st.ReplayedRecords)
	}
}

// TestAddBulkDurable: bulk writes journal through the same WAL path
// and survive a crash; IDs come back in input order and unique.
func TestAddBulkDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	ids, err := s.AddBulk(persistDocs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(persistDocs) {
		t.Fatalf("got %d ids, want %d", len(ids), len(persistDocs))
	}
	seen := map[int64]bool{}
	for i, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		doc, err := s.Get(id)
		if err != nil {
			t.Fatalf("get %d: %v", id, err)
		}
		if doc.Text != persistDocs[i] {
			t.Errorf("id %d text = %q, want %q", id, doc.Text, persistDocs[i])
		}
	}
	want := searchAll(t, s)
	s.crash()
	r := openTestStore(t, dir, 4)
	defer r.Close()
	if r.Len() != len(persistDocs) {
		t.Fatalf("recovered %d docs after bulk ingest, want %d", r.Len(), len(persistDocs))
	}
	if got := searchAll(t, r); !reflect.DeepEqual(got, want) {
		t.Errorf("bulk-ingested search diverged after recovery")
	}
}

// TestTypedStoreErrors: misses surface as ErrNotFound so the HTTP
// layer can answer 404 instead of 500.
func TestTypedStoreErrors(t *testing.T) {
	s, err := NewShardedWithIndex(2, 32, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteContext(context.Background(), "", 12345); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete(absent) = %v, want ErrNotFound", err)
	}
	if _, err := s.Get(12345); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
	// Memory-only stores have no durable layer to save or close.
	if err := s.Save(); err == nil {
		t.Error("Save on memory-only store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close on memory-only store: %v", err)
	}
}

// TestConcurrentWritesWithCheckpoints: writers, deleters and
// checkpoints race; the recovered store matches the final live state.
// Run under -race this also proves the locking discipline.
func TestConcurrentWritesWithCheckpoints(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 4)
	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	idCh := make(chan int64, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, err := s.Add(fmt.Sprintf("writer %d document %d about store policy", w, i), nil)
				if err != nil {
					t.Error(err)
					return
				}
				idCh <- id
			}
		}(w)
	}
	// Checkpoint concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Save(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(idCh)
	// Delete a third of what was written.
	n := 0
	for id := range idCh {
		if n%3 == 0 {
			if err := s.DeleteContext(context.Background(), "", id); err != nil {
				t.Fatal(err)
			}
		}
		n++
	}
	wantLen := s.Len()
	s.crash()
	r := openTestStore(t, dir, 4)
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("recovered %d docs, want %d", r.Len(), wantLen)
	}
}

// TestSegmentedWALRecovery: tiny segments force rotation mid-traffic;
// replay must walk every segment in order.
func TestSegmentedWALRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShardedWithIndex(dir, 1, 64, IndexConfig{}, PersistConfig{
		CheckpointEvery: -1,
		SegmentBytes:    128,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Add(fmt.Sprintf("document %d about shop operations and staffing", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	s.crash()
	if segs := shardWALSegments(t, dir); len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	r, err := OpenShardedWithIndex(dir, 1, 64, IndexConfig{}, PersistConfig{CheckpointEvery: -1, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 30 {
		t.Fatalf("recovered %d docs across segments, want 30", r.Len())
	}
}

// TestFsyncPolicies: every policy journals records that survive a
// same-machine crash (fsync strength only matters for machine loss,
// which a unit test cannot simulate).
func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []storage.SyncPolicy{storage.SyncNever, storage.SyncAlways, storage.SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenShardedWithIndex(dir, 2, 64, IndexConfig{}, PersistConfig{
				CheckpointEvery: -1,
				Fsync:           policy,
				SyncEvery:       5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range persistDocs[:3] {
				if _, err := s.Add(d, nil); err != nil {
					t.Fatal(err)
				}
			}
			s.crash()
			r := openTestStore(t, dir, 2)
			defer r.Close()
			if r.Len() != 3 {
				t.Errorf("policy %v: recovered %d docs, want 3", policy, r.Len())
			}
		})
	}
}

// TestServerReopenAutoShards: serve.New with Shards=0 must adopt the
// stored shard count when reopening a data dir, even when the machine
// default differs — the auto value is resolved per-machine, the layout
// is not.
func TestServerReopenAutoShards(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 3) // a count no machine default would pick
	if _, err := s.Add(persistDocs[0], nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Detector: calibratedDetector(t), DataDir: dir, Dim: 64,
		Persist: PersistConfig{CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatalf("reopen with auto shards: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	if srv.Store().Shards() != 3 {
		t.Errorf("adopted %d shards, want 3", srv.Store().Shards())
	}
	if srv.Store().Len() != 1 {
		t.Errorf("recovered %d docs, want 1", srv.Store().Len())
	}
}

// TestAddOversizedMetaRejectedBeforeApply: a mutation the WAL could
// not journal faithfully is rejected with nothing applied.
func TestAddOversizedMetaRejectedBeforeApply(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 2)
	defer s.Close()
	bigKey := strings.Repeat("k", 1<<16)
	if _, err := s.Add("text", map[string]string{bigKey: "v"}); err == nil {
		t.Fatal("oversized meta key accepted")
	}
	if s.Len() != 0 {
		t.Errorf("rejected add left %d docs applied", s.Len())
	}
	if st := s.PersistStats(); st.AppendedRecords != 0 {
		t.Errorf("rejected add journaled %d records", st.AppendedRecords)
	}
}

// TestFailedJournalRestoresReplacedDocument: a replacing add whose
// journal fails puts the previously acked document back. The WAL still
// holds that document, so a hole in memory would disagree with disk
// until a restart filled it back in.
func TestFailedJournalRestoresReplacedDocument(t *testing.T) {
	s := openResyncStore(t, t.TempDir())
	orig := vecdb.Mutation{Op: vecdb.OpAdd, ID: 5, Text: "The store opens at nine.", Meta: map[string]string{"src": "hb"}}
	if err := s.ApplyAll([]vecdb.Mutation{orig}); err != nil {
		t.Fatal(err)
	}
	want, err := s.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	sum, seq := s.Checksum(), s.Seq()
	s.persist.shards[0].wal.Close()
	err = s.ApplyAll([]vecdb.Mutation{
		{Op: vecdb.OpAdd, ID: 5, Text: "The store opens at ten.", Meta: map[string]string{"src": "memo"}},
		{Op: vecdb.OpAdd, ID: 6, Text: "A new document."},
	})
	if err == nil || !strings.Contains(err.Error(), "wal closed") {
		t.Fatalf("replace after WAL close: err = %v, want a journal error", err)
	}
	if got, err := s.Get(5); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("Get(5) after failed replace = %+v, %v; want %+v", got, err, want)
	}
	if _, err := s.Get(6); !errors.Is(err, vecdb.ErrNotFound) {
		t.Errorf("Get(6) after failed batch: err = %v, want ErrNotFound", err)
	}
	if s.Checksum() != sum || s.Seq() != seq {
		t.Errorf("checksum %016x seq %d after failed batch, want %016x seq %d", s.Checksum(), s.Seq(), sum, seq)
	}
}

// TestSaveAttemptsEveryShard: Save checkpoints shards concurrently,
// yet a failing shard neither stops the others nor changes which
// error comes back — the lowest-numbered failing shard's, every time.
// A directory squatting on a shard's checkpoint path makes the rename
// that publishes its snapshot fail.
func TestSaveAttemptsEveryShard(t *testing.T) {
	for run := 0; run < 5; run++ {
		dir := t.TempDir()
		s := openTestStore(t, dir, 4)
		for i := 0; i < 64; i++ {
			if _, err := s.Add(fmt.Sprintf("document %d about store policy", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range []int{1, 3} {
			squat := filepath.Join(dir, shardDirName(i), checkpointFile)
			if err := os.MkdirAll(filepath.Join(squat, "keep"), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, ds := range s.persist.shards {
			if ds.wal.Records() == 0 {
				t.Fatalf("shard %d got no writes; the test needs all four dirty", i)
			}
		}
		err := s.Save()
		if err == nil || !strings.Contains(err.Error(), shardDirName(1)) {
			t.Fatalf("Save = %v, want shard 1's checkpoint error", err)
		}
		for i, ds := range s.persist.shards {
			clean := ds.wal.Records() == 0
			if want := i%2 == 0; clean != want {
				t.Fatalf("shard %d checkpointed = %v, want %v", i, clean, want)
			}
		}
		s.CloseNoCheckpoint()
	}
}
