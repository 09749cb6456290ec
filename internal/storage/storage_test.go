package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect replays w into a slice of payload copies.
func collect(t *testing.T, w *WAL) [][]byte {
	t.Helper()
	var got [][]byte
	n, err := w.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("replay count %d, callbacks %d", n, len(got))
	}
	return got
}

func TestWALAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte(""), bytes.Repeat([]byte("x"), 3000)}
	for _, p := range want {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, w); len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: all records survive, counters restored, appends continue.
	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Records() != uint64(len(want)) {
		t.Errorf("Records() = %d, want %d", w2.Records(), len(want))
	}
	got := collect(t, w2)
	for i, p := range want {
		if !bytes.Equal(got[i], p) {
			t.Errorf("record %d = %q, want %q", i, got[i], p)
		}
	}
	if err := w2.Append([]byte("four")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w2); len(got) != 4 || string(got[3]) != "four" {
		t.Errorf("after reopen+append, replay = %q", got)
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range ents {
		if _, ok := segmentSeq(e.Name()); ok {
			last = filepath.Join(dir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no segment files")
	}
	return last
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop 3 bytes off the segment, as a crash
	// mid-write would.
	seg := lastSegment(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer w2.Close()
	got := collect(t, w2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	// The log must accept appends cleanly after truncation.
	if err := w2.Append([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w2); len(got) != 5 || string(got[4]) != "post-crash" {
		t.Errorf("post-truncate replay = %q", got)
	}
}

func TestWALCorruptCRCTruncated(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the LAST record's payload: the log keeps the
	// clean prefix and drops the damaged tail.
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("open over corrupt crc: %v", err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != 2 {
		t.Fatalf("replayed %d records after crc corruption, want 2", len(got))
	}
}

func TestWALCorruptionBeforeTailIsFatal(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force one record per segment.
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage the FIRST segment — not a tail, so truncation would lose
	// acknowledged records silently. Open must refuse.
	ents, _ := os.ReadDir(dir)
	first := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeader+4] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(dir, WALOptions{SegmentBytes: 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte('0' + i%10)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", len(ents))
	}
	if got := collect(t, w); len(got) != n {
		t.Fatalf("replay across segments = %d records, want %d", len(got), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != n {
		t.Fatalf("replay after reopen = %d records, want %d", len(got), n)
	}
}

func TestWALTruncateDropsRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte("checkpointed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 || w.Size() != 0 {
		t.Errorf("after truncate: records=%d size=%d", w.Records(), w.Size())
	}
	if got := collect(t, w); len(got) != 0 {
		t.Fatalf("replay after truncate = %d records, want 0", len(got))
	}
	if err := w.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, w); len(got) != 1 || string(got[0]) != "fresh" {
		t.Errorf("replay after truncate+append = %q", got)
	}
}

func TestWALConcurrentAppendRaceClean(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := collect(t, w); len(got) != 400 {
		t.Fatalf("replayed %d records, want 400", len(got))
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	payload := []byte("hello snapshot payload")
	if err := WriteSnapshot(path, 7, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := ReadSnapshot(path, 7, func(r io.Reader) error {
		b, err := io.ReadAll(r)
		got = b
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}

	// Wrong version is typed.
	if err := ReadSnapshot(path, 8, func(io.Reader) error { return nil }); !errors.Is(err, ErrSnapshotVersion) {
		t.Errorf("version mismatch err = %v, want ErrSnapshotVersion", err)
	}

	// Corrupt payload byte → ErrBadSnapshot, decoder never runs.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[snapshotHeader] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = ReadSnapshot(path, 7, func(io.Reader) error {
		t.Error("decoder ran on corrupt snapshot")
		return nil
	})
	if !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("corrupt snapshot err = %v, want ErrBadSnapshot", err)
	}

	// Truncated file (shorter than header+trailer) → ErrBadSnapshot.
	if err := os.WriteFile(path, data[:6], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadSnapshot(path, 7, func(io.Reader) error { return nil }); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("short snapshot err = %v, want ErrBadSnapshot", err)
	}

	// Missing file surfaces as not-exist so callers can cold-start.
	if err := ReadSnapshot(filepath.Join(t.TempDir(), "missing.snap"), 7, nil); !os.IsNotExist(err) {
		t.Errorf("missing snapshot err = %v, want not-exist", err)
	}
}

func TestSnapshotAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	for gen := 0; gen < 3; gen++ {
		want := fmt.Sprintf("generation-%d", gen)
		if err := WriteSnapshot(path, 1, func(w io.Writer) error {
			_, err := io.WriteString(w, want)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		var got []byte
		if err := ReadSnapshot(path, 1, func(r io.Reader) error {
			b, err := io.ReadAll(r)
			got = b
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("gen %d: payload = %q, want %q", gen, got, want)
		}
	}
	// No temp litter left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory has %d entries after rewrites, want 1", len(ents))
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncNever, "never": SyncNever, "always": SyncAlways, "interval": SyncInterval,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Error("ParseSyncPolicy(bogus) succeeded")
	}
}

// TestWALAppendBatchFraming: however a batch is split into writes —
// one buffer for small records, a payload over walWriteCap written
// from the caller's slice — the segment holds exactly the records'
// [len][crc][payload] frames back to back, and they replay in order.
func TestWALAppendBatchFraming(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fill := func(n int, c byte) []byte { return bytes.Repeat([]byte{c}, n) }
	batches := [][][]byte{
		{[]byte("a"), {}, []byte("hello")},
		{fill(walWriteCap-recordHeader, 'x')},                // exactly fills the buffer
		{[]byte("b"), fill(walWriteCap+1, 'y'), []byte("c")}, // straight from the slice
		{fill(walWriteCap/2, 'z'), fill(walWriteCap/2, 'w'), []byte("d")},
	}
	var want bytes.Buffer
	var all [][]byte
	for _, batch := range batches {
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, p := range batch {
			var hdr [recordHeader]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(p))
			want.Write(hdr[:])
			want.Write(p)
			all = append(all, p)
		}
	}
	if got := w.Size(); got != int64(want.Len()) {
		t.Fatalf("Size = %d, want %d", got, want.Len())
	}
	if got := w.Records(); got != uint64(len(all)) {
		t.Fatalf("Records = %d, want %d", got, len(all))
	}
	seg, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, want.Bytes()) {
		t.Fatalf("segment holds %d bytes that differ from the %d framed", len(seg), want.Len())
	}
	got := collect(t, w)
	if len(got) != len(all) {
		t.Fatalf("replayed %d records, want %d", len(got), len(all))
	}
	for i := range all {
		if !bytes.Equal(got[i], all[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
	w.Close()
}
