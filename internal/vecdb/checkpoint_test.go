package vecdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// checkpointFixture builds the state testdata/checkpoint_v1.snap holds:
// documents in both collections; nil, empty and multi-key metadata (one
// set shared across collections); a replaced document; the highest ID
// deleted, so NextID lies past every stored ID; and a seq advanced by
// the journaled write path. The file was written by SaveFile when the
// checkpoint payload was version 1 (gob), from exactly this state.
func checkpointFixture(t testing.TB) *DB {
	t.Helper()
	db, err := NewDefault(64)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]string{"tag": "catalog", "lang": "en", "tier": "1"}
	ms := []Mutation{
		{Op: OpAdd, ID: 1, Text: "The store operates from nine in the morning until five."},
		{Op: OpAdd, ID: 2, Text: "Employees are entitled to fourteen days of annual leave.", Meta: map[string]string{}},
		{Op: OpAdd, ID: 3, Collection: "acme", Text: "Acme anvils ship in crates.", Meta: catalog},
		{Op: OpAdd, ID: 4, Collection: "acme", Text: "Acme rockets ship by freight.", Meta: map[string]string{}},
		{Op: OpAdd, ID: 5, Collection: DefaultCollection, Text: "The probation period lasts three months.", Meta: map[string]string{"src": "handbook", "lang": "en"}},
		{Op: OpAdd, ID: 6, Collection: "acme", Text: "Acme returns are accepted for thirty days.", Meta: map[string]string{"tag": "policy", "lang": "en"}},
		{Op: OpAdd, ID: 7, Text: "Uniforms must be worn at all times on the shop floor.", Meta: catalog},
		{Op: OpAdd, ID: 5, Text: "Probation lasts three months for new employees.", Meta: map[string]string{"src": "handbook", "lang": "en", "rev": "2"}},
		{Op: OpAdd, ID: 8, Text: "Overtime is paid at one and a half times the hourly rate.", Meta: catalog},
		{Op: OpDelete, ID: 8},
	}
	if err := db.ApplyAll(ms); err != nil {
		t.Fatal(err)
	}
	return db
}

// loadCheckpoint reads a checkpoint file into a fresh 64-dim DB.
func loadCheckpoint(t testing.TB, path string) *DB {
	t.Helper()
	e, err := NewHashedEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewFlatIndex(Cosine, 64)
	if err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(path, e, x)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// assertSameState compares everything a checkpoint carries: length,
// NextID, checksum, seq, per-collection counts and every document, nil
// metadata told apart from empty. Search results are left out: rows
// tied on score come back in insertion order, which a checkpoint does
// not keep.
func assertSameState(t *testing.T, want, got *DB, label string) {
	t.Helper()
	if w, g := want.Len(), got.Len(); w != g {
		t.Errorf("%s: len %d, want %d", label, g, w)
	}
	if w, g := want.NextID(), got.NextID(); w != g {
		t.Errorf("%s: nextID %d, want %d", label, g, w)
	}
	if w, g := want.Checksum(), got.Checksum(); w != g {
		t.Errorf("%s: checksum %016x, want %016x", label, g, w)
	}
	if w, g := want.Seq(), got.Seq(); w != g {
		t.Errorf("%s: seq %d, want %d", label, g, w)
	}
	if w, g := want.CollectionCounts(), got.CollectionCounts(); !reflect.DeepEqual(w, g) {
		t.Errorf("%s: collections %v, want %v", label, g, w)
	}
	for id := int64(1); id <= want.NextID(); id++ {
		w, werr := want.Get(id)
		g, gerr := got.Get(id)
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(w, g) {
			t.Errorf("%s: Get(%d) = %#v, %v; want %#v, %v", label, id, g, gerr, w, werr)
		}
	}
}

// TestLoadFileV1Checkpoint: a checkpoint written with the version-1
// (gob) payload still restores exactly, and re-saving it with the
// current payload reloads to the same state.
func TestLoadFileV1Checkpoint(t *testing.T) {
	want := checkpointFixture(t)
	if want.Seq() == 0 || want.NextID() != 9 {
		t.Fatalf("fixture lost its shape: seq %d, nextID %d", want.Seq(), want.NextID())
	}
	v1 := loadCheckpoint(t, filepath.Join("testdata", "checkpoint_v1.snap"))
	assertSameState(t, want, v1, "v1 file")

	path := filepath.Join(t.TempDir(), "resaved.snap")
	if err := v1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, want, loadCheckpoint(t, path), "v1 re-saved")
	// The metadata shapes the fixture exists for: nil, empty in both
	// collections, and multi-key.
	for id, meta := range map[int64]map[string]string{
		1: nil,
		2: {},
		4: {},
		7: {"tag": "catalog", "lang": "en", "tier": "1"},
	} {
		if d, err := v1.Get(id); err != nil || !reflect.DeepEqual(d.Meta, meta) {
			t.Errorf("Get(%d).Meta = %#v (%v), want %#v", id, d.Meta, err, meta)
		}
	}
}

// TestSaveAllocationsFlat: Save allocates the same number of times for
// 1 000 documents as for 4 000 (gob made about two allocations per
// document, most of them growing one buffer that held the whole
// payload).
func TestSaveAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		db, err := NewDefault(16)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			var meta map[string]string
			switch i % 4 {
			case 1:
				meta = map[string]string{}
			case 2:
				meta = map[string]string{"tag": fmt.Sprint(i % 10)}
			case 3:
				meta = map[string]string{"tag": fmt.Sprint(i % 10), "lang": "en", "src": fmt.Sprint(i % 3)}
			}
			if _, err := db.AddIn([]string{"", "acme"}[i%2], fmt.Sprintf("passage %d about annual leave", i), meta); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := db.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(4000); small != large {
		t.Errorf("Save made %v allocations for 1000 documents, %v for 4000", small, large)
	}
}

// checkpointSeeds are payloads the fuzzer starts from: a real one, and
// ones whose count or length prefixes claim far more than they hold.
func checkpointSeeds(t testing.TB) [][]byte {
	var real bytes.Buffer
	if err := checkpointFixture(t).Save(&real); err != nil {
		t.Fatal(err)
	}
	header := func(count uint64) []byte {
		b := binary.LittleEndian.AppendUint64(nil, 9)
		b = binary.LittleEndian.AppendUint64(b, 3)
		return binary.LittleEndian.AppendUint64(b, count)
	}
	hugeRecord := append(binary.AppendUvarint(header(1), 1<<40), make([]byte, minRecord)...)
	hugeText := append(binary.AppendUvarint(header(1), 15), 0, byte(OpAdd), 1, 0, 0, 0, 0, 0, 0, 0)
	hugeText = append(hugeText, 0xff, 0xff, 0xff, 0x7f, 0, 0)
	hugeMeta := append(binary.AppendUvarint(header(1), 22), 0, byte(OpAdd), 1, 0, 0, 0, 0, 0, 0, 0)
	hugeMeta = append(hugeMeta, 0, 0, 0, 0, 0xff, 0xff, 1, 0, 'k', 0, 0, 0, 0)
	return [][]byte{real.Bytes(), header(1 << 62), hugeRecord, hugeText, hugeMeta, {}}
}

// FuzzCheckpointPayload: Load never panics on an arbitrary payload, and
// never allocates more than a small multiple of what the payload holds,
// whatever its count and length prefixes claim. A DB built from the
// same bytes (documents in both collections, nil, empty and multi-key
// metadata, replacements, deletes, an arbitrary seq) saves, loads back
// to the same state, and saves again to the same bytes.
func FuzzCheckpointPayload(f *testing.F) {
	for _, seed := range checkpointSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		e, _ := NewHashedEmbedder(16)
		x, _ := NewFlatIndex(Cosine, 16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Load(bytes.NewReader(raw), e, x)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(raw)); grew > limit {
			t.Fatalf("Load of %d bytes allocated %d, limit %d", len(raw), grew, limit)
		}

		db, err := NewDefault(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		for b := raw; len(b) >= 4; b = b[4:] {
			id := int64(b[0]%24) + 1
			if b[1]%8 == 0 {
				db.Delete(id)
				continue
			}
			var meta map[string]string
			switch b[2] % 4 {
			case 1:
				meta = map[string]string{}
			case 2:
				meta = map[string]string{string(b[3:4]): string(b[:2])}
			case 3:
				meta = map[string]string{"tag": fmt.Sprint(b[3] % 5), "": string(b[1:3]), "lang": "en", string(b[3:4]): "x"}
			}
			coll := []string{"", DefaultCollection, "acme", string(b[1:4])}[b[1]%4]
			if err := db.AddDocument(Document{ID: id, Collection: coll, Text: string(b), Meta: meta}); err != nil {
				t.Fatal(err)
			}
		}
		if len(raw) >= 8 {
			db.SetSeq(binary.LittleEndian.Uint64(raw))
		}
		var first bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatal(err)
		}
		saved := bytes.Clone(first.Bytes())
		e, _ = NewHashedEmbedder(16)
		x, _ = NewFlatIndex(Cosine, 16)
		got, err := Load(&first, e, x)
		if err != nil {
			t.Fatalf("load of a saved DB: %v", err)
		}
		assertSameState(t, db, got, "round trip")
		var second bytes.Buffer
		if err := got.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, second.Bytes()) {
			t.Errorf("re-save differs:\n got %x\nwant %x", second.Bytes(), saved)
		}
	})
}
