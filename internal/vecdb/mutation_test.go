package vecdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustEncode(t *testing.T, m Mutation) []byte {
	t.Helper()
	b, err := EncodeMutation(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMutationCodecRoundtrip(t *testing.T) {
	cases := []Mutation{
		{Op: OpAdd, ID: 1, Text: "plain add"},
		{Op: OpAdd, ID: 1 << 40, Text: "", Meta: map[string]string{"": ""}},
		{Op: OpAdd, ID: 7, Text: "with meta", Meta: map[string]string{"source": "handbook", "lang": "en"}},
		{Op: OpDelete, ID: 42},
	}
	for _, want := range cases {
		buf, err := EncodeMutation(want)
		if err != nil {
			t.Fatalf("encode(%+v): %v", want, err)
		}
		got, err := DecodeMutation(buf)
		if err != nil {
			t.Fatalf("decode(%+v): %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("roundtrip = %+v, want %+v", got, want)
		}
	}
}

// TestEncodeMutationRejectsOverflow: fields too large for their length
// prefixes are rejected at encode time — a truncated prefix would
// produce a record that bricks recovery on every boot.
func TestEncodeMutationRejectsOverflow(t *testing.T) {
	bigKey := strings.Repeat("k", 1<<16)
	if _, err := EncodeMutation(Mutation{Op: OpAdd, ID: 1, Text: "t", Meta: map[string]string{bigKey: "v"}}); err == nil {
		t.Error("oversized meta key encoded without error")
	}
	bigMeta := make(map[string]string, 1<<16+1)
	for i := 0; i <= 1<<16; i++ {
		bigMeta[fmt.Sprintf("k%d", i)] = ""
	}
	if _, err := EncodeMutation(Mutation{Op: OpAdd, ID: 1, Text: "t", Meta: bigMeta}); err == nil {
		t.Error("oversized meta map encoded without error")
	}
}

func TestMutationDecodeRejectsGarbage(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":          nil,
		"short":          {byte(OpAdd), 1, 0, 0},
		"unknown op":     append([]byte{0xee}, make([]byte, 8)...),
		"truncated text": append([]byte{byte(OpAdd)}, make([]byte, 8+4)...),
		"trailing junk":  append(mustEncode(t, Mutation{Op: OpDelete, ID: 3}), 0xff),
	} {
		if _, err := DecodeMutation(b); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
}

// TestApplyReplayEquivalence: replaying a journal of mutations into a
// fresh DB reproduces documents, search results and the ID counter.
func TestApplyReplayEquivalence(t *testing.T) {
	live := newTestDB(t)
	var journal []Mutation
	record := func(m Mutation) {
		if err := live.Apply(m); err != nil {
			t.Fatalf("apply %+v: %v", m, err)
		}
		journal = append(journal, m)
	}
	record(Mutation{Op: OpAdd, ID: 1, Text: "the store opens at nine", Meta: map[string]string{"k": "v"}})
	record(Mutation{Op: OpAdd, ID: 2, Text: "employees get fourteen days of leave"})
	record(Mutation{Op: OpAdd, ID: 3, Text: "three shopkeepers run a shop"})
	record(Mutation{Op: OpDelete, ID: 2})
	record(Mutation{Op: OpAdd, ID: 9, Text: "the store closes at five"})

	replayed := newTestDB(t)
	for _, m := range journal {
		if err := replayed.Apply(m); err != nil {
			t.Fatalf("replay %+v: %v", m, err)
		}
	}
	assertDBsEqual(t, live, replayed, "Apply")

	// ApplyAll must land in the same state as one-at-a-time Apply.
	batched := newTestDB(t)
	if err := batched.ApplyAll(journal); err != nil {
		t.Fatalf("ApplyAll: %v", err)
	}
	assertDBsEqual(t, live, batched, "ApplyAll")
}

func assertDBsEqual(t *testing.T, want, got *DB, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: len %d, want %d", label, got.Len(), want.Len())
	}
	if want.NextID() != got.NextID() {
		t.Errorf("%s: nextID %d, want %d", label, got.NextID(), want.NextID())
	}
	wh, err := want.Search("when does the store open", 5)
	if err != nil {
		t.Fatal(err)
	}
	gh, err := got.Search("when does the store open", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wh, gh) {
		t.Errorf("%s: search diverged:\n got %+v\nwant %+v", label, gh, wh)
	}
}

func TestApplyAllRejectsBadMutations(t *testing.T) {
	db := newTestDB(t)
	if err := db.ApplyAll([]Mutation{{Op: OpAdd, ID: 0, Text: "zero id"}}); err == nil {
		t.Error("ApplyAll accepted ID 0")
	}
	if err := db.ApplyAll([]Mutation{{Op: 99, ID: 1}}); err == nil {
		t.Error("ApplyAll accepted unknown op")
	}
	if err := db.ApplyAll([]Mutation{{Op: OpDelete, ID: 5}}); !errors.Is(err, ErrNotFound) {
		t.Errorf("delete of absent ID: err = %v, want ErrNotFound", err)
	}
}

// TestCheckpointFileRoundtrip: SaveFile/LoadFile go through the framed
// storage codec and land in an identical DB.
func TestCheckpointFileRoundtrip(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Add("the store operates nine to five", map[string]string{"src": "hb"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Add("fourteen days of paid annual leave", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.snap")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := NewHashedEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewFlatIndex(Cosine, 64)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadFile(path, e, x)
	if err != nil {
		t.Fatal(err)
	}
	assertDBsEqual(t, db, restored, "checkpoint")
}

// TestEncodeMutationDeterministic: a multi-key mutation encodes to one
// byte sequence every time, and still round-trips.
func TestEncodeMutationDeterministic(t *testing.T) {
	m := Mutation{Op: OpAdd, ID: 11, Collection: "acme", Text: "five keys", Meta: map[string]string{
		"source": "handbook", "lang": "en", "tier": "1", "owner": "hr", "": "empty key",
	}}
	want := mustEncode(t, m)
	for i := 0; i < 50; i++ {
		if got := mustEncode(t, m); !bytes.Equal(got, want) {
			t.Fatalf("encode %d differs:\n got %x\nwant %x", i, got, want)
		}
	}
	got, err := DecodeMutation(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("roundtrip = %+v, want %+v", got, m)
	}
}

// TestSaveFileDeterministic: one document set checkpoints to one byte
// sequence, whatever order its metadata maps iterate in.
func TestSaveFileDeterministic(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 64; i++ {
		var meta map[string]string
		switch i % 4 {
		case 0:
			meta = map[string]string{"tag": fmt.Sprint(i % 5), "lang": "en"}
		case 1:
			meta = map[string]string{"tag": fmt.Sprint(i % 3), "src": "handbook", "tier": fmt.Sprint(i % 2)}
		case 2:
			meta = map[string]string{"a": "1", "b": "2", "c": "3", "d": fmt.Sprint(i)}
		}
		if _, err := db.AddIn([]string{"", "acme"}[i%2], fmt.Sprintf("passage %d about leave", i), meta); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("%d.snap", i))
		if err := db.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("two checkpoints of one document set differ")
	}
}
