package vecdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite testdata/*_golden.json from the code under test")

const metaGoldenFile = "testdata/meta_golden.json"

// metaShape draws one of the metadata shapes the golden script writes:
// nil, empty non-nil, one tag out of three values, three keys with
// repeated values, and a value unique to the write.
func metaShape(src *rng.Source, id int64) map[string]string {
	switch src.Intn(5) {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	case 2:
		return map[string]string{"tag": fmt.Sprintf("t%d", src.Intn(3))}
	case 3:
		return map[string]string{"src": "handbook", "lang": "en", "tier": fmt.Sprint(src.Intn(2))}
	default:
		return map[string]string{"doc": fmt.Sprintf("u%d-%d", id, src.Intn(1<<30))}
	}
}

func metaText(src *rng.Source) string {
	var b strings.Builder
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&b, "w%d ", src.Intn(512))
	}
	return b.String()
}

func metaCollection(src *rng.Source) string {
	return []string{"", DefaultCollection, "acme"}[src.Intn(3)]
}

// metaGoldenFilters is the fixed filter set every golden step searches.
var metaGoldenFilters = []Filter{
	{},
	{Collection: "acme"},
	{Meta: map[string]string{"tag": "t1"}},
	{Collection: DefaultCollection, Meta: map[string]string{"tier": "0"}},
	{Meta: map[string]string{"lang": "en", "src": "handbook"}},
}

type metaGoldenState struct {
	Step     string `json:"step"`
	Checksum string `json:"checksum"`
	Len      int    `json:"len"`
}

type metaGoldenGet struct {
	Step    string            `json:"step"`
	Get     int64             `json:"get"`
	Missing bool              `json:"missing,omitempty"`
	Coll    string            `json:"coll,omitempty"`
	Text    string            `json:"text,omitempty"`
	Meta    map[string]string `json:"meta"`
}

type metaGoldenHit struct {
	ID    int64             `json:"id"`
	Score string            `json:"score"`
	Meta  map[string]string `json:"meta"`
}

type metaGoldenSearch struct {
	Step   string          `json:"step"`
	Filter int             `json:"filter"`
	Hits   []metaGoldenHit `json:"hits"`
}

// metaGoldenLines renders what one step left behind: the checksum, Get
// of every ID the script can touch (metadata nil-ness included), and
// SearchVectorFiltered under every fixed filter. k exceeds the corpus:
// hashed vectors tie often, and which tied rows a cut at k keeps
// depends on insertion order, which Load took from map order.
func metaGoldenLines(t *testing.T, db *DB, step string, query []float32) [][]byte {
	t.Helper()
	var recs []any
	recs = append(recs, metaGoldenState{Step: step, Checksum: fmt.Sprintf("%016x", db.Checksum()), Len: db.Len()})
	for id := int64(1); id <= 70; id++ {
		d, err := db.Get(id)
		switch {
		case errors.Is(err, ErrNotFound):
			recs = append(recs, metaGoldenGet{Step: step, Get: id, Missing: true})
		case err != nil:
			t.Fatal(err)
		default:
			recs = append(recs, metaGoldenGet{Step: step, Get: id, Coll: d.Collection, Text: d.Text, Meta: d.Meta})
		}
	}
	for fi, f := range metaGoldenFilters {
		hits, err := db.SearchVectorFiltered(query, 80, f)
		if err != nil {
			t.Fatal(err)
		}
		s := metaGoldenSearch{Step: step, Filter: fi, Hits: []metaGoldenHit{}}
		for _, h := range hits {
			s.Hits = append(s.Hits, metaGoldenHit{ID: h.ID, Score: fmt.Sprintf("%016x", math.Float64bits(h.Score)), Meta: h.Meta})
		}
		recs = append(recs, s)
	}
	lines := make([][]byte, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = b
	}
	return lines
}

// TestMetaGolden runs a seeded script through every write path — add,
// replace, delete, ApplyAll, ApplyResync, ApplySnapshot, SaveFile →
// LoadFile — over every metadata shape, and pins what each step leaves
// (checksum, Get, filtered search) to testdata/meta_golden.json, which
// was generated before documents shared metadata maps. After every
// step the metadata pool must hold exactly the live sets. `go test -run
// TestMetaGolden -update` rewrites the file.
func TestMetaGolden(t *testing.T) {
	src := rng.NewFromString("meta-intern-golden")
	db := newTestDB(t)
	query, err := db.Embedder().Embed(metaText(src))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	step := func(name string) {
		t.Helper()
		checkMetaPool(t, db)
		lines = append(lines, metaGoldenLines(t, db, name, query)...)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	doc := func(id int64) Document {
		return Document{ID: id, Collection: metaCollection(src), Text: metaText(src), Meta: metaShape(src, id)}
	}
	present := func() []Document {
		_, docs, err := db.SnapshotDocs()
		must(err)
		return docs
	}

	for id := int64(1); id <= 40; id++ {
		d := doc(id)
		switch id % 3 {
		case 0:
			_, err := db.Add(d.Text, d.Meta)
			must(err)
		case 1:
			_, err := db.AddIn(d.Collection, d.Text, d.Meta)
			must(err)
		default:
			must(db.AddDocument(d))
		}
	}
	step("add")

	for _, i := range src.Perm(40)[:12] {
		must(db.AddDocument(doc(int64(i + 1))))
	}
	step("replace")

	docs := present()
	for _, i := range src.Perm(len(docs))[:10] {
		if d := docs[i]; i%2 == 0 {
			must(db.Delete(d.ID))
		} else {
			must(db.DeleteIn(d.Collection, d.ID))
		}
	}
	step("delete")

	var ms []Mutation
	for i := 0; i < 10; i++ {
		d := doc(int64(30 + src.Intn(21)))
		ms = append(ms, Mutation{Op: OpAdd, ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: d.Meta})
	}
	docs = present()
	for _, i := range src.Perm(len(docs))[:4] {
		ms = append(ms, Mutation{Op: OpDelete, ID: docs[i].ID})
	}
	must(db.ApplyAll(ms))
	step("apply_all")

	var sms []SeqMutation
	for i := 0; i < 12; i++ {
		seq := uint64(100 + i)
		if i%3 == 2 {
			sms = append(sms, SeqMutation{Seq: seq, Mutation: Mutation{Op: OpDelete, ID: int64(1 + src.Intn(60))}})
			continue
		}
		d := doc(int64(35 + src.Intn(21)))
		sms = append(sms, SeqMutation{Seq: seq, Mutation: Mutation{Op: OpAdd, ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: d.Meta}})
	}
	must(db.ApplyResync(sms))
	step("apply_resync")

	var snap []Document
	for _, d := range present() {
		switch src.Intn(4) {
		case 0: // dropped
		case 1:
			d.Meta = metaShape(src, d.ID)
			snap = append(snap, d)
		default:
			snap = append(snap, d)
		}
	}
	for id := int64(61); id <= 66; id++ {
		snap = append(snap, doc(id))
	}
	must(db.ApplySnapshot(500, snap))
	step("apply_snapshot")

	path := filepath.Join(t.TempDir(), "meta.snap")
	must(db.SaveFile(path))
	e, err := NewHashedEmbedder(64)
	must(err)
	x, err := NewFlatIndex(Cosine, 64)
	must(err)
	db, err = LoadFile(path, e, x)
	must(err)
	step("save_load")

	for id := int64(67); id <= 70; id++ {
		must(db.AddDocument(doc(id)))
	}
	for _, i := range src.Perm(66)[:6] {
		must(db.AddDocument(doc(int64(i + 1))))
	}
	step("write_after_load")

	for _, d := range present() {
		must(db.Delete(d.ID))
	}
	step("delete_all")

	out := append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
	if *update {
		must(os.WriteFile(metaGoldenFile, out, 0o644))
		return
	}
	want, err := os.ReadFile(metaGoldenFile)
	must(err)
	if bytes.Equal(out, want) {
		return
	}
	wantLines := bytes.Split(want, []byte("\n"))
	for i, l := range bytes.Split(out, []byte("\n")) {
		if i >= len(wantLines) || !bytes.Equal(l, wantLines[i]) {
			t.Fatalf("%s differs from the regenerated script at line %d:\n got %s", metaGoldenFile, i+1, l)
		}
	}
	t.Fatalf("%s has %d lines, the script %d", metaGoldenFile, len(wantLines), len(bytes.Split(out, []byte("\n"))))
}

// checkMetaPool holds the metadata pool to the documents: one entry per
// distinct live non-empty set, whose map every document carrying that
// set shares, and refcounts summing to the documents with non-empty
// metadata.
func checkMetaPool(t *testing.T, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	sets, withMeta := map[uint64]bool{}, 0
	for id, d := range db.docs {
		if len(d.Meta) == 0 {
			continue
		}
		withMeta++
		h := metaHash(d.Meta)
		sets[h] = true
		e, ok := db.metas[h]
		if !ok || reflect.ValueOf(e.meta).UnsafePointer() != reflect.ValueOf(d.Meta).UnsafePointer() {
			t.Fatalf("doc %d: metadata %v is not the pooled map", id, d.Meta)
		}
	}
	refs := 0
	for _, e := range db.metas {
		refs += e.refs
	}
	if len(db.metas) != len(sets) || refs != withMeta {
		t.Fatalf("pool holds %d sets with %d refs; %d distinct sets live on %d documents", len(db.metas), refs, len(sets), withMeta)
	}
}

// TestMetaInternCollision: a set whose hash is already pooled under
// different content is stored as a private copy that the pooled entry
// never counts — not while the other set holds the hash, and not after
// an equal set has since been pooled under it.
func TestMetaInternCollision(t *testing.T) {
	db := newTestDB(t)
	mine, theirs := map[string]string{"tag": "a"}, map[string]string{"tag": "b"}
	h := metaHash(mine)
	db.metas[h] = metaEntry{meta: theirs, refs: 1} // pretend "b" hashed to h
	add := func(id int64, text string) {
		t.Helper()
		if err := db.AddDocument(Document{ID: id, Text: text, Meta: mine}); err != nil {
			t.Fatal(err)
		}
		if e := db.metas[h]; len(db.metas) != 1 || e.refs != 1 {
			t.Fatalf("pool = %v after adding doc %d, want one entry with one ref", db.metas, id)
		}
	}
	add(1, "one")
	add(1, "one again")
	if d, err := db.Get(1); err != nil || !reflect.DeepEqual(d.Meta, mine) || !reflect.DeepEqual(db.metas[h].meta, theirs) {
		t.Fatalf("doc 1 meta = %v (%v), pool %v", d.Meta, err, db.metas)
	}
	// The planted set's last document leaves, so the next "a" is pooled;
	// dropping doc 1's private copy must not release that entry.
	delete(db.metas, h)
	add(2, "two")
	if err := db.Delete(1); err != nil {
		t.Fatal(err)
	}
	checkMetaPool(t, db)
}

// metaFuzzMeta decodes one metadata set from two bytes: nil, empty, or
// one to three keys over three values, so sets repeat often.
func metaFuzzMeta(shape, val byte, id int64) map[string]string {
	v := fmt.Sprint(val % 3)
	switch shape % 6 {
	case 0:
		return nil
	case 1:
		return map[string]string{}
	case 2:
		return map[string]string{"tag": v}
	case 3:
		return map[string]string{"tag": v, "lang": "en"}
	case 4:
		return map[string]string{"a": v, "b": fmt.Sprint(val / 3 % 2), "c": "x"}
	default:
		return map[string]string{"tag": v, "doc": fmt.Sprint(id)}
	}
}

// FuzzMetaInternMatchesReference decodes raw as 4-byte ops (op, id,
// metadata shape, value) and runs them on a DB and on a reference model
// that keeps its own copy of every map. After every op, Get must agree
// with the model on every ID (nil and empty metadata told apart), the
// checksum must be the XOR of docHash over the model, and the metadata
// pool must hold exactly the live sets. Callers' maps are scribbled on
// after every write. Seeds live in
// testdata/fuzz/FuzzMetaInternMatchesReference.
func FuzzMetaInternMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		const maxID, maxOps = 12, 64
		if len(raw) > 4*maxOps {
			raw = raw[:4*maxOps]
		}
		db, err := NewDefault(16)
		if err != nil {
			t.Fatal(err)
		}
		model := map[int64]Document{}
		put := func(d Document) {
			d.Collection = NormalizeCollection(d.Collection)
			d.Meta = copyMeta(d.Meta)
			model[d.ID] = d
		}
		var seq uint64
		for b := raw; len(b) >= 4; b = b[4:] {
			id := int64(b[1]%maxID) + 1
			meta := metaFuzzMeta(b[2], b[3], id)
			d := Document{ID: id, Collection: []string{"", DefaultCollection, "acme", "globex"}[b[3]>>6], Text: fmt.Sprintf("doc %d rev %d", id, b[3]), Meta: meta}
			var err error
			switch b[0] % 7 {
			case 0:
				err = db.AddDocument(d)
				put(d)
			case 1:
				err = db.Delete(id)
				if _, ok := model[id]; !ok {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("delete of absent %d: %v", id, err)
					}
					err = nil
				}
				delete(model, id)
			case 2:
				err = db.DeleteIn(d.Collection, id)
				if old, ok := model[id]; !ok || (d.Collection != "" && old.Collection != NormalizeCollection(d.Collection)) {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("checked delete of %d in %q: %v", id, d.Collection, err)
					}
					err = nil
				} else {
					delete(model, id)
				}
			case 3: // two documents sharing one set in one batch
				next := Document{ID: id%maxID + 1, Collection: d.Collection, Text: d.Text + " next", Meta: meta}
				err = db.ApplyAll([]Mutation{
					{Op: OpAdd, ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: meta},
					{Op: OpAdd, ID: next.ID, Collection: next.Collection, Text: next.Text, Meta: meta},
				})
				put(d)
				put(next)
			case 4: // an upsert, then a delete the target may never have seen
				gone := id%maxID + 1
				seq += 2
				err = db.ApplyResync([]SeqMutation{
					{Seq: seq - 1, Mutation: Mutation{Op: OpAdd, ID: d.ID, Collection: d.Collection, Text: d.Text, Meta: meta}},
					{Seq: seq, Mutation: Mutation{Op: OpDelete, ID: gone}},
				})
				put(d)
				delete(model, gone)
			case 5: // a snapshot keeping every other document, plus d
				var snap []Document
				for _, m := range model {
					if (m.ID+int64(b[3]))%2 == 0 {
						snap = append(snap, m)
					}
				}
				snap = append(snap, d)
				model = map[int64]Document{}
				for _, m := range snap {
					put(m)
				}
				seq++
				err = db.ApplySnapshot(seq, snap)
			default:
				var buf bytes.Buffer
				if err = db.Save(&buf); err == nil {
					e, _ := NewHashedEmbedder(16)
					x, _ := NewFlatIndex(Cosine, 16)
					db, err = Load(&buf, e, x)
				}
			}
			if err != nil {
				t.Fatalf("op %d on doc %d: %v", b[0]%7, id, err)
			}
			if meta != nil {
				meta["scribble"] = "caller's own map"
			}

			var want uint64
			for _, m := range model {
				want ^= docHash(m)
			}
			if got := db.Checksum(); got != want || db.Len() != len(model) {
				t.Fatalf("checksum %016x over %d docs, model %016x over %d", got, db.Len(), want, len(model))
			}
			for id := int64(1); id <= maxID; id++ {
				got, err := db.Get(id)
				want, ok := model[id]
				if !ok {
					if !errors.Is(err, ErrNotFound) {
						t.Fatalf("Get(%d) = %+v, %v; model has no such doc", id, got, err)
					}
					continue
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("Get(%d) = %+v, %v; model %+v", id, got, err, want)
				}
			}
			checkMetaPool(t, db)
		}
	})
}
