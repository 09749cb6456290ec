package vecdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestSimilarityMetrics(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	c := []float32{2, 0}

	if s, _ := Similarity(Cosine, a, a); math.Abs(s-1) > 1e-9 {
		t.Errorf("cos(a,a) = %v", s)
	}
	if s, _ := Similarity(Cosine, a, b); math.Abs(s) > 1e-9 {
		t.Errorf("cos(a,b) = %v", s)
	}
	if s, _ := Similarity(Cosine, a, c); math.Abs(s-1) > 1e-9 {
		t.Errorf("cosine must be scale invariant: %v", s)
	}
	if s, _ := Similarity(Dot, a, c); s != 2 {
		t.Errorf("dot = %v", s)
	}
	if s, _ := Similarity(L2, a, c); s != -1 {
		t.Errorf("L2 score = %v, want -1 (negated squared distance)", s)
	}
	if _, err := Similarity(Cosine, a, []float32{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim mismatch err = %v", err)
	}
	// Zero vector: cosine degrades to 0, no NaN.
	if s, _ := Similarity(Cosine, []float32{0, 0}, a); s != 0 {
		t.Errorf("cos(0,a) = %v", s)
	}
}

func TestNormalizeInPlace(t *testing.T) {
	v := []float32{3, 4}
	NormalizeInPlace(v)
	if math.Abs(norm(v)-1) > 1e-6 {
		t.Errorf("norm after normalize = %v", norm(v))
	}
	z := []float32{0, 0}
	NormalizeInPlace(z)
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector mutated")
	}
}

func TestHashedEmbedder(t *testing.T) {
	e, err := NewHashedEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 64 {
		t.Errorf("Dim = %d", e.Dim())
	}
	a, _ := e.Embed("annual leave policy for employees")
	b, _ := e.Embed("annual leave policy for employees")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	// Related text closer than unrelated text.
	c, _ := e.Embed("employees annual leave days")
	d, _ := e.Embed("margherita pizza ingredients basil")
	sc, _ := Similarity(Cosine, a, c)
	sd, _ := Similarity(Cosine, a, d)
	if sc <= sd {
		t.Errorf("related %v not above unrelated %v", sc, sd)
	}
	if _, err := NewHashedEmbedder(0); err == nil {
		t.Error("zero dim accepted")
	}
}

func newFlat(t *testing.T, dim int) *FlatIndex {
	t.Helper()
	x, err := NewFlatIndex(Cosine, dim)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestFlatIndexBasic(t *testing.T) {
	x := newFlat(t, 2)
	vecs := map[int64][]float32{
		1: {1, 0}, 2: {0, 1}, 3: {0.9, 0.1},
	}
	for id, v := range vecs {
		if err := x.Add(id, v); err != nil {
			t.Fatal(err)
		}
	}
	if x.Len() != 3 {
		t.Fatalf("Len = %d", x.Len())
	}
	res, err := x.Search([]float32{1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 3 {
		t.Errorf("results = %+v, want ids 1,3", res)
	}
	// k larger than index size returns everything.
	res, _ = x.Search([]float32{1, 0}, 10)
	if len(res) != 3 {
		t.Errorf("oversized k returned %d", len(res))
	}
	// Descending score order.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("results not sorted")
		}
	}
}

func TestFlatIndexErrors(t *testing.T) {
	x := newFlat(t, 2)
	if err := x.Add(1, []float32{1}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("add dim err = %v", err)
	}
	if _, err := x.Search([]float32{1, 0}, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, err := x.Search([]float32{1}, 1); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("query dim err = %v", err)
	}
	if _, err := NewFlatIndex(Cosine, maxIndexDim+1); err == nil {
		t.Error("dim beyond uint16 coordinates accepted")
	}
	if _, err := NewFlatIndex(Cosine, maxIndexDim); err != nil {
		t.Errorf("dim %d rejected: %v", maxIndexDim, err)
	}
}

func TestFlatIndexUpdateAndRemove(t *testing.T) {
	x := newFlat(t, 2)
	x.Add(1, []float32{1, 0})
	x.Add(1, []float32{0, 1}) // replace
	if x.Len() != 1 {
		t.Fatalf("Len after replace = %d", x.Len())
	}
	res, _ := x.Search([]float32{0, 1}, 1)
	if res[0].ID != 1 || res[0].Score < 0.99 {
		t.Errorf("replacement not effective: %+v", res)
	}
	if !x.Remove(1) {
		t.Error("Remove returned false")
	}
	if x.Remove(1) {
		t.Error("second Remove returned true")
	}
	if x.Len() != 0 {
		t.Errorf("Len after remove = %d", x.Len())
	}
}

// TestIVFMatchesFlatWithFullProbe: probing every cluster makes IVF an
// exact index; it must agree with the flat scan.
func TestIVFMatchesFlatWithFullProbe(t *testing.T) {
	const dim, n = 16, 300
	src := rng.New(99)
	flat := newFlat(t, dim)
	ivf, err := NewIVFIndex(Cosine, dim, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sample [][]float32
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(src.NormFloat64())
		}
		sample = append(sample, v)
	}
	if err := ivf.Train(sample, 10); err != nil {
		t.Fatal(err)
	}
	for i, v := range sample {
		if err := flat.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
		if err := ivf.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		q := make([]float32, dim)
		for d := range q {
			q[d] = float32(src.NormFloat64())
		}
		fr, err := flat.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		ir, err := ivf.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fr {
			if fr[i].ID != ir[i].ID {
				t.Fatalf("trial %d rank %d: flat %d vs ivf %d", trial, i, fr[i].ID, ir[i].ID)
			}
		}
	}
}

func TestIVFPartialProbeRecall(t *testing.T) {
	const dim, n = 16, 400
	src := rng.New(7)
	flat := newFlat(t, dim)
	ivf, err := NewIVFIndex(Cosine, dim, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	var sample [][]float32
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for d := range v {
			v[d] = float32(src.NormFloat64())
		}
		sample = append(sample, v)
	}
	if err := ivf.Train(sample, 15); err != nil {
		t.Fatal(err)
	}
	for i, v := range sample {
		flat.Add(int64(i), v)
		ivf.Add(int64(i), v)
	}
	hits, total := 0, 0
	for trial := 0; trial < 30; trial++ {
		q := sample[src.Intn(n)] // on-manifold queries
		fr, _ := flat.Search(q, 10)
		ir, _ := ivf.Search(q, 10)
		want := map[int64]bool{}
		for _, r := range fr {
			want[r.ID] = true
		}
		for _, r := range ir {
			if want[r.ID] {
				hits++
			}
		}
		total += len(fr)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.5 {
		t.Errorf("IVF nprobe=4/16 recall = %v, want ≥0.5", recall)
	}
}

func TestIVFLifecycleErrors(t *testing.T) {
	ivf, err := NewIVFIndex(Cosine, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ivf.Add(1, []float32{1, 0, 0, 0}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained add err = %v", err)
	}
	if _, err := ivf.Search([]float32{1, 0, 0, 0}, 1); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained search err = %v", err)
	}
	if _, err := NewIVFIndex(Cosine, 4, 2, 3); err == nil {
		t.Error("nprobe > nlist accepted")
	}
	if _, err := NewIVFIndex(Cosine, maxIndexDim+1, 4, 2); err == nil {
		t.Error("dim beyond uint16 coordinates accepted")
	}
	// Tiny training sample shrinks nlist instead of failing.
	if err := ivf.Train([][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}, 5); err != nil {
		t.Fatal(err)
	}
	if !ivf.Trained() {
		t.Error("Trained() = false")
	}
	if err := ivf.Add(1, []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ivf.Add(1, []float32{0, 1, 0, 0}); err != nil {
		t.Fatal(err) // replace
	}
	if ivf.Len() != 1 {
		t.Errorf("Len after replace = %d", ivf.Len())
	}
	if !ivf.Remove(1) || ivf.Remove(1) {
		t.Error("remove semantics broken")
	}
}

func TestTopKHeapProperty(t *testing.T) {
	// drainSorted(top-k) must equal sorting everything and taking the
	// best k.
	f := func(scores []float64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		h := make(resultHeap, 0, k)
		for i, s := range scores {
			if math.IsNaN(s) {
				return true
			}
			pushTopK(&h, k, Result{ID: int64(i), Score: s})
		}
		got := drainSorted(&h)
		want := make([]Result, 0, len(scores))
		for i, s := range scores {
			want = append(want, Result{ID: int64(i), Score: s})
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewDefault(64)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDBSearchRelevance(t *testing.T) {
	db := newTestDB(t)
	docs := []string{
		"The probation period lasts three months for new employees.",
		"Employees are entitled to fourteen days of annual leave.",
		"The store operates from nine in the morning until five.",
		"Uniforms must be worn at all times on the shop floor.",
	}
	ids, err := db.AddAll(docs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(docs) || db.Len() != len(docs) {
		t.Fatalf("AddAll stored %d/%d", db.Len(), len(docs))
	}
	hits, err := db.Search("how long is the probation period", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0].Text != docs[0] {
		t.Errorf("top hit = %+v, want probation doc", hits)
	}
}

func TestDBGetDelete(t *testing.T) {
	db := newTestDB(t)
	id, err := db.Add("some passage", map[string]string{"topic": "misc"})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := db.Get(id)
	if err != nil || doc.Meta["topic"] != "misc" {
		t.Fatalf("Get = %+v, %v", doc, err)
	}
	if err := db.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete err = %v", err)
	}
	if err := db.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	// Deleted docs no longer surface in search.
	hits, _ := db.Search("some passage", 5)
	for _, h := range hits {
		if h.ID == id {
			t.Error("deleted doc returned by search")
		}
	}
}

func TestDBMetadataIsolation(t *testing.T) {
	db := newTestDB(t)
	meta := map[string]string{"k": "v"}
	id, _ := db.Add("text", meta)
	meta["k"] = "mutated"
	doc, _ := db.Get(id)
	if doc.Meta["k"] != "v" {
		t.Error("DB shares caller's metadata map")
	}
}

func TestDBPersistence(t *testing.T) {
	db := newTestDB(t)
	docs := []string{"alpha passage about leave", "beta passage about uniforms"}
	if _, err := db.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e, _ := NewHashedEmbedder(64)
	x, _ := NewFlatIndex(Cosine, 64)
	restored, err := Load(&buf, e, x)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != db.Len() {
		t.Fatalf("restored %d docs, want %d", restored.Len(), db.Len())
	}
	hits, err := restored.Search("annual leave", 1)
	if err != nil || len(hits) != 1 {
		t.Fatalf("restored search: %v %v", hits, err)
	}
	if hits[0].Text != docs[0] {
		t.Errorf("restored top hit = %q", hits[0].Text)
	}
	// New IDs continue past the restored sequence.
	id, _ := restored.Add("new doc", nil)
	if id <= 2 {
		t.Errorf("nextID not restored: new id %d", id)
	}
}

func TestDBConcurrentReadWrite(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.AddAll([]string{"seed doc one", "seed doc two"}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Writers intern and release shared metadata maps while
			// readers read them.
			for i := 0; i < 20; i++ {
				id, err := db.Add("concurrent doc", map[string]string{"tag": fmt.Sprint(i % 3)})
				if err != nil {
					errs <- err
				}
				if err := db.AddDocument(Document{ID: id, Text: "concurrent doc", Meta: map[string]string{"tag": fmt.Sprint(w % 2)}}); err != nil {
					errs <- err
				}
				hits, err := db.Search("doc", 3)
				if err != nil {
					errs <- err
				}
				for _, h := range hits {
					if h.Meta != nil && h.Meta["tag"] == "" {
						errs <- fmt.Errorf("doc %d: metadata %v lost its tag", h.ID, h.Meta)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if db.Len() != 2+4*20 {
		t.Errorf("Len = %d, want %d", db.Len(), 2+4*20)
	}
}
