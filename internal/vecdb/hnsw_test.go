package vecdb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
)

func newHNSW(t *testing.T) *HNSWIndex {
	t.Helper()
	h, err := NewHNSWIndex(Cosine, 16, 8, 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHNSWValidation(t *testing.T) {
	if _, err := NewHNSWIndex(Cosine, 0, 8, 32, 24); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewHNSWIndex(Cosine, maxIndexDim+1, 8, 32, 24); err == nil {
		t.Error("dim beyond uint16 coordinates accepted")
	}
	if _, err := NewHNSWIndex(Cosine, 8, 1, 32, 24); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := NewHNSWIndex(Cosine, 8, 8, 4, 24); err == nil {
		t.Error("efConstruction < m accepted")
	}
	if _, err := NewHNSWIndex(Cosine, 8, 8, 32, 0); err == nil {
		t.Error("efSearch=0 accepted")
	}
}

func TestHNSWEmpty(t *testing.T) {
	h := newHNSW(t)
	res, err := h.Search(make([]float32, 16), 3)
	if err != nil || res != nil {
		t.Errorf("empty search = %v, %v", res, err)
	}
	if h.Remove(1) {
		t.Error("Remove on empty index returned true")
	}
}

func TestHNSWBasicSearch(t *testing.T) {
	h := newHNSW(t)
	vecs := randomVectors(100, 16, 3)
	for i, v := range vecs {
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 100 {
		t.Fatalf("Len = %d", h.Len())
	}
	// Query with a stored vector: it must come back first (score ≈ 1).
	for _, probe := range []int{0, 17, 63, 99} {
		res, err := h.Search(vecs[probe], 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) == 0 || res[0].ID != int64(probe) {
			t.Errorf("self-query %d returned %+v", probe, res)
		}
	}
}

func TestHNSWRecallAgainstFlat(t *testing.T) {
	const dim, n = 24, 600
	flat, err := NewFlatIndex(Cosine, dim)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHNSWIndex(Cosine, dim, 12, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	vecs := randomVectors(n, dim, 11)
	for i, v := range vecs {
		if err := flat.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	queries := randomVectors(40, dim, 12)
	hits, total := 0, 0
	for _, q := range queries {
		fr, err := flat.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := h.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64]bool{}
		for _, r := range fr {
			want[r.ID] = true
		}
		for _, r := range hr {
			if want[r.ID] {
				hits++
			}
		}
		total += len(fr)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.85 {
		t.Errorf("HNSW recall@10 = %.3f, want ≥0.85", recall)
	}
}

func TestHNSWResultsSorted(t *testing.T) {
	h := newHNSW(t)
	for i, v := range randomVectors(200, 16, 5) {
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	q := randomVectors(1, 16, 6)[0]
	res, err := h.Search(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results unsorted at %d: %+v", i, res)
		}
	}
}

func TestHNSWUpdateAndRemove(t *testing.T) {
	h := newHNSW(t)
	vecs := randomVectors(50, 16, 7)
	for i, v := range vecs {
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Replace node 3 with node 7's vector: querying vecs[7] must now
	// return either 3 or 7 at the top with near-identical scores.
	if err := h.Add(3, vecs[7]); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 50 {
		t.Fatalf("Len after replace = %d", h.Len())
	}
	res, err := h.Search(vecs[7], 2)
	if err != nil {
		t.Fatal(err)
	}
	top := map[int64]bool{}
	for _, r := range res {
		top[r.ID] = true
	}
	if !top[3] || !top[7] {
		t.Errorf("replaced vector not retrieved: %+v", res)
	}
	// Remove half the nodes and verify they are gone from results.
	for i := int64(0); i < 25; i++ {
		if !h.Remove(i) {
			t.Fatalf("Remove(%d) = false", i)
		}
	}
	if h.Len() != 25 {
		t.Fatalf("Len after removal = %d", h.Len())
	}
	res, err = h.Search(vecs[30], 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID < 25 {
			t.Errorf("removed node %d still retrieved", r.ID)
		}
	}
}

func TestHNSWRemoveEntryPoint(t *testing.T) {
	h := newHNSW(t)
	vecs := randomVectors(30, 16, 9)
	for i, v := range vecs {
		if err := h.Add(int64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Remove every node in insertion order; the index must stay
	// searchable throughout (entry point re-election).
	for i := int64(0); i < 30; i++ {
		if !h.Remove(i) {
			t.Fatalf("Remove(%d) failed", i)
		}
		if h.Len() == 0 {
			break
		}
		if _, err := h.Search(vecs[0], 3); err != nil {
			t.Fatalf("search after removing %d: %v", i, err)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len = %d after removing everything", h.Len())
	}
}

func TestHNSWErrors(t *testing.T) {
	h := newHNSW(t)
	if err := h.Add(1, make([]float32, 4)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("dim err = %v", err)
	}
	if err := h.Add(1, make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Search(make([]float32, 4), 3); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("query dim err = %v", err)
	}
	if _, err := h.Search(make([]float32, 16), 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k err = %v", err)
	}
}

func TestHNSWWorksAsDBIndex(t *testing.T) {
	e, err := NewHashedEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHNSWIndex(Cosine, 64, 8, 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(e, h)
	if err != nil {
		t.Fatal(err)
	}
	docs := []string{
		"The probation period lasts three months.",
		"Employees receive fourteen days of annual leave.",
		"Uniforms must be worn on the shop floor.",
	}
	if _, err := db.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	hits, err := db.Search("how long is probation", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Text != docs[0] {
		t.Errorf("HNSW-backed DB top hit = %+v", hits)
	}
}

func BenchmarkHNSWSearch(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const dim = 128
			h, err := NewHNSWIndex(Cosine, dim, 16, 100, 50)
			if err != nil {
				b.Fatal(err)
			}
			for i, v := range randomVectors(n, dim, 1) {
				if err := h.Add(int64(i), v); err != nil {
					b.Fatal(err)
				}
			}
			queries := randomVectors(64, dim, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Search(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHNSWAdd(b *testing.B) {
	const dim = 128
	h, err := NewHNSWIndex(Cosine, dim, 16, 100, 50)
	if err != nil {
		b.Fatal(err)
	}
	vecs := randomVectors(b.N+1, dim, 1)
	src := rng.New(9)
	_ = src
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Add(int64(i), vecs[i]); err != nil {
			b.Fatal(err)
		}
	}
}
