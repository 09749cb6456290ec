package vecdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// sameBits compares two scores to the bit (so -0 ≠ +0).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// denseCutoff is the smallest count of stored coordinates at which a
// dim-wide row is stored dense (nnz·6 ≥ dim·4).
func denseCutoff(dim int) int { return (2*dim + 2) / 3 }

// vecWithNNZ returns a dim-wide vector with nnz bitwise-nonzero
// coordinates at random positions; when nnz ≥ 2 one of them is -0.
func vecWithNNZ(src *rng.Source, dim, nnz int) []float32 {
	v := make([]float32, dim)
	for j, d := range src.Perm(dim)[:nnz] {
		v[d] = float32(src.NormFloat64())
		if j == 1 {
			v[d] = float32(math.Copysign(0, -1))
		}
	}
	return v
}

// checkRowSet holds a rowSet to its contents: every row reads back to
// the bit, is stored sparse exactly when the packing rule says so, and
// scores every query bit-identically to Similarity on the dense
// vectors; so does every pair of materialised rows, as HNSW neighbour
// selection compares them.
func checkRowSet(t *testing.T, rs *rowSet, m Metric, want map[int64][]float32, queries [][]float32) {
	t.Helper()
	if rs.len() != len(want) {
		t.Fatalf("len = %d, want %d", rs.len(), len(want))
	}
	for id, vec := range want {
		row, ok := rs.pos[id]
		if !ok {
			t.Fatalf("id %d missing", id)
		}
		for d, v := range rs.vector(row) {
			if math.Float32bits(v) != math.Float32bits(vec[d]) {
				t.Fatalf("id %d coordinate %d reads %v, stored %v", id, d, v, vec[d])
			}
		}
		nnz := 0
		for _, v := range vec {
			if math.Float32bits(v) != 0 {
				nnz++
			}
		}
		wantSparse := !rs.quantized() && nnz < denseCutoff(rs.dim)
		if sparse := len(rs.vals[row]) != rs.dim; sparse != wantSparse {
			t.Fatalf("id %d (nnz %d of %d) stored sparse=%v, want %v", id, nnz, rs.dim, sparse, wantSparse)
		}
		for qi, q := range queries {
			pq := rs.prepare(m, q)
			w, _ := Similarity(m, q, vec)
			if got := rs.exactScore(m, row, &pq); !sameBits(got, w) {
				t.Fatalf("query %d id %d: exactScore %v (%#x), Similarity %v (%#x)",
					qi, id, got, math.Float64bits(got), w, math.Float64bits(w))
			}
		}
		for other, ovec := range want {
			w, _ := Similarity(m, vec, ovec)
			got, _ := Similarity(m, rs.vector(row), rs.vector(rs.pos[other]))
			if !sameBits(got, w) {
				t.Fatalf("pair (%d,%d): materialised %v, dense %v", id, other, got, w)
			}
		}
	}
}

// checkSearchScores holds every score a search returns to Similarity.
func checkSearchScores(t *testing.T, x Index, m Metric, want map[int64][]float32, queries [][]float32, all bool) {
	t.Helper()
	for qi, q := range queries {
		res, err := x.Search(q, len(want))
		if err != nil {
			t.Fatal(err)
		}
		if all && len(res) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(res), len(want))
		}
		for _, r := range res {
			if w, _ := Similarity(m, q, want[r.ID]); !sameBits(r.Score, w) {
				t.Fatalf("query %d id %d: search score %v, Similarity %v", qi, r.ID, r.Score, w)
			}
		}
	}
}

// TestRowSetMatchesSimilarity: sparse and dense rows, at and around the
// packing cutoff, score bit-identically to Similarity under every
// metric, quantized or not, through add, replace and swap-with-last
// removal that moves a sparse row over a dense one and back.
func TestRowSetMatchesSimilarity(t *testing.T) {
	src := rng.NewFromString("rowset-matches-similarity")
	for _, dim := range []int{1, 7, 64, 256, 300} {
		cut := denseCutoff(dim)
		for _, nnz := range []int{0, 1, cut - 1, cut, dim} {
			for _, q := range []QuantConfig{{}, {Kind: QuantInt8}} {
				for _, m := range []Metric{Cosine, Dot, L2} {
					t.Run(fmt.Sprintf("dim=%d/nnz=%d/%v/%v", dim, nnz, q.Kind, m), func(t *testing.T) {
						flat, err := NewFlatIndexQ(m, dim, q)
						if err != nil {
							t.Fatal(err)
						}
						hnsw, err := NewHNSWIndexQ(m, dim, 2, 4, 8, q)
						if err != nil {
							t.Fatal(err)
						}
						want := map[int64][]float32{}
						put := func(id int64, v []float32) {
							want[id] = v
							if err := flat.Add(id, v); err != nil {
								t.Fatal(err)
							}
							if err := hnsw.Add(id, v); err != nil {
								t.Fatal(err)
							}
						}
						del := func(id int64) {
							delete(want, id)
							if !flat.Remove(id) || !hnsw.Remove(id) {
								t.Fatalf("Remove(%d) = false", id)
							}
						}
						sparse := func() []float32 { return vecWithNNZ(src, dim, cut-1) }
						dense := func() []float32 { return vecWithNNZ(src, dim, dim) }
						check := func(step string) {
							t.Helper()
							queries := [][]float32{
								dense(), sparse(), vecWithNNZ(src, dim, nnz),
								append([]float32(nil), want[1]...), make([]float32, dim),
							}
							for _, c := range []struct {
								name string
								rs   *rowSet
							}{{"flat", &flat.rs}, {"hnsw", &hnsw.rs}} {
								t.Run(step+"/"+c.name, func(t *testing.T) { checkRowSet(t, c.rs, m, want, queries) })
							}
							checkSearchScores(t, flat, m, want, queries, true)
							checkSearchScores(t, hnsw, m, want, queries, false)
						}

						put(1, vecWithNNZ(src, dim, nnz))
						put(2, dense())
						put(3, sparse())
						check("add")
						put(1, vecWithNNZ(src, dim, nnz))
						put(2, sparse())
						put(2, dense())
						check("replace")
						del(2) // row 1 dense; the sparse last row (3) moves over it
						check("remove-dense")
						put(4, dense())
						del(3) // and the dense last row (4) moves back over a sparse one
						check("remove-sparse")
					})
				}
			}
		}
	}
}

// FuzzRowSetMatchesSimilarity decodes raw as a width (raw[0]+1), a
// metric (raw[1]) and 6-byte writes (target, coordinate, float32 bits)
// into two stored rows and a query — any bit pattern, so rows come out
// sparse or dense and hold ±0, Inf or NaN — and holds every exact score
// to Similarity's bits. Seeds live in
// testdata/fuzz/FuzzRowSetMatchesSimilarity.
func FuzzRowSetMatchesSimilarity(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		dim, m := int(raw[0])+1, Metric(raw[1]%3)
		var vecs [3][]float32 // rows 0 and 1, then the query
		for i := range vecs {
			vecs[i] = make([]float32, dim)
		}
		for b := raw[2:]; len(b) >= 6; b = b[6:] {
			vecs[int(b[0])%3][int(b[1])%dim] = math.Float32frombits(binary.LittleEndian.Uint32(b[2:]))
		}
		x, err := NewFlatIndex(m, dim)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64][]float32{0: vecs[0], 1: vecs[1]}
		for id, v := range want {
			if err := x.Add(id, v); err != nil {
				t.Fatal(err)
			}
		}
		checkRowSet(t, &x.rs, m, want, [][]float32{vecs[2], vecs[0]})
		checkSearchScores(t, x, m, want, [][]float32{vecs[2]}, true)
	})
}

// TestIndexMemoryCountsStoredBytes: float_bytes is what the rows hold —
// at most a byte per coordinate on hashed text, exactly four on dense
// Gaussian rows — and the unquantized scan reads it plus one norm a row.
func TestIndexMemoryCountsStoredBytes(t *testing.T) {
	const n, dim = 1000, 256
	e, err := NewHashedEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		vecs [][]float32
		ok   func(floatBytes int64) bool
	}{
		{"hashed", embedAllTexts(t, e, hashedTexts(n, 12, 1)), func(b int64) bool { return b <= n*dim }},
		{"gaussian", randomVectors(n, dim, 1), func(b int64) bool { return b == n*dim*4 }},
	} {
		x, err := NewFlatIndex(Cosine, dim)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range c.vecs {
			if err := x.Add(int64(i), v); err != nil {
				t.Fatal(err)
			}
		}
		m := x.Memory()
		if !c.ok(m.FloatBytes) {
			t.Errorf("%s: float_bytes %d for %d rows of dim %d", c.name, m.FloatBytes, n, dim)
		}
		if m.ScanBytes != m.FloatBytes+n*8 {
			t.Errorf("%s: scan_bytes %d, want float_bytes %d + 8 per row", c.name, m.ScanBytes, m.FloatBytes)
		}
	}
}

func embedAllTexts(t testing.TB, e Embedder, texts []string) [][]float32 {
	t.Helper()
	out := make([][]float32, len(texts))
	for i, s := range texts {
		v, err := e.Embed(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}
