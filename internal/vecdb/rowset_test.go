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

// countShaped is the count-row rule by division and math.Round: vec is
// at most narrowDim wide, has at least one nonzero, no -0 and nothing
// non-finite, and every nonzero is float32(c)·m to the bit, with m the
// smallest nonzero magnitude and 1 ≤ |c| ≤ 127.
func countShaped(vec []float32) bool {
	if len(vec) > narrowDim {
		return false
	}
	m, nnz := float32(math.Inf(1)), 0
	for _, v := range vec {
		if math.Float32bits(v) == 0 {
			continue
		}
		if v == 0 || math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
		nnz++
		m = min(m, float32(math.Abs(float64(v))))
	}
	if nnz == 0 {
		return false
	}
	for _, v := range vec {
		if v == 0 {
			continue
		}
		c := math.Round(float64(v) / float64(m))
		if math.Abs(c) > 127 || math.Float32bits(float32(c)*m) != math.Float32bits(v) {
			return false
		}
	}
	return true
}

// checkRowSet holds a rowSet to its contents: every row reads back to
// the bit, is stored as counts, sparse or dense exactly when the
// storage rules say so, and scores every query bit-identically to
// Similarity on the dense vectors, widened for the count-row dot or
// not; so does every pair of materialised rows, as HNSW neighbour
// selection compares them.
func checkRowSet(t *testing.T, rs *rowSet, m Metric, want map[int64][]float32, queries [][]float32) {
	t.Helper()
	if rs.len() != len(want) {
		t.Fatalf("len = %d, want %d", rs.len(), len(want))
	}
	counted := 0
	for _, ref := range rs.refs {
		if ref.kind() == rowCount {
			counted++
		}
	}
	if rs.countRows != counted {
		t.Fatalf("countRows = %d, but %d rows are count rows", rs.countRows, counted)
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
		wantKind := rowDense
		switch {
		case rs.quantized():
		case countShaped(vec):
			wantKind = rowCount
		case nnz < denseCutoff(rs.dim):
			wantKind = rowSparse
		}
		if kind := rs.refs[row].kind(); kind != wantKind {
			t.Fatalf("id %d (nnz %d of %d) stored as kind %d, want %d", id, nnz, rs.dim, kind, wantKind)
		}
		for qi, q := range queries {
			pq := rs.prepare(m, q)
			w, _ := Similarity(m, q, vec)
			if got := rs.exactScore(m, row, &pq); !sameBits(got, w) {
				t.Fatalf("query %d id %d: exactScore %v (%#x), Similarity %v (%#x)",
					qi, id, got, math.Float64bits(got), w, math.Float64bits(w))
			}
			pq.widened = false
			if got := rs.exactScore(m, row, &pq); !sameBits(got, w) {
				t.Fatalf("query %d id %d: exactScore unwidened %v, Similarity %v", qi, id, got, w)
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

// countRow builds a row of small integer counts scaled to unit length,
// as HashedEmbedder does, from a seed, and then makes it miss by one
// flaw when flaw says so: 0 none, 1 every count doubled (no count of
// ±1), 2 a -0, 3 a NaN, 4 +Inf, 5 -Inf, 6 a count of ±127, 7 one of
// ±128, 8 one value 1 ulp off.
func countRow(dim int, seed uint64, flaw byte) []float32 {
	src := rng.New(seed)
	nnz := 1 + src.Intn(min(dim, 32))
	coords := src.Perm(dim)
	v := make([]float32, dim)
	for _, d := range coords[:nnz] {
		v[d] = float32(1 + src.Intn(4))
		if src.Intn(2) == 0 {
			v[d] = -v[d]
		}
		if flaw == 1 {
			v[d] *= 2
		}
	}
	at := coords[src.Intn(nnz)]
	switch flaw {
	case 6:
		v[at] = float32(math.Copysign(127, float64(v[at])))
	case 7:
		v[at] = float32(math.Copysign(128, float64(v[at])))
	}
	NormalizeInPlace(v)
	switch flaw {
	case 2:
		if nnz < dim {
			v[coords[nnz]] = float32(math.Copysign(0, -1))
		}
	case 3:
		v[at] = float32(math.NaN())
	case 4:
		v[at] = float32(math.Inf(1))
	case 5:
		v[at] = float32(math.Inf(-1))
	case 8:
		v[at] = math.Float32frombits(math.Float32bits(v[at]) + 1)
	}
	return v
}

// FuzzCountRowsMatchSimilarity decodes raw as a width (255, 256 or 257
// by raw[0]), a metric (raw[1]) and 4-byte ops (id, op, seed): op%10 ==
// 9 deletes the row, any other adds or replaces it with countRow(seed,
// op%10) — count-shaped rows, which a set of dim ≤ 256 stores as
// counts and a wider one as floats, and near misses, which every set
// must store as floats. It then replaces every row until the arenas have
// compacted. Before and after the compaction, each row reads back to the
// bit, is stored as counts exactly when the
// division-and-Round rule (countShaped) says so, and scores every query
// — a row, a Gaussian vector, one with an Inf — as Similarity does.
func FuzzCountRowsMatchSimilarity(f *testing.F) {
	for dim := byte(0); dim < 3; dim++ {
		for flaw := byte(0); flaw < 9; flaw++ {
			f.Add([]byte{dim, flaw % 3, 1, flaw, 7, flaw, 2, 0, 1, 1, 3, 9, 0, 0, 2, 0, 3, 5})
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		dim, m := 255+int(raw[0]%3), Metric(raw[1]%3)
		x, err := NewFlatIndex(m, dim)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int64][]float32{}
		for b := raw[2:]; len(b) >= 4; b = b[4:] {
			id := int64(b[0] % 8)
			if b[1]%10 == 9 {
				delete(want, id)
				x.Remove(id)
				continue
			}
			v := countRow(dim, uint64(binary.LittleEndian.Uint16(b[2:])), b[1]%10)
			want[id] = v
			if err := x.Add(id, v); err != nil {
				t.Fatal(err)
			}
		}
		if len(want) == 0 {
			return
		}
		src := rng.New(uint64(len(raw)))
		gauss, inf := make([]float32, dim), make([]float32, dim)
		for d := range gauss {
			gauss[d] = float32(src.NormFloat64())
		}
		inf[src.Intn(dim)] = float32(math.Inf(1))
		var first []float32
		for _, v := range want {
			first = v
			break
		}
		queries := [][]float32{first, gauss, inf}
		checkRowSet(t, &x.rs, m, want, queries)
		checkSearchScores(t, x, m, want, queries, true)

		holes := func() int { return x.rs.words.dead + x.rs.floats.dead }
		for compacted, adds := false, 0; !compacted; {
			for id, v := range want {
				before := holes()
				if err := x.Add(id, v); err != nil {
					t.Fatal(err)
				}
				compacted = compacted || holes() < before
				if adds++; adds > 1<<16 {
					t.Fatalf("no compaction after %d replacements", adds)
				}
			}
		}
		checkRowSet(t, &x.rs, m, want, queries)
		checkSearchScores(t, x, m, want, queries, true)
	})
}

// TestIndexMemoryCountsStoredBytes: float_bytes is what the arenas
// hold — 6 B plus 2 B per nonzero for a hashed-text row at dim 256,
// 4 B a coordinate for a dense Gaussian one — plus the rows replaced or
// removed since the last compaction; param_bytes is a reference and a
// norm per row (and a squared norm, scale and offset when quantized);
// the unquantized scan reads the live rows, references and norms. A
// model of the compaction rule follows the holes through replace and
// delete churn.
func TestIndexMemoryCountsStoredBytes(t *testing.T) {
	const n, dim = 1000, 256
	e, err := NewHashedEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	hashed := embedAllTexts(t, e, hashedTexts(n, 12, 1))
	gaussian := randomVectors(n, dim, 1)
	for _, c := range []struct {
		name  string
		vecs  [][]float32
		quant QuantConfig
	}{
		{"hashed", hashed, QuantConfig{}},
		{"gaussian", gaussian, QuantConfig{}},
		{"hashed-int8", hashed, QuantConfig{Kind: QuantInt8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			x, err := NewFlatIndexQ(Cosine, dim, c.quant)
			if err != nil {
				t.Fatal(err)
			}
			rowBytes := func(v []float32) int64 {
				nnz := 0
				for _, f := range v {
					if math.Float32bits(f) != 0 {
						nnz++
					}
				}
				switch {
				case c.quant.Kind != QuantNone || nnz >= denseCutoff(dim):
					return 4 * dim
				case countShaped(v):
					return int64(6 + 2*nnz)
				default:
					return int64(2 + 6*nnz)
				}
			}
			stored := map[int64][]float32{}
			var live, holes int64
			compactions := 0
			settle := func() {
				if holes >= compactMinHoles && 2*holes > live {
					holes = 0
					compactions++
				}
			}
			put := func(id int64, v []float32) {
				if old, ok := stored[id]; ok {
					live -= rowBytes(old)
					holes += rowBytes(old)
				}
				stored[id] = v
				live += rowBytes(v)
				if err := x.Add(id, v); err != nil {
					t.Fatal(err)
				}
				settle()
			}
			del := func(id int64) {
				live -= rowBytes(stored[id])
				holes += rowBytes(stored[id])
				delete(stored, id)
				x.Remove(id)
				settle()
			}
			check := func(step string) {
				t.Helper()
				m, rows := x.Memory(), int64(len(stored))
				want := IndexMemory{Vectors: len(stored), FloatBytes: live + holes, ParamBytes: rows * 16, ScanBytes: live + rows*16}
				if c.quant.Kind != QuantNone {
					want.CodeBytes = rows * dim
					want.ParamBytes = rows * 32
					want.ScanBytes = want.CodeBytes + rows*16
				}
				if m != want {
					t.Errorf("%s: memory %+v, want %+v", step, m, want)
				}
			}
			for i, v := range c.vecs {
				put(int64(i), v)
			}
			if c.name == "hashed" && live != int64(n)*6+2*int64(nonzeros(c.vecs)) {
				t.Errorf("hashed rows hold %d B, not 6 B and 2 B a nonzero: not every row is a count row", live)
			}
			check("add")
			for i := 0; i < n/4; i++ { // replace a quarter with other rows
				put(int64(i), c.vecs[n-1-i])
			}
			check("replace")
			for i := n / 4; i < n-n/10; i++ {
				del(int64(i))
			}
			check("delete")
			if compactions == 0 {
				t.Errorf("no compaction after deleting %d of %d rows", n-n/10-n/4, n)
			}
			for id := range stored {
				del(id)
			}
			check("empty")
		})
	}
}

// nonzeros counts the bitwise-nonzero coordinates of vecs.
func nonzeros(vecs [][]float32) int {
	nnz := 0
	for _, v := range vecs {
		for _, f := range v {
			if math.Float32bits(f) != 0 {
				nnz++
			}
		}
	}
	return nnz
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
