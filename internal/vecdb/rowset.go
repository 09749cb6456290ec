package vecdb

import (
	"fmt"
	"math"
)

// maxIndexDim is the widest vector an index stores: sparse rows address
// their coordinates with uint16.
const maxIndexDim = 1 << 16

// checkIndexDim is every index constructor's dimension check.
func checkIndexDim(dim int) error {
	if dim <= 0 || dim > maxIndexDim {
		return fmt.Errorf("vecdb: index dim must be in [1, %d], got %d", maxIndexDim, dim)
	}
	return nil
}

// rowSet is the vector storage shared by FlatIndex, IVFIndex and
// HNSWIndex: exact float32 rows (the re-rank and exact-scan substrate),
// per-row norms precomputed once at insertion so cosine never
// recomputes a stored norm per comparison, and — when quantization is
// configured — a blocked int8 code mirror the scan path reads instead
// of the floats. Rows are swap-with-last deleted; ids/pos map caller
// document IDs onto row indexes.
//
// Outside a quantized set a row is stored as its nonzero coordinates
// whenever that takes fewer bytes than the dense row (see pack):
// feature-hashed text sets a tenth of the coordinates, dense embeddings
// nearly all of them. Every exact score is bit-identical to Similarity
// on the dense vectors.
type rowSet struct {
	dim   int
	quant QuantConfig

	ids []int64
	pos map[int64]int
	// vals holds each row's stored values: all dim of them for a dense
	// row, the nonzeros for a sparse one, whose ascending coordinates
	// are in idxs. A sparse row always holds fewer than dim values, so
	// len(vals[row]) == dim identifies a dense one. idxs is nil until
	// the first sparse row arrives (a dense-only set pays nothing for
	// it), then runs parallel to vals with nil for dense rows.
	vals [][]float32
	idxs [][]uint16
	// norms / normSqs are float64 and computed with exactly the same
	// accumulation as norm()/l2Squared, so precomputation changes no
	// score bit anywhere.
	norms   []float64
	normSqs []float64
	codes   *blockedCodes // nil when quant.Kind == QuantNone
}

// pack copies vec, which holds nnz nonzeros, into its stored form:
// sparse when they take fewer bytes than the dense row
// (nnz·6 < dim·4), dense (idx nil) otherwise. "Nonzero" is by bit
// pattern: a -0 is stored, so the row reproduces its input to the bit.
//
// A quantized set keeps every row dense. Its scan reads the int8 codes
// instead, and those pay only on dense embeddings: a hashed-text row's
// nonzeros (≈137 B at dim 256) are already smaller than its codes
// (256 B), so a quantized set of packed rows would scan more bytes than
// the exact rows it re-ranks hold.
func (s *rowSet) pack(vec []float32, nnz int) (idx []uint16, val []float32) {
	if s.codes != nil || nnz*6 >= len(vec)*4 {
		return nil, append([]float32(nil), vec...)
	}
	idx, val = make([]uint16, 0, nnz), make([]float32, 0, nnz)
	for i, v := range vec {
		if math.Float32bits(v) != 0 {
			idx = append(idx, uint16(i))
			val = append(val, v)
		}
	}
	return idx, val
}

func newRowSet(dim int, q QuantConfig) rowSet {
	rs := rowSet{dim: dim, quant: q, pos: map[int64]int{}}
	if q.Kind == QuantInt8 {
		rs.codes = newBlockedCodes(dim)
	}
	return rs
}

func (s *rowSet) len() int { return len(s.ids) }

// quantized reports whether the scan path reads int8 codes.
func (s *rowSet) quantized() bool { return s.codes != nil }

// add copies vec in under id, replacing an existing row for the same
// id. It returns the row index.
func (s *rowSet) add(id int64, vec []float32) int {
	var sq float64
	nnz := 0
	for _, v := range vec {
		sq += float64(v) * float64(v)
		if math.Float32bits(v) != 0 {
			nnz++
		}
	}
	n := math.Sqrt(sq)
	idx, val := s.pack(vec, nnz)
	if idx != nil && s.idxs == nil {
		s.idxs = make([][]uint16, len(s.vals), cap(s.vals))
	}
	if p, ok := s.pos[id]; ok {
		s.vals[p] = val
		if s.idxs != nil {
			s.idxs[p] = idx
		}
		s.norms[p] = n
		s.normSqs[p] = sq
		if s.codes != nil {
			s.codes.set(p, vec)
		}
		return p
	}
	p := len(s.ids)
	s.pos[id] = p
	s.ids = append(s.ids, id)
	s.vals = append(s.vals, val)
	if s.idxs != nil {
		s.idxs = append(s.idxs, idx)
	}
	s.norms = append(s.norms, n)
	s.normSqs = append(s.normSqs, sq)
	if s.codes != nil {
		s.codes.append(vec)
	}
	return p
}

// remove deletes id by swapping the last row into its slot. Removing
// an absent id returns false.
func (s *rowSet) remove(id int64) bool {
	p, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.ids) - 1
	if p != last {
		s.ids[p] = s.ids[last]
		s.vals[p] = s.vals[last]
		if s.idxs != nil {
			s.idxs[p] = s.idxs[last]
		}
		s.norms[p] = s.norms[last]
		s.normSqs[p] = s.normSqs[last]
		if s.codes != nil {
			s.codes.moveRow(p, last)
		}
		s.pos[s.ids[p]] = p
	}
	// Release the vacated slot's values.
	s.vals[last] = nil
	s.vals = s.vals[:last]
	if s.idxs != nil {
		s.idxs[last] = nil
		s.idxs = s.idxs[:last]
	}
	s.ids = s.ids[:last]
	s.norms = s.norms[:last]
	s.normSqs = s.normSqs[:last]
	if s.codes != nil {
		s.codes.truncate()
	}
	delete(s.pos, id)
	return true
}

// vector returns a row as a dim-length slice: the stored slice itself
// for a dense row (callers must not modify it), a fresh copy for a
// sparse one. Build-time code that compares stored rows pairwise (HNSW
// neighbour selection, IVF training) materialises each row once.
func (s *rowSet) vector(row int) []float32 {
	val := s.vals[row]
	if len(val) == s.dim {
		return val
	}
	v := make([]float32, s.dim)
	for j, i := range s.idxs[row] {
		v[i] = val[j]
	}
	return v
}

// preparedQuery caches every per-query term the scan reuses across
// comparisons: the float sums and norms (computed once instead of per
// stored vector), the query's own nonzero coordinates under L2 and, on
// a quantized set, the symmetric int8 quantization of the query feeding
// the integer dot kernel.
type preparedQuery struct {
	vec    []float32
	sum    float64 // Σ q[d], the offset term of the asymmetric dot
	norm   float64 // ‖q‖, identical to norm(q)
	normSq float64
	// finite reports that every q[d] is finite. Only then is a skipped
	// q[d]·0 term an exact ±0 (Inf·0 is NaN), so a dot product over a
	// sparse row's nonzeros equals the dense one.
	finite bool
	nz     []uint16 // ascending d with q[d] != 0 (L2 only)
	qc     []int8   // int8 codes of the query (quantized sets only)
	qscale float64  // query dequant scale: q[d] ≈ qscale·qc[d]
}

// prepare builds the query context for metric m. The one-off cost is
// O(dim), amortized over every stored vector the query is compared
// against.
func (s *rowSet) prepare(m Metric, q []float32) preparedQuery {
	pq := preparedQuery{vec: q}
	var maxAbs float64
	for d, v := range q {
		f := float64(v)
		pq.sum += f
		pq.normSq += f * f
		if a := math.Abs(f); a > maxAbs {
			maxAbs = a
		}
		if m == L2 && v != 0 {
			pq.nz = append(pq.nz, uint16(d))
		}
	}
	pq.norm = math.Sqrt(pq.normSq)
	// Squares of float32 values cannot overflow a float64 sum, so the
	// sum is non-finite exactly when some element is.
	pq.finite = !math.IsInf(pq.normSq, 0) && !math.IsNaN(pq.normSq)
	if s.codes == nil {
		return pq
	}
	pq.qc = make([]int8, len(q))
	if maxAbs == 0 {
		return pq
	}
	pq.qscale = maxAbs / 127
	inv := 1 / pq.qscale
	for i, v := range q {
		c := math.Round(float64(v) * inv)
		switch {
		case c > 127:
			c = 127
		case c < -127:
			c = -127
		}
		pq.qc[i] = int8(c)
	}
	return pq
}

// exactScore is the metric score against the exact float32 row, with
// stored norms read instead of recomputed — bit-identical to
// Similarity on the same operands. A sparse row is walked over its
// nonzeros (L2: over the union with the query's), which adds the same
// terms in the same index order as the dense loop minus exact ±0 terms;
// the float64 accumulator starts at +0 and is never -0, so those terms
// cannot change a bit of the sum.
func (s *rowSet) exactScore(m Metric, row int, pq *preparedQuery) float64 {
	val := s.vals[row]
	if len(val) != s.dim {
		return s.sparseScore(m, row, pq)
	}
	switch m {
	case Cosine:
		n := s.norms[row]
		if n == 0 || pq.norm == 0 {
			return 0
		}
		return dotProduct(pq.vec, val) / (pq.norm * n)
	case Dot:
		return dotProduct(pq.vec, val)
	default: // L2
		return -l2Squared(pq.vec, val)
	}
}

// sparseScore is exactScore on a row stored as its nonzeros.
func (s *rowSet) sparseScore(m Metric, row int, pq *preparedQuery) float64 {
	switch m {
	case Cosine:
		n := s.norms[row]
		if n == 0 || pq.norm == 0 {
			return 0
		}
		return s.sparseDot(row, pq) / (pq.norm * n)
	case Dot:
		return s.sparseDot(row, pq)
	default: // L2
		return -l2SquaredSparse(pq.vec, pq.nz, s.idxs[row], s.vals[row])
	}
}

// sparseDot is dotProduct(q, row) over the row's nonzeros only. A
// non-finite query takes the dense loop: there a skipped Inf·0 term
// would have been NaN.
func (s *rowSet) sparseDot(row int, pq *preparedQuery) float64 {
	if !pq.finite {
		return dotProduct(pq.vec, s.vector(row))
	}
	val := s.vals[row]
	var acc float64
	for j, i := range s.idxs[row] {
		acc += float64(pq.vec[i]) * float64(val[j])
	}
	return acc
}

// l2SquaredSparse is l2Squared(q, row) for the sparse row (idx, val),
// walked over the union of q's nonzero coordinates qnz and idx:
// elsewhere both sides are ±0 and the term is +0.
func l2SquaredSparse(q []float32, qnz, idx []uint16, val []float32) float64 {
	var acc float64
	i, j := 0, 0
	for i < len(qnz) || j < len(idx) {
		var d float64
		if j == len(idx) || (i < len(qnz) && qnz[i] < idx[j]) {
			d = float64(q[qnz[i]]) // the row's value here is +0
			i++
		} else {
			if i < len(qnz) && qnz[i] == idx[j] {
				i++
			}
			d = float64(q[idx[j]]) - float64(val[j])
			j++
		}
		acc += d * d
	}
	return acc
}

// approxScore is the asymmetric quantized score: one int8 dot kernel
// call plus the precomputed offset/norm terms.
func (s *rowSet) approxScore(m Metric, row int, pq *preparedQuery) float64 {
	c := s.codes
	d := pq.qscale*float64(c.scales[row])*float64(dotInt8(pq.qc, c.row(row))) +
		float64(c.offsets[row])*pq.sum
	switch m {
	case Cosine:
		n := s.norms[row]
		if n == 0 || pq.norm == 0 {
			return 0
		}
		return d / (pq.norm * n)
	case Dot:
		return d
	default: // L2
		return -(pq.normSq - 2*d + s.normSqs[row])
	}
}

// scoreRow dispatches to the quantized or exact scorer.
func (s *rowSet) scoreRow(m Metric, row int, pq *preparedQuery) float64 {
	if s.codes != nil {
		return s.approxScore(m, row, pq)
	}
	return s.exactScore(m, row, pq)
}

// scanInto pushes every row's scan score into the bounded top-depth
// heap — the full-scan inner loop of FlatIndex and of each probed IVF
// list (via scanIDs).
func (s *rowSet) scanInto(h *resultHeap, depth int, m Metric, pq *preparedQuery) {
	if s.codes != nil {
		for row := range s.ids {
			pushTopK(h, depth, Result{ID: s.ids[row], Score: s.approxScore(m, row, pq)})
		}
		return
	}
	for row := range s.ids {
		pushTopK(h, depth, Result{ID: s.ids[row], Score: s.exactScore(m, row, pq)})
	}
}

// rerank re-scores candidates against the exact float32 rows and
// returns the top-k, best first — the second stage of a quantized
// search. Candidates whose row vanished under a concurrent structural
// change are skipped.
func (s *rowSet) rerank(m Metric, pq *preparedQuery, cands []Result, k int) []Result {
	h := make(resultHeap, 0, k)
	for _, c := range cands {
		row, ok := s.pos[c.ID]
		if !ok {
			continue
		}
		pushTopK(&h, k, Result{ID: c.ID, Score: s.exactScore(m, row, pq)})
	}
	return drainSorted(&h)
}

// memory reports the set's storage footprint for benchmarks and
// /stats: the bytes the exact rows hold, quantized code blocks,
// per-row parameters, and the bytes the scan path actually touches per
// query.
func (s *rowSet) memory() IndexMemory {
	n := int64(len(s.ids))
	m := IndexMemory{
		Vectors: len(s.ids),
		// Per-row norm+normSq (float64 each); the scan reads only the
		// norm, and only under Cosine.
		ParamBytes: n * 16,
	}
	for row, val := range s.vals {
		m.FloatBytes += int64(len(val)) * 4
		if s.idxs != nil {
			m.FloatBytes += int64(len(s.idxs[row])) * 2
		}
	}
	if s.codes != nil {
		m.CodeBytes = n * int64(s.dim)
		m.ParamBytes += n * 8 // scale + offset
		// Quantized scan: codes + scale/offset + norm.
		m.ScanBytes = m.CodeBytes + n*16
	} else {
		m.ScanBytes = m.FloatBytes + n*8
	}
	return m
}

// IndexMemory describes an index's storage footprint, in bytes.
type IndexMemory struct {
	// Vectors is the stored vector count.
	Vectors int `json:"vectors"`
	// FloatBytes is the exact rows (kept for re-ranking even when the
	// scan is quantized): float32 values, plus the uint16 coordinates
	// of rows stored as their nonzeros.
	FloatBytes int64 `json:"float_bytes"`
	// CodeBytes is the int8 code blocks (0 without quantization).
	CodeBytes int64 `json:"code_bytes"`
	// ParamBytes is per-vector scalar state: norms, and scale/offset
	// under quantization.
	ParamBytes int64 `json:"param_bytes"`
	// ScanBytes is what a full scan touches per query — the
	// cache-resident working set: codes+scale/offset+norm when
	// quantized, exact rows+norm otherwise.
	ScanBytes int64 `json:"scan_bytes"`
	// GraphBytes is index-structure overhead (HNSW links, IVF lists).
	GraphBytes int64 `json:"graph_bytes"`
}

// TotalBytes sums every component.
func (m IndexMemory) TotalBytes() int64 {
	return m.FloatBytes + m.CodeBytes + m.ParamBytes + m.GraphBytes
}

// MemoryReporter is implemented by indexes that can account their
// storage footprint (all three built-ins do).
type MemoryReporter interface {
	Memory() IndexMemory
}

// StageObservable is implemented by indexes that can report internal
// stage timings (currently the quantized re-rank) to a telemetry
// sink. The observer is called as fn(stage, seconds) on the search
// path; a nil fn detaches.
type StageObservable interface {
	SetStageObserver(fn func(stage string, seconds float64))
}
