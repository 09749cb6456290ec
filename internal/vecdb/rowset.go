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
// HNSWIndex: exact rows (the re-rank and exact-scan substrate), per-row
// norms precomputed once at insertion so cosine never recomputes a
// stored norm per comparison, and — when quantization is configured — a
// blocked int8 code mirror the scan path reads instead of the floats.
// Rows are swap-with-last deleted; ids/pos map caller document IDs onto
// row indexes.
//
// Every row lives in one of two append-only arenas and is found through
// one rowRef. In an unquantized set of dim ≤ narrowDim, a row whose
// every nonzero is float32(c)·m for one scale m and small integer counts
// c — what HashedEmbedder emits — is stored as its counts and that scale
// (see addCounts); any other row keeps its float32 values, as its
// nonzeros when that takes fewer bytes than the dense row (see
// addFloats). Every row reads back to the bit, and every exact score is
// bit-identical to Similarity on the dense vectors.
type rowSet struct {
	dim   int
	quant QuantConfig

	ids  []int64
	pos  map[int64]int
	refs []rowRef
	// words holds count rows and sparse float rows, floats dense rows.
	// A replaced or removed row leaves a hole that compact reclaims.
	words  arena[uint16]
	floats arena[float32]
	// countRows is how many live rows are count rows; prepare widens a
	// query for them only when there are some.
	countRows int
	// norms / normSqs are float64 and computed with exactly the same
	// accumulation as norm()/l2Squared, so precomputation changes no
	// score bit anywhere. normSqs is kept only on a quantized set: its
	// one reader is approxScore.
	norms   []float64
	normSqs []float64
	codes   *blockedCodes // nil when quant.Kind == QuantNone
}

// rowRef locates a stored row: its kind in the top two bits of blk,
// its arena block in the rest, and its first element at off.
type rowRef struct{ blk, off uint32 }

// Row kinds, and the layout each keeps in its arena.
const (
	// rowCount, in words: [nnz][scale bits, low half][high half], then
	// one word per nonzero, coordinate<<8 | uint8(count), coordinates
	// ascending. Only sets of dim ≤ narrowDim hold count rows.
	rowCount = iota
	// rowSparse, in words: [nnz][nnz ascending coordinates][the values'
	// bits, low half then high half, in coordinate order].
	rowSparse
	// rowDense, in floats: all dim values.
	rowDense

	kindShift = 30
	blockMask = 1<<kindShift - 1
	// narrowDim is the widest set whose coordinates fit in a byte, and
	// so the widest that stores count rows.
	narrowDim = 256
	signBit   = 1 << 31
)

func (r rowRef) kind() int { return int(r.blk >> kindShift) }

// rowAt is the reference to off in arena block blk, holding a row of
// the given kind.
func rowAt(kind int, blk, off uint32) rowRef {
	return rowRef{blk: uint32(kind)<<kindShift | blk, off: off}
}

// arena is append-only storage in blocks that start small and double up
// to arenaMaxBlock elements, so a large set grows without copying what
// it holds and a small one stays small. A row larger than a block gets
// a block of its own. used counts the elements rows were stored in,
// dead those of rows since replaced or removed.
type arena[T uint16 | float32] struct {
	blocks     [][]T
	used, dead int
}

const (
	arenaMinBlock = 256
	arenaMaxBlock = 1 << 15
)

// room returns space for n elements at the end of the last block,
// opening a new block when they do not fit. Nothing is stored until
// take claims it; until then the next room call returns the same space.
func (a *arena[T]) room(n int) []T {
	k := len(a.blocks)
	if k == 0 || cap(a.blocks[k-1])-len(a.blocks[k-1]) < n {
		size := arenaMinBlock
		if k > 0 {
			size = min(2*cap(a.blocks[k-1]), arenaMaxBlock)
		}
		a.blocks = append(a.blocks, make([]T, 0, max(size, n)))
		k++
	}
	b := a.blocks[k-1]
	return b[len(b) : len(b)+n : len(b)+n]
}

// take claims the n elements room returned last and reports where they
// start.
func (a *arena[T]) take(n int) (blk, off uint32) {
	k := len(a.blocks) - 1
	b := a.blocks[k]
	a.blocks[k] = b[:len(b)+n]
	a.used += n
	return uint32(k), uint32(len(b))
}

// store copies src into the arena.
func (a *arena[T]) store(src []T) (blk, off uint32) {
	copy(a.room(len(src)), src)
	return a.take(len(src))
}

// slice returns n elements at (blk, off), capped so an append cannot
// reach the next row.
func (a *arena[T]) slice(blk, off uint32, n int) []T {
	return a.blocks[blk][off : int(off)+n : int(off)+n]
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
	least := uint32(math.MaxUint32) // bits of the smallest nonzero magnitude
	for _, v := range vec {
		sq += float64(v) * float64(v)
		if b := math.Float32bits(v); b != 0 {
			nnz++
			least = min(least, b&^signBit)
		}
	}
	ref, counted := rowRef{}, false
	// A -0 makes least 0, and a non-finite value a non-finite sum
	// (squares of float32 values cannot overflow it): neither is a count.
	if s.codes == nil && s.dim <= narrowDim && nnz > 0 && least != 0 && !math.IsInf(sq, 0) && !math.IsNaN(sq) {
		ref, counted = s.addCounts(vec, nnz, least)
	}
	if counted {
		s.countRows++
	} else {
		ref = s.addFloats(vec, nnz)
	}
	n := math.Sqrt(sq)
	if p, ok := s.pos[id]; ok {
		s.release(s.refs[p])
		s.refs[p] = ref
		s.norms[p] = n
		if s.codes != nil {
			s.normSqs[p] = sq
			s.codes.set(p, vec)
		}
		s.compactIfHoley()
		return p
	}
	p := len(s.ids)
	s.pos[id] = p
	s.ids = append(s.ids, id)
	s.refs = append(s.refs, ref)
	s.norms = append(s.norms, n)
	if s.codes != nil {
		s.normSqs = append(s.normSqs, sq)
		s.codes.append(vec)
	}
	return p
}

// addCounts stores vec, holding nnz nonzeros whose smallest magnitude
// has the bits least, as a count row: scale m = that magnitude, and
// each nonzero v as the count c with float32(c)·m == v to the bit and
// 1 ≤ |c| ≤ 127. A HashedEmbedder row is its bucket counts times
// float32(1/norm), so it qualifies whenever some bucket holds ±1 (any
// common divisor of the counts works too). The count is guessed with one
// multiply and checked with one float32 multiply; the first nonzero
// that fails stores nothing and reports false.
func (s *rowSet) addCounts(vec []float32, nnz int, least uint32) (rowRef, bool) {
	size := 3 + nnz
	w := s.words.room(size)
	w[0], w[1], w[2] = uint16(nnz), uint16(least), uint16(least>>16)
	m := math.Float32frombits(least)
	inv := 1 / float64(m)
	j := 0
	for i, v := range vec {
		b := math.Float32bits(v)
		if b == 0 {
			continue
		}
		x := float64(math.Float32frombits(b&^signBit)) * inv
		if !(x < 127.5) {
			return rowRef{}, false
		}
		c := int8(x + 0.5)
		if math.Float32bits(float32(c)*m) != b&^signBit {
			return rowRef{}, false
		}
		if b&signBit != 0 {
			c = -c
		}
		w[3+j] = uint16(i)<<8 | uint16(uint8(c))
		j++
	}
	blk, off := s.words.take(size)
	return rowAt(rowCount, blk, off), true
}

// addFloats stores vec, which holds nnz nonzeros, as float32 values:
// sparse when they take fewer bytes than the dense row (nnz·6 <
// dim·4), dense otherwise. "Nonzero" is by bit pattern: a -0 is
// stored, so the row reproduces its input to the bit.
//
// A quantized set keeps every row dense. Its scan reads the int8 codes
// instead, and those pay only on dense embeddings: a hashed-text row's
// counts (≈52 B at dim 256) are already smaller than its codes (256 B),
// so a quantized set of packed rows would scan more bytes than the exact
// rows it re-ranks hold.
func (s *rowSet) addFloats(vec []float32, nnz int) rowRef {
	if s.codes != nil || nnz*6 >= len(vec)*4 {
		blk, off := s.floats.store(vec)
		return rowAt(rowDense, blk, off)
	}
	size := 1 + 3*nnz
	w := s.words.room(size)
	w[0] = uint16(nnz)
	coords, bits := w[1:1+nnz], w[1+nnz:]
	j := 0
	for i, v := range vec {
		if b := math.Float32bits(v); b != 0 {
			coords[j] = uint16(i)
			bits[2*j], bits[2*j+1] = uint16(b), uint16(b>>16)
			j++
		}
	}
	blk, off := s.words.take(size)
	return rowAt(rowSparse, blk, off)
}

// rowWords returns a count or sparse row's words, header included.
func (s *rowSet) rowWords(ref rowRef) []uint16 {
	blk := ref.blk & blockMask
	nnz := int(s.words.blocks[blk][ref.off])
	size := 1 + 3*nnz
	if ref.kind() == rowCount {
		size = 3 + nnz
	}
	return s.words.slice(blk, ref.off, size)
}

// denseRow returns a dense row's values.
func (s *rowSet) denseRow(ref rowRef) []float32 {
	return s.floats.slice(ref.blk&blockMask, ref.off, s.dim)
}

// countScale is the scale m of a count row's words.
func countScale(w []uint16) float32 {
	return math.Float32frombits(uint32(w[1]) | uint32(w[2])<<16)
}

// eachTerm calls f with the coordinate and value of each of a count or
// sparse row's nonzeros, in ascending coordinate order.
func (s *rowSet) eachTerm(ref rowRef, f func(i int, v float32)) {
	w := s.rowWords(ref)
	if ref.kind() == rowCount {
		m := countScale(w)
		for _, t := range w[3:] {
			f(int(t>>8), float32(int8(t))*m)
		}
		return
	}
	nnz := int(w[0])
	coords, bits := w[1:1+nnz], w[1+nnz:]
	for j, i := range coords {
		f(int(i), math.Float32frombits(uint32(bits[2*j])|uint32(bits[2*j+1])<<16))
	}
}

// release marks a replaced or removed row's elements as a hole.
func (s *rowSet) release(ref rowRef) {
	switch ref.kind() {
	case rowDense:
		s.floats.dead += s.dim
	case rowCount:
		s.countRows--
		fallthrough
	default:
		s.words.dead += len(s.rowWords(ref))
	}
}

// compactMinHoles is the hole bytes below which compactIfHoley waits:
// a small set is not copied for every other write.
const compactMinHoles = 4 << 10

// compactIfHoley compacts once the holes hold more than half as many
// bytes as the live rows, so they never take more than a third of the
// arenas. Each compaction copies the live rows once, and at least half
// as many hole bytes were made since the last, so the copying, two bytes
// per hole byte, is amortised over the writes that made the holes.
func (s *rowSet) compactIfHoley() {
	holes := 2*s.words.dead + 4*s.floats.dead
	if live := 2*s.words.used + 4*s.floats.used - holes; holes >= compactMinHoles && 2*holes > live {
		s.compact()
	}
}

// compact copies every live row, in row order, into fresh arenas whose
// first block holds them all, and drops the old blocks. Callers hold
// the write lock, like every other change to the set; a dense row an
// earlier vector call returned keeps its values, in the old block.
func (s *rowSet) compact() {
	var words arena[uint16]
	var floats arena[float32]
	if n := s.words.used - s.words.dead; n > 0 {
		words.blocks = [][]uint16{make([]uint16, 0, n)}
	}
	if n := s.floats.used - s.floats.dead; n > 0 {
		floats.blocks = [][]float32{make([]float32, 0, n)}
	}
	for row, ref := range s.refs {
		if ref.kind() == rowDense {
			blk, off := floats.store(s.denseRow(ref))
			s.refs[row] = rowAt(rowDense, blk, off)
		} else {
			blk, off := words.store(s.rowWords(ref))
			s.refs[row] = rowAt(ref.kind(), blk, off)
		}
	}
	s.words, s.floats = words, floats
}

// remove deletes id by swapping the last row into its slot. Removing
// an absent id returns false.
func (s *rowSet) remove(id int64) bool {
	p, ok := s.pos[id]
	if !ok {
		return false
	}
	s.release(s.refs[p])
	last := len(s.ids) - 1
	if p != last {
		s.ids[p] = s.ids[last]
		s.refs[p] = s.refs[last]
		s.norms[p] = s.norms[last]
		if s.codes != nil {
			s.normSqs[p] = s.normSqs[last]
			s.codes.moveRow(p, last)
		}
		s.pos[s.ids[p]] = p
	}
	s.ids = s.ids[:last]
	s.refs = s.refs[:last]
	s.norms = s.norms[:last]
	if s.codes != nil {
		s.normSqs = s.normSqs[:last]
		s.codes.truncate()
	}
	delete(s.pos, id)
	s.compactIfHoley()
	return true
}

// vector returns a row as a dim-length slice: the stored slice itself
// for a dense row (callers must not modify it), a fresh copy for any
// other. Build-time code that compares stored rows pairwise (HNSW
// neighbour selection, IVF training) materialises each row once.
func (s *rowSet) vector(row int) []float32 {
	ref := s.refs[row]
	if ref.kind() == rowDense {
		return s.denseRow(ref)
	}
	v := make([]float32, s.dim)
	s.eachTerm(ref, func(i int, x float32) { v[i] = x })
	return v
}

// preparedQuery caches every per-query term the scan reuses across
// comparisons: the float sums and norms (computed once instead of per
// stored vector), the query widened to float64 when the set holds count
// rows, the query's own nonzero coordinates under L2 and, on a quantized set,
// the symmetric int8 quantization of the query feeding the integer dot
// kernel.
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
	// idx/val hold the nonzeros of the row L2 is scoring, reused from
	// row to row.
	idx []uint16
	val []float32
	// When widened, wide[d] is float64(q[d]), which the count-row dot
	// reads without a bounds check or a conversion. prepare widens a
	// finite query of a set that holds count rows; exactScore falls back
	// to eachTerm for a count row met by a query it did not widen.
	wide    [narrowDim]float64
	widened bool
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
		if s.countRows > 0 && pq.finite {
			for d, v := range q {
				pq.wide[d] = float64(v)
			}
			pq.widened = true
		}
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

// exactScore is the metric score against the exact row, with stored
// norms read instead of recomputed — bit-identical to Similarity on the
// same operands. A count or sparse row is walked over its nonzeros (L2:
// over the union with the query's), which adds the same terms in the
// same index order as the dense loop minus exact ±0 terms; the float64
// accumulator starts at +0 and is never -0, so those terms cannot change
// a bit of the sum. A non-finite query takes the dense loop: there a
// skipped Inf·0 term would have been NaN.
func (s *rowSet) exactScore(m Metric, row int, pq *preparedQuery) float64 {
	ref := s.refs[row]
	var dot float64
	switch {
	case m == L2:
		return -s.rowL2Squared(ref, pq)
	case ref.kind() == rowCount && pq.widened:
		// What a hashed-text scan meets: each term is one load. (A count
		// row's kind bits are 0, so ref.blk is its block.)
		w := s.words.blocks[ref.blk][ref.off:]
		scale, terms := countScale(w), w[3:3+int(w[0])]
		q := &pq.wide
		for _, t := range terms {
			dot += q[uint8(t>>8)] * float64(float32(int8(t))*scale)
		}
	case ref.kind() == rowDense:
		dot = dotProduct(pq.vec, s.denseRow(ref))
	case !pq.finite:
		dot = dotProduct(pq.vec, s.vector(row))
	default:
		dot = s.termsDot(ref, pq.vec)
	}
	if m == Dot {
		return dot
	}
	n := s.norms[row]
	if n == 0 || pq.norm == 0 {
		return 0
	}
	return dot / (pq.norm * n)
}

// termsDot is dotProduct(q, row) over a count or sparse row's nonzeros,
// through eachTerm. It is kept out of exactScore so that the closure's
// hold on its accumulator does not send exactScore's through memory.
func (s *rowSet) termsDot(ref rowRef, q []float32) float64 {
	var acc float64
	s.eachTerm(ref, func(i int, v float32) { acc += float64(q[i]) * float64(v) })
	return acc
}

// rowL2Squared is l2Squared(q, row), walked over a count or sparse
// row's nonzeros and the query's.
func (s *rowSet) rowL2Squared(ref rowRef, pq *preparedQuery) float64 {
	if ref.kind() == rowDense {
		return l2Squared(pq.vec, s.denseRow(ref))
	}
	pq.idx, pq.val = pq.idx[:0], pq.val[:0]
	s.eachTerm(ref, func(i int, v float32) {
		pq.idx = append(pq.idx, uint16(i))
		pq.val = append(pq.val, v)
	})
	return l2SquaredSparse(pq.vec, pq.nz, pq.idx, pq.val)
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
		// Every row the arenas hold, holes awaiting compaction included.
		FloatBytes: 2*int64(s.words.used) + 4*int64(s.floats.used),
		// Per row: its arena reference and its norm (8 B each).
		ParamBytes: n * 16,
	}
	if s.codes != nil {
		m.CodeBytes = n * int64(s.dim)
		m.ParamBytes += n * 16 // squared norm, scale and offset
		// Quantized scan: codes + scale/offset + norm.
		m.ScanBytes = m.CodeBytes + n*16
	} else {
		// Exact scan: the live rows, each row's reference and its norm.
		m.ScanBytes = m.FloatBytes - 2*int64(s.words.dead) - 4*int64(s.floats.dead) + n*16
	}
	return m
}

// IndexMemory describes an index's storage footprint, in bytes.
type IndexMemory struct {
	// Vectors is the stored vector count.
	Vectors int `json:"vectors"`
	// FloatBytes is the exact rows (kept for re-ranking even when the
	// scan is quantized): the coordinates, counts and scale of rows
	// stored as counts, the float32 values of every other row plus the
	// uint16 coordinates of those stored as their nonzeros, and the rows
	// replaced or removed since the last compaction. The unfilled tail
	// of each set's newest arena block is not counted.
	FloatBytes int64 `json:"float_bytes"`
	// CodeBytes is the int8 code blocks (0 without quantization).
	CodeBytes int64 `json:"code_bytes"`
	// ParamBytes is per-vector scalar state: each row's arena reference
	// and norm, and under quantization its squared norm, scale and
	// offset.
	ParamBytes int64 `json:"param_bytes"`
	// ScanBytes is what a full scan touches per query — the
	// cache-resident working set: codes+scale/offset+norm when
	// quantized, live exact rows+reference+norm otherwise.
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
