package slm

import "math"

// The 256-bit float32 kernels of kernels_amd64.s compute what the Go
// kernels of math.go compute, to the bit. Each vector lane is one of
// the Go kernel's float32 accumulators and is fed the same products in
// the same order, with a separate multiply and add for each (VMULPS,
// VADDPS: no fused multiply-add, no horizontal or dot-product
// instruction), so every rounding happens where the Go code rounds:
// the block projection (matVecBlockAVX), eight keys per register in the
// attention scores, four eight-wide heads' weighted sums at once, the
// adds, and layer norm's last loop (normalizeAVX, float64 lanes then
// float32 ones). They run only where hasAVX2FMA holds, checked once at
// start-up (wideLanes); elsewhere the Go kernels do all the work. Each
// kernel takes the whole groups it was written for, and the Go kernel
// the shapes it was not.
//
// The float64 softmax and GELU run on AVX2/FMA lanes of math.Exp and
// math.Tanh (the first part of kernels_amd64.s). On amd64 math.Exp is
// one straight-line sequence that itself picks an FMA path at run time,
// and math.Tanh is Go built on it; each lane runs the operations
// math.Exp and math.Tanh run on this CPU, in their order, and the rest
// of both loops keeps the Go code's order too. A lane follows only the
// FMA path, so the lanes are used only where the CPU has AVX2 and FMA
// and a start-up probe finds them equal to math.Exp and math.Tanh on
// inputs where the FMA and the plain path differ: under an FMA-less
// math.Exp, or a Go release that changes it, they switch off rather
// than move a bit. A group of four with a lane out of a lane's range
// (see expSumAVX, geluAVX) goes through the Go code.

// matVecBlockAVX is matVecGo for four positions and the first
// rows&^3 rows of the (rows×cols) matrix m, for cols a multiple of four:
// it sets out[p*rows+r] = m[r]·x[p*cols:(p+1)*cols] for p < 4. Each
// lane is one (position, row, j) accumulator a_j, two positions share a
// register, and each row's four columns are loaded once for all four
// positions.
//
//go:noescape
func matVecBlockAVX(out, m, x []float32, rows, cols int)

// addAVX is addGo for len(a), a multiple of eight, elements.
//
//go:noescape
func addAVX(a, b []float32)

// scoreKeysAVX is scoreKeysGo for len(scores), a multiple of eight,
// keys: one lane per key.
//
//go:noescape
func scoreKeysAVX(scores, q, k []float32, stride int, scale float32)

// weightedSum4AVX is weightedSumsGo for four heads eight wide, one lane
// per coordinate: out[8h+i] = Σ_p w[h*wStride+p]·v[p*vStride+8h+i]
// for p < n.
//
//go:noescape
func weightedSum4AVX(out, w, v []float32, n, wStride, vStride int)

// wideLanes says whether the 256-bit kernels run: the CPU has AVX2 and
// FMA, and the operating system saves the YMM registers.
var wideLanes = hasAVX2FMA()

// padMax is the most rows and the most columns a padded block takes:
// the widest of the verification network's matrices (its FFN's 64).
const padMax = 64

// matVecBlockKernel is matVecBlockGo. The 256-bit kernel takes blocks
// of four positions where the columns come in whole groups of four.
// Past the last whole block, n ≥ 4 positions end in a block that
// overlaps the one before it, and 1–3 positions go through it as one
// block padded with zero positions; each lane holds one position's
// accumulator, so a position computed twice gets the same bits and a
// padding one touches none. The kernel takes the rows up to the last
// group of four; the rows past it, matrices with a column tail, and a
// padded block wider than padMax go through matVecGo.
func matVecBlockKernel(out, m, x []float32, rows, cols, n int) {
	if !wideLanes || cols%4 != 0 || rows < 4 || n < 4 && (rows > padMax || cols > padMax) {
		matVecBlockGo(out, m, x, rows, cols, n)
		return
	}
	if n >= 4 {
		for p := 0; p < n; p += 4 {
			b := min(p, n-4)
			matVecBlockAVX(out[b*rows:(b+4)*rows], m, x[b*cols:(b+4)*cols], rows, cols)
		}
	} else if n > 0 {
		var xs [4 * padMax]float32
		var o [4 * padMax]float32
		copy(xs[:], x)
		matVecBlockAVX(o[:4*rows], m, xs[:4*cols], rows, cols)
		copy(out, o[:n*rows])
	}
	if g := rows &^ 3; g < rows {
		for p := 0; p < n; p++ {
			matVecGo(out[p*rows+g:(p+1)*rows], m[g*cols:], x[p*cols:(p+1)*cols])
		}
	}
}

func addKernel(a, b []float32) {
	b = b[:len(a)]
	n := 0
	if wideLanes {
		if n = len(a) &^ 7; n > 0 {
			addAVX(a[:n], b[:n])
		}
	}
	addGo(a[n:], b[n:])
}

// scoreKeys is scoreKeysGo; k must hold len(q) rows of stride with
// len(scores) keys in each. The 256-bit kernel scores groups of eight
// keys, and the Go kernel the keys after them. Where the rows and
// scores have room for a whole last group — the K cache's rows are
// MaxSeq wide, and the window's scores MaxSeq long — the kernel scores
// the last keys as a whole group: its other lanes read columns that no
// key of this call reads and write scores past len(scores), which no
// caller reads.
func scoreKeys(scores, q, k []float32, stride int, scale float32) {
	done := 0
	if wideLanes {
		if done = keyGroups(scores, q, k, stride); done > 0 {
			scoreKeysAVX(scores[:done], q, k, stride, scale)
		}
	}
	if done < len(scores) {
		scoreKeysGo(scores[done:], q, k[done:], stride, scale)
	}
}

// keyGroups returns where the kernel scoring groups of eight keys
// stops: after the whole groups, or after one more group if the rows
// and scores have room for all of it.
func keyGroups(scores, q, k []float32, stride int) int {
	n := len(scores) &^ 7
	if r := n + 8; n < len(scores) && r <= cap(scores) && r <= stride && (len(q) == 0 || (len(q)-1)*stride+r <= len(k)) {
		n = r
	}
	if n > 0 && len(q) > 0 {
		_ = k[(len(q)-1)*stride+n-1] // the kernel's last read
	}
	return n
}

// weightedSums is weightedSumsGo. Where the heads are eight wide, as in
// the verification network, the 256-bit kernel takes them four at a
// time, one register per head, so that four accumulator chains overlap;
// other heads go through the Go kernel.
func weightedSums(out, w, v []float32, heads, n, wStride, vStride int) {
	hd := len(out) / heads
	h := 0
	if wideLanes && hd == 8 && n > 0 {
		for ; h+4 <= heads; h += 4 {
			_ = w[(h+3)*wStride+n-1]       // the kernel's last weight
			_ = v[(n-1)*vStride+(h+4)*8-1] // and last value
			weightedSum4AVX(out[h*8:(h+4)*8], w[h*wStride:], v[h*8:], n, wStride, vStride)
		}
	}
	for ; h < heads; h++ {
		weightedSumGo(out[h*hd:(h+1)*hd], w[h*wStride:h*wStride+n], v[h*hd:], vStride)
	}
}

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the operating
// system saves the YMM registers.
func hasAVX2FMA() bool

// expAVX sets x[i] = math.Exp(x[i]) for the whole groups of four from
// the start, and returns how many elements it set: it stops at the
// first group with a lane outside [−708, 709] or NaN, where math.Exp
// would take a branch the lanes do not have.
//
//go:noescape
func expAVX(x []float64) int

// tanhAVX sets x[i] = math.Tanh(x[i]) for the whole groups of four from
// the start, and returns how many elements it set: it stops at the
// first group with a NaN lane.
//
//go:noescape
func tanhAVX(x []float64) int

// maxAVX returns the largest of x, which must not be empty; ok is false
// if x holds a NaN. Without one, m equals softmaxGo's scan but for the
// sign of a zero maximum, which changes no output: v − (±0) differs
// only for v = ±0, and Exp(±0) = 1.
//
//go:noescape
func maxAVX(x []float32) (m float32, ok bool)

// expSumAVX is softmaxGo's middle loop from the start of x, taken on by
// a running sum: x[i] = float32(e) and sum += e, one add per element in
// index order, for e = math.Exp(float64(x[i] − maxv)). It works four
// elements at a time, the last one to three as one group, and returns
// how many it did: it stops at the first group where some x[i] − maxv
// is outside [−708, 709] or NaN.
//
//go:noescape
func expSumAVX(x []float32, maxv float32, sum float64) (n int, s float64)

// scaleAVX is softmaxGo's last loop: x[i] = float32(float64(x[i])·inv).
//
//go:noescape
func scaleAVX(x []float32, inv float64)

// geluAVX is geluGo from the start of x, four elements at a time and
// the last one to three as one group. It returns how many elements it
// did: it stops at the first group holding a NaN.
//
//go:noescape
func geluAVX(x []float32) int

// expProbe and tanhProbe are the start-up probe's inputs. The plain
// (non-FMA) path of math.Exp differs from the FMA one on 14 of the 16
// expProbe inputs (TestProbeDiscriminates); tanhProbe covers tanh's
// three branches and their edges.
var (
	expProbe = []float64{
		-707.9, -699.84, -299.98, -39.8, -6.89, -1.93, -0.99, -0.45,
		0, 0.01, 0.35, 1.35, 3.12, 12.02, 60.01, 708.9,
	}
	tanhProbe = []float64{
		math.Copysign(0, -1), 0, 5e-324, -0.3, 0.5, 0.6249, -0.625, 0.675,
		-1.56, 6.01, -30.005, 44.01484596555652, -44.014845965556525, 44.01484596555653, 45, math.Inf(-1),
	}
)

// transcendentalLanes says whether softmax and GELU run on the lanes.
var transcendentalLanes = wideLanes && lanesMatchMath()

// lanesMatchMath runs the lanes on the probe inputs and reports whether
// every result has the bits of math.Exp and math.Tanh.
func lanesMatchMath() bool {
	for _, c := range []struct {
		in   []float64
		lane func([]float64) int
		fn   func(float64) float64
	}{{expProbe, expAVX, math.Exp}, {tanhProbe, tanhAVX, math.Tanh}} {
		x := append([]float64(nil), c.in...)
		if c.lane(x) != len(x) {
			return false
		}
		for i, v := range c.in {
			if math.Float64bits(x[i]) != math.Float64bits(c.fn(v)) {
				return false
			}
		}
	}
	return true
}

// expSum2AVX is expSumAVX on two rows x and y of one length at once,
// with a running sum each, over the whole groups of four from the
// start: the two rows' sums add in their own orders, and their
// dependency chains overlap. It stops at the first group where either
// row has an element out of the lanes' range, and returns how many
// elements of each row it did.
//
//go:noescape
func expSum2AVX(x, y []float32, maxX, maxY float32) (n int, sumX, sumY float64)

// softmaxKernel is softmaxGo.
func softmaxKernel(x []float32) {
	if !transcendentalLanes || len(x) == 0 {
		softmaxGo(x)
		return
	}
	maxv, ok := maxAVX(x)
	if !ok {
		softmaxGo(x) // the scan decides what a NaN makes of the row
		return
	}
	scaleAVX(x, 1/expSumFrom(x, 0, maxv, 0))
}

// expSumFrom is softmaxGo's middle loop from x[i] on, taken on by the
// running sum of the elements before it, which it returns.
func expSumFrom(x []float32, i int, maxv float32, sum float64) float64 {
	for i < len(x) {
		var n int
		n, sum = expSumAVX(x[i:], maxv, sum)
		// The group after the first n elements, if any, has a lane out
		// of the lanes' range.
		end := min(i+n+4, len(x))
		for i += n; i < end; i++ {
			e := math.Exp(float64(x[i] - maxv))
			x[i] = float32(e)
			sum += e
		}
	}
	return sum
}

// softmaxRows is softmaxGo on the first n elements of every row of x,
// stride wide. The lanes take the rows two at a time.
func softmaxRows(x []float32, n, stride int) {
	r := 0
	for ; r+2*stride <= len(x); r += 2 * stride {
		softmaxPair(x[r:r+n], x[r+stride:r+stride+n])
	}
	if r < len(x) {
		softmaxKernel(x[r : r+n])
	}
}

// softmaxPair is softmaxGo on x and on y, which are equally long.
func softmaxPair(x, y []float32) {
	if !transcendentalLanes || len(x) == 0 {
		softmaxKernel(x)
		softmaxKernel(y)
		return
	}
	maxX, okX := maxAVX(x)
	maxY, okY := maxAVX(y)
	if !okX || !okY {
		softmaxKernel(x)
		softmaxKernel(y)
		return
	}
	n, sumX, sumY := expSum2AVX(x, y, maxX, maxY)
	scaleAVX(x, 1/expSumFrom(x, n, maxX, sumX))
	scaleAVX(y, 1/expSumFrom(y, n, maxY, sumY))
}

// normalizeAVX is normalizeGo for the whole groups of four elements
// of x from the start: each goes through float64 lanes for the
// subtraction and the scaling, and float32 lanes for the gain and
// bias, rounding where the Go code rounds.
//
//go:noescape
func normalizeAVX(x, gain, bias []float32, mean, inv float64)

// normalizeKernel is normalizeGo.
func normalizeKernel(x, gain, bias []float32, mean, inv float64) {
	n := 0
	if wideLanes {
		n = len(x) &^ 3
		if n > 0 {
			_, _ = gain[n-1], bias[n-1] // the kernel's last reads
			normalizeAVX(x[:n], gain, bias, mean, inv)
		}
	}
	normalizeGo(x[n:], gain[n:], bias[n:], mean, inv)
}

// geluKernel is geluGo.
func geluKernel(x []float32) {
	if !transcendentalLanes {
		geluGo(x)
		return
	}
	for len(x) > 0 {
		n := geluAVX(x)
		end := min(n+4, len(x))
		geluGo(x[n:end])
		x = x[end:]
	}
}
