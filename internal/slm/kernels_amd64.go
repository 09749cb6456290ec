package slm

import "math"

// The SSE kernels in kernels_amd64.s compute what the Go kernels of
// math.go compute, to the bit. Each vector lane is one of the Go
// kernel's float32 accumulators and is fed the same products in the
// same order, with a separate multiply and add for each (MULPS, ADDPS:
// no fused multiply-add, no horizontal or dot-product instruction), so
// every rounding happens where the Go code rounds. SSE2 is part of
// every amd64 CPU, so these kernels need no check at run time. Each
// kernel takes the whole groups — of eight rows, of four keys,
// coordinates or elements — and the Go kernel does the rest.
//
// The float64 softmax and GELU run on AVX2/FMA lanes of math.Exp and
// math.Tanh (the second half of kernels_amd64.s). On amd64 math.Exp is
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

// matVecSSE is matVecGo for len(out), a multiple of eight, rows.
//
//go:noescape
func matVecSSE(out, m, x []float32)

// addSSE is addGo for len(a), a multiple of four, elements.
//
//go:noescape
func addSSE(a, b []float32)

// scoreKeysSSE is scoreKeysGo for len(scores), a multiple of four,
// keys: one lane per key.
//
//go:noescape
func scoreKeysSSE(scores, q, k []float32, stride int, scale float32)

// weightedSumSSE is weightedSumGo for len(out), a multiple of four,
// coordinates: one lane per coordinate.
//
//go:noescape
func weightedSumSSE(out, w, v []float32, stride int)

func matVecKernel(out, m, x []float32) {
	cols := len(x)
	n := len(out) &^ 7
	if n > 0 {
		matVecSSE(out[:n], m[:n*cols], x)
	}
	if n < len(out) {
		matVecGo(out[n:], m[n*cols:], x)
	}
}

func addKernel(a, b []float32) {
	b = b[:len(a)]
	n := len(a) &^ 3
	if n > 0 {
		addSSE(a[:n], b[:n])
	}
	addGo(a[n:], b[n:])
}

// scoreKeys is scoreKeysGo; k must hold len(q) rows of stride with
// len(scores) keys in each. Where the rows and scores have room for a
// whole last group — the K cache's rows are MaxSeq wide, and the
// session's scores MaxSeq long — the SSE kernel scores the last one to
// three keys as a group of four: its other lanes read columns that no
// key of this call reads and write scores past len(scores), which no
// caller reads.
func scoreKeys(scores, q, k []float32, stride int, scale float32) {
	n := len(scores) &^ 3
	if r := (len(scores) + 3) &^ 3; r > n && r <= cap(scores) && r <= stride && (len(q) == 0 || (len(q)-1)*stride+r <= len(k)) {
		n = r
	}
	if n > 0 {
		if len(q) > 0 {
			_ = k[(len(q)-1)*stride+n-1] // the kernel's last read
		}
		scoreKeysSSE(scores[:n], q, k, stride, scale)
	}
	if n < len(scores) {
		scoreKeysGo(scores[n:], q, k[n:], stride, scale)
	}
}

// weightedSum is weightedSumGo; v must hold len(w) rows of stride
// with len(out) coordinates in each.
func weightedSum(out, w, v []float32, stride int) {
	n := len(out) &^ 3
	if n > 0 {
		if len(w) > 0 {
			_ = v[(len(w)-1)*stride+n-1] // the kernel's last read
		}
		weightedSumSSE(out[:n], w, v, stride)
	}
	if n < len(out) {
		weightedSumGo(out[n:], w, v[n:], stride)
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
var transcendentalLanes = hasAVX2FMA() && lanesMatchMath()

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
	var sum float64
	for i := 0; i < len(x); {
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
	scaleAVX(x, 1/sum)
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
