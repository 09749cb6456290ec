package slm

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// kernelValues are the float32s the kernel fuzzer mixes into its
// inputs besides arbitrary bit patterns: signed zeros, the denormal
// range, the largest finite values, infinities and NaNs with either
// sign and more than one payload, one of them signalling.
var kernelValues = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, 0x00400000, // denormals
	0x00800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc00123, 0x7f800001, // NaNs
	0x3f800000, 0xbf800000, 0x3e800000, // 1, -1, 0.25
}

// kernelInput turns a few fuzz bytes into shapes, one byte each, and
// float32 values drawn from a source seeded by eight more bytes, so that
// an input stays short however many values it stands for. A byte after
// the seed sets how often a value is one of kernelValues; otherwise it
// is arbitrary bits or, mostly, a moderate value, so that long sums
// round rather than overflow.
type kernelInput struct {
	data    []byte
	src     *rand.Rand
	special int // out of 256
}

func (in *kernelInput) byte() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

// size returns a length in [lo, lo+span).
func (in *kernelInput) size(lo, span int) int { return lo + int(in.byte())%span }

// seed starts the value source from the next bytes.
func (in *kernelInput) seed() {
	var b [8]byte
	for i := range b {
		b[i] = in.byte()
	}
	in.src = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[:]))))
	in.special = int(in.byte())
}

func (in *kernelInput) float32() float32 {
	r := in.src.Uint32()
	switch {
	case int(r&0xff) < in.special:
		return math.Float32frombits(kernelValues[int(r>>8)%len(kernelValues)])
	case r&0x300 == 0:
		return math.Float32frombits(in.src.Uint32())
	default:
		return float32(int32(in.src.Uint32())) / (1 << 28)
	}
}

// expTanhValues are the float64s the kernel fuzzer mixes into the
// inputs of the exp and tanh lanes: signed zeros, denormals, infinities
// and NaNs, the edges of the lanes' exp range (−708 and 709, against
// math.Exp's −745.13 and 709.78) and tanh's branch points 0.625 and
// 0.5·MAXLOG with their neighbours.
var expTanhValues = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000123),
	-745.2, -745.1, -709, math.Nextafter(-708, -1000), -708, math.Nextafter(-708, 0),
	math.Nextafter(709, 0), 709, math.Nextafter(709, 1000), 709.79, 709.7, 800,
	0.625, math.Nextafter(0.625, 0), -0.625, math.Nextafter(-0.625, 0),
	halfMaxlog, math.Nextafter(halfMaxlog, 0), math.Nextafter(halfMaxlog, 100), -halfMaxlog,
	1e-9, -3e-200, 1, -1,
}

// halfMaxlog is where math.Tanh starts returning ±1 outright.
const halfMaxlog = 0.5 * 8.8029691931113054295988e+01

// float64 is an exp or tanh lane input: one of expTanhValues, arbitrary
// bits, or a moderate value scaled to somewhere between ±8 and ±1024.
func (in *kernelInput) float64() float64 {
	r := in.src.Uint32()
	switch {
	case int(r&0xff) < in.special:
		return expTanhValues[int(r>>8)%len(expTanhValues)]
	case r&0x300 == 0:
		return math.Float64frombits(in.src.Uint64())
	default:
		return float64(int32(in.src.Uint32())) / float64(int64(1)<<(21+r>>10&7))
	}
}

// logits returns n moderate float32s, between ±8 times a spread of
// 1/4 to 32, among which one of kernelValues turns up at the input's
// special rate: unlike floats, no arbitrary bit patterns, whose huge
// values would send most rows through the scalar fallback.
func (in *kernelInput) logits(n int) []float32 {
	spread := float32(int64(1)<<in.src.Intn(8)) / 4
	out := make([]float32, n)
	for i := range out {
		r := in.src.Uint32()
		if int(r&0xff) < in.special {
			out[i] = math.Float32frombits(kernelValues[int(r>>8)%len(kernelValues)])
		} else {
			out[i] = spread * float32(int32(in.src.Uint32())) / (1 << 28)
		}
	}
	return out
}

func (in *kernelInput) floats(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = in.float32()
	}
	return out
}

// sameBits fails unless got and want hold the same bit patterns, where
// any NaN matches any NaN: x86 hands on the payload and sign of one of
// the NaNs an operation reads, and which one depends on the operand
// order the compiler picks for a commutative Go operator — something
// the language does not fix and the compiler may change. Whether a
// result is NaN is still pinned.
func sameBits(t *testing.T, kernel string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) && !(isNaN32(got[i]) && isNaN32(want[i])) {
			t.Fatalf("%s: element %d of %d is %#08x, Go kernel %#08x", kernel, i, len(want), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func isNaN32(v float32) bool { return v != v }

// FuzzKernelsMatchGeneric holds the kernels the forward pass calls —
// the SSE ones on amd64 — to the Go kernels of math.go, bit for bit, on
// shapes the verification network does not have (row, column, key and
// coordinate counts that are not multiples of four, strides wider than
// the data) and on values it never produces.
func FuzzKernelsMatchGeneric(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzKernelsMatchGeneric (the verification
	// network's 32×32 and 32×64 matrices and head width 8, ragged
	// shapes, mostly special values, the largest shapes).
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &kernelInput{data: data}
		rows, cols := in.size(0, 70), in.size(0, 70)
		n := in.size(0, 70)
		// One attention head: dims coordinates and steps positions, with
		// the keys dims-major in rows of kStride ≥ steps and the values
		// position-major in rows of vStride ≥ dims.
		dims, steps := in.size(1, 20), in.size(1, 100)
		kStride, vStride := steps+in.size(0, 40), dims+in.size(0, 40)
		in.seed()

		m, x := in.floats(rows*cols), in.floats(cols)
		got, want := make([]float32, rows), make([]float32, rows)
		matVec(got, m, x, rows, cols)
		matVecGo(want, m, x)
		sameBits(t, "matVec", got, want)

		a, b := in.floats(n), in.floats(n)
		wantSum := append([]float32(nil), a...)
		addInPlace(a, b)
		addGo(wantSum, b)
		sameBits(t, "addInPlace", a, wantSum)

		// Whole rows of keys, as in the K cache. Where the rows and the
		// scores have room, scoreKeys scores the last keys as a whole
		// group of four; the columns it then reads past steps hold NaN
		// and ±Inf, which no valid key may see.
		q, k := in.floats(dims), in.floats(dims*kStride)
		for i := 0; i < dims; i++ {
			for p := steps; p < min(steps+3, kStride); p++ {
				k[i*kStride+p] = math.Float32frombits(kernelValues[8+(i+p)%6])
			}
		}
		scale := in.float32()
		gotScores, wantScores := make([]float32, steps, steps+3), make([]float32, steps)
		scoreKeys(gotScores, q, k, kStride, scale)
		scoreKeysGo(wantScores, q, k, kStride, scale)
		sameBits(t, "scoreKeys", gotScores, wantScores)

		// Attention: softmax over steps scores, against the Go loop the
		// kernel replaced.
		gotScores = in.logits(steps)
		wantScores = append([]float32(nil), gotScores...)
		softmaxInPlace(gotScores)
		refSoftmax(wantScores)
		sameBits(t, "softmaxInPlace", gotScores, wantScores)

		w, v := in.floats(steps), in.floats((steps-1)*vStride+dims)
		gotOut, wantOut := make([]float32, dims), make([]float32, dims)
		weightedSum(gotOut, w, v, vStride)
		weightedSumGo(wantOut, w, v, vStride)
		sameBits(t, "weightedSum", gotOut, wantOut)

		// The FFN: gelu over rows values.
		got = in.logits(rows)
		wantGelu := append([]float32(nil), got...)
		gelu(got)
		refGelu(wantGelu)
		sameBits(t, "gelu", got, wantGelu)

		// The exp and tanh lanes on their own.
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = in.float64()
		}
		checkExpTanh(t, xs)
	})
}

// TestKernelsEveryLength runs softmaxInPlace and gelu, and the exp and
// tanh lanes, on every length from 0 to 130 — every count of whole
// groups and every tail — against the Go loops they replaced: on
// moderate values, on moderate values with special ones at any
// position, and on arbitrary bits.
func TestKernelsEveryLength(t *testing.T) {
	for _, special := range []int{0, 8, 64} {
		in := &kernelInput{src: rand.New(rand.NewSource(int64(special))), special: special}
		for n := 0; n <= 130; n++ {
			for _, x := range [][]float32{in.logits(n), in.floats(n)} {
				want := append([]float32(nil), x...)
				got := append([]float32(nil), x...)
				softmaxInPlace(got)
				refSoftmax(want)
				sameBits(t, "softmaxInPlace", got, want)

				copy(want, x)
				copy(got, x)
				gelu(got)
				refGelu(want)
				sameBits(t, "gelu", got, want)
			}

			xs := make([]float64, n)
			for i := range xs {
				xs[i] = in.float64()
			}
			checkExpTanh(t, xs)
		}
	}
}

// TestSoftmaxZeroAndNaNMaxima pins the bits softmaxInPlace gives where a
// maximum found four lanes at a time can differ from the scalar scan's:
// a maximum of +0 or −0 (the scan keeps the first of equal zeros), and
// NaN, which the scan skips unless it comes first. Outputs that are NaN
// are pinned as NaN, whatever their payload.
func TestSoftmaxZeroAndNaNMaxima(t *testing.T) {
	var (
		negZero = float32(math.Copysign(0, -1))
		posInf  = float32(math.Inf(1))
		negInf  = float32(math.Inf(-1))
		nan     = float32(math.NaN())
	)
	for _, c := range []struct {
		name string
		in   []float32
		want []uint32
	}{
		{"+0 max first", []float32{0, -1, -2.5, negZero},
			[]uint32{0x3ed0fb8d, 0x3e19c2c6, 0x3d093c16, 0x3ed0fb8d}},
		{"-0 max first, +0 later", []float32{negZero, -1, 0, -3},
			[]uint32{0x3ed3c642, 0x3e1bd0a0, 0x3ed3c642, 0x3ca8b2b4}},
		{"+0 then -0", []float32{-2, 0, -0.5, negZero, -1},
			[]uint32{0x3d3241bf, 0x3ea4a4ca, 0x3e47b911, 0x3ea4a4ca, 0x3df246b1}},
		{"-0 max only", []float32{-1, negZero, -4, -0.25, negZero},
			[]uint32{0x3dee0bfb, 0x3ea1c502, 0x3bbda05e, 0x3e7bf8f8, 0x3ea1c502}},
		{"±0 max past eight", []float32{-1, -2, -3, -4, -5, -6, -7, -8, -0.5, negZero, -9, 0, -1.5},
			[]uint32{0x3ddcd790, 0x3d227c8a, 0x3c6f1a0c, 0x3bafebd6, 0x3b016f84, 0x3a3e7781, 0x398c233d, 0x38ce370c, 0x3e360db1, 0x3e9613e5, 0x3817b97b, 0x3e9613e5, 0x3d85f28d}},
		{"all equal", []float32{2.5, 2.5, 2.5, 2.5, 2.5},
			[]uint32{0x3e4ccccd, 0x3e4ccccd, 0x3e4ccccd, 0x3e4ccccd, 0x3e4ccccd}},
		{"all equal, nine", []float32{-7, -7, -7, -7, -7, -7, -7, -7, -7},
			[]uint32{0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39, 0x3de38e39}},
		{"all zeros, both signs", []float32{negZero, 0, negZero, 0, negZero, 0, negZero},
			[]uint32{0x3e124925, 0x3e124925, 0x3e124925, 0x3e124925, 0x3e124925, 0x3e124925, 0x3e124925}},
		{"all -Inf", []float32{negInf, negInf, negInf},
			[]uint32{0x7fc00000, 0x7fc00000, 0x7fc00000}},
		{"NaN first", []float32{nan, 1, 2},
			[]uint32{0x7fc00000, 0x7fc00000, 0x7fc00000}},
		{"NaN later", []float32{1, 5, nan, 2, 3, 4},
			[]uint32{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000}},
		{"NaN last of nine", []float32{1, 2, 3, 4, 5, 6, 7, 8, nan},
			[]uint32{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000}},
		{"+Inf", []float32{posInf, 1, negInf, 2},
			[]uint32{0x7fc00000, 0x7fc00000, 0x7fc00000, 0x7fc00000}},
		{"-Inf", []float32{negInf, 0, 1, negInf, 2, -800},
			[]uint32{0x00000000, 0x3db861f3, 0x3e7a9a1a, 0x00000000, 0x3f2a4d3b, 0x00000000}},
		{"single", []float32{3.5}, []uint32{0x3f800000}},
		{"single -0", []float32{negZero}, []uint32{0x3f800000}},
		{"single NaN", []float32{nan}, []uint32{0x7fc00000}},
		{"single +Inf", []float32{posInf}, []uint32{0x7fc00000}},
	} {
		x := append([]float32(nil), c.in...)
		softmaxInPlace(x)
		want := make([]float32, len(c.want))
		for i, b := range c.want {
			want[i] = math.Float32frombits(b)
		}
		t.Run(c.name, func(t *testing.T) { sameBits(t, "softmaxInPlace", x, want) })
	}
}
