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

		q, k := in.floats(dims), in.floats((dims-1)*kStride+steps)
		scale := in.float32()
		gotScores, wantScores := make([]float32, steps), make([]float32, steps)
		scoreKeys(gotScores, q, k, kStride, scale)
		scoreKeysGo(wantScores, q, k, kStride, scale)
		sameBits(t, "scoreKeys", gotScores, wantScores)

		w, v := in.floats(steps), in.floats((steps-1)*vStride+dims)
		gotOut, wantOut := make([]float32, dims), make([]float32, dims)
		weightedSum(gotOut, w, v, vStride)
		weightedSumGo(wantOut, w, v, vStride)
		sameBits(t, "weightedSum", gotOut, wantOut)
	})
}
