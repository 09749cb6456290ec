package slm

// The SSE kernels in kernels_amd64.s compute what the Go kernels of
// math.go compute, to the bit. Each vector lane is one of the Go
// kernel's float32 accumulators and is fed the same products in the
// same order, with a separate multiply and add for each (MULPS, ADDPS:
// no fused multiply-add, no horizontal or dot-product instruction), so
// every rounding happens where the Go code rounds. SSE2 is part of
// every amd64 CPU, so there is nothing to detect at run time. Each
// kernel takes the whole groups — of eight rows, of four keys,
// coordinates or elements — and the Go kernel does the rest.

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
// len(scores) keys in each.
func scoreKeys(scores, q, k []float32, stride int, scale float32) {
	n := len(scores) &^ 3
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
