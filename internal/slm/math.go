package slm

import (
	"fmt"
	"math"
)

// This file holds the dense linear-algebra kernels behind the
// transformer engine. Everything is float32 row-major, mirroring how
// inference runtimes lay out weights; accumulation happens in float64
// where it protects softmax/norm stability.

// matVecBlock computes out[p] = M·x[p] for each of n positions p, for
// an (rows×cols) row-major matrix M: x holds the positions' inputs
// position-major, cols apiece, and out their outputs, rows apiece. The
// function panics on shape mismatch because that is always a
// programming error, never a data error. Each output has matVecGo's
// arithmetic; on amd64 a kernel reads each row of M once per block of
// positions (kernels_amd64.go).
func matVecBlock(out, m, x []float32, rows, cols, n int) {
	if len(m) != rows*cols || len(x) != n*cols || len(out) != n*rows {
		panic(fmt.Sprintf("slm: matVec shape mismatch m=%d x=%d out=%d rows=%d cols=%d n=%d",
			len(m), len(x), len(out), rows, cols, n))
	}
	matVecBlockKernel(out, m, x, rows, cols, n)
}

// matVecBlockGo is matVecBlock one position at a time.
func matVecBlockGo(out, m, x []float32, rows, cols, n int) {
	for p := 0; p < n; p++ {
		matVecGo(out[p*rows:(p+1)*rows], m, x[p*cols:(p+1)*cols])
	}
}

// matVecGo is M·x for len(out) rows of len(x) columns: each row is
// a dot product over four accumulators, a_j holding the columns ≡ j
// (mod 4) in ascending order, reduced as ((a0+a1)+a2)+a3, and the
// columns past the last multiple of four added to that in order.
func matVecGo(out, m, x []float32) {
	cols := len(x)
	for r := range out {
		row := m[r*cols : (r+1)*cols : (r+1)*cols]
		// 4-way unrolled dot product with the accumulators in
		// registers; full-slice expressions pin the bounds so the
		// compiler checks once per 4 columns, not once per element.
		i := 0
		var a0, a1, a2, a3 float32
		for ; i+4 <= cols; i += 4 {
			rv := row[i : i+4 : i+4]
			xv := x[i : i+4 : i+4]
			a0 += rv[0] * xv[0]
			a1 += rv[1] * xv[1]
			a2 += rv[2] * xv[2]
			a3 += rv[3] * xv[3]
		}
		acc := a0 + a1 + a2 + a3
		for ; i < cols; i++ {
			acc += row[i] * x[i]
		}
		out[r] = acc
	}
}

// addInPlace computes a += b.
func addInPlace(a, b []float32) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("slm: add length mismatch %d vs %d", len(a), len(b)))
	}
	addKernel(a, b)
}

// addRows adds b to every len(b)-wide row of a.
func addRows(a, b []float32) {
	if len(b) == 0 || len(a)%len(b) != 0 {
		panic(fmt.Sprintf("slm: add length mismatch %d vs rows of %d", len(a), len(b)))
	}
	for i := 0; i < len(a); i += len(b) {
		addKernel(a[i:i+len(b)], b)
	}
}

// addGo computes a += b over len(a) elements.
func addGo(a, b []float32) {
	b = b[:len(a)]
	for i := range a {
		a[i] += b[i]
	}
}

// scoreKeysGo sets scores[p] = scale·Σ_i q[i]·k[i*stride+p] for every
// p < len(scores): k holds one head's keys dims-major, coordinate i of
// every position in a row of stride. Each score is one accumulator that
// starts at +0 and adds the products in ascending i — the order of a
// dot product per key — and is then scaled. The loops run along the
// rows, so consecutive keys are consecutive in memory.
func scoreKeysGo(scores, q, k []float32, stride int, scale float32) {
	for p := range scores {
		scores[p] = 0
	}
	for i, qi := range q {
		row := k[i*stride : i*stride+len(scores)]
		for p, kv := range row {
			scores[p] += qi * kv
		}
	}
	for p := range scores {
		scores[p] *= scale
	}
}

// weightedSumGo sets out[i] = Σ_p w[p]·v[p*stride+i] for every
// i < len(out): v holds one head's values position-major. Each output
// coordinate is one accumulator over the positions in ascending order;
// four of them are kept in registers at a time.
func weightedSumGo(out, w, v []float32, stride int) {
	n := len(out)
	i := 0
	for ; i+4 <= n; i += 4 {
		var a0, a1, a2, a3 float32
		for p, wp := range w {
			j := p*stride + i
			vv := v[j : j+4 : j+4]
			a0 += wp * vv[0]
			a1 += wp * vv[1]
			a2 += wp * vv[2]
			a3 += wp * vv[3]
		}
		o := out[i : i+4 : i+4]
		o[0], o[1], o[2], o[3] = a0, a1, a2, a3
	}
	for ; i < n; i++ {
		var a float32
		for p, wp := range w {
			a += wp * v[p*stride+i]
		}
		out[i] = a
	}
}

// weightedSumsGo is weightedSumGo for each of the heads: head h's
// coordinates out[h*hd:(h+1)*hd], hd = len(out)/heads, weigh the
// first n weights of row h of w, wStride wide, against coordinates
// h*hd.. of v's rows of vStride.
func weightedSumsGo(out, w, v []float32, heads, n, wStride, vStride int) {
	hd := len(out) / heads
	for h := 0; h < heads; h++ {
		weightedSumGo(out[h*hd:(h+1)*hd], w[h*wStride:h*wStride+n], v[h*hd:], vStride)
	}
}

// layerNorm normalizes x to zero mean and unit variance, then applies
// elementwise gain and bias. eps guards the division for near-constant
// activations.
func layerNorm(x, gain, bias []float32, eps float64) {
	n := len(x)
	if n == 0 {
		return
	}
	var mean float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(n)
	var varsum float64
	for _, v := range x {
		d := float64(v) - mean
		varsum += d * d
	}
	inv := 1 / math.Sqrt(varsum/float64(n)+eps)
	for i := range x {
		x[i] = float32((float64(x[i])-mean)*inv)*gain[i] + bias[i]
	}
}

// layerNormRows is layerNorm on every len(gain)-wide row of x. Four
// rows at a time share each loop, with a float64 sum apiece, so the
// sums' dependency chains overlap; every row still adds its own terms
// in its own order and so has layerNorm's bits. The last loop is
// normalizeKernel's, which on amd64 runs four lanes at a time.
func layerNormRows(x, gain, bias []float32, eps float64) {
	n := len(gain)
	if n == 0 || len(x)%n != 0 {
		panic(fmt.Sprintf("slm: layerNorm length mismatch %d vs rows of %d", len(x), n))
	}
	gain, bias = gain[:n:n], bias[:n:n]
	for ; len(x) >= 4*n; x = x[4*n:] {
		r0, r1, r2, r3 := x[:n:n], x[n:2*n:2*n], x[2*n:3*n:3*n], x[3*n:4*n:4*n]
		r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
		var m0, m1, m2, m3 float64
		for i, v := range r0 {
			m0 += float64(v)
			m1 += float64(r1[i])
			m2 += float64(r2[i])
			m3 += float64(r3[i])
		}
		m0 /= float64(n)
		m1 /= float64(n)
		m2 /= float64(n)
		m3 /= float64(n)
		var v0, v1, v2, v3 float64
		for i, v := range r0 {
			d0 := float64(v) - m0
			d1 := float64(r1[i]) - m1
			d2 := float64(r2[i]) - m2
			d3 := float64(r3[i]) - m3
			v0 += d0 * d0
			v1 += d1 * d1
			v2 += d2 * d2
			v3 += d3 * d3
		}
		normalizeKernel(r0, gain, bias, m0, 1/math.Sqrt(v0/float64(n)+eps))
		normalizeKernel(r1, gain, bias, m1, 1/math.Sqrt(v1/float64(n)+eps))
		normalizeKernel(r2, gain, bias, m2, 1/math.Sqrt(v2/float64(n)+eps))
		normalizeKernel(r3, gain, bias, m3, 1/math.Sqrt(v3/float64(n)+eps))
	}
	for ; len(x) > 0; x = x[n:] {
		layerNorm(x[:n], gain, bias, eps)
	}
}

// normalizeGo is layerNorm's last loop: x[i] becomes
// float32((x[i]−mean)·inv)·gain[i] + bias[i].
func normalizeGo(x, gain, bias []float32, mean, inv float64) {
	gain, bias = gain[:len(x)], bias[:len(x)]
	for i, v := range x {
		x[i] = float32((float64(v)-mean)*inv)*gain[i] + bias[i]
	}
}

// gelu applies the tanh-approximated Gaussian error linear unit used by
// GPT-family FFNs. The arithmetic is geluGo's; on amd64 AVX2 lanes of
// math.Tanh do it four elements at a time (kernels_amd64.go).
func gelu(x []float32) { geluKernel(x) }

// geluGo is gelu.
func geluGo(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/π)
	for i, v := range x {
		f := float64(v)
		x[i] = float32(0.5 * f * (1 + math.Tanh(c*(f+0.044715*f*f*f))))
	}
}

// softmaxInPlace converts logits to probabilities with the max-shift
// trick for numerical stability. The arithmetic is softmaxGo's; on
// amd64 AVX2 lanes of math.Exp do it four elements at a time
// (kernels_amd64.go).
func softmaxInPlace(x []float32) { softmaxKernel(x) }

// softmaxGo is softmaxInPlace.
func softmaxGo(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		x[i] = float32(e)
		sum += e
	}
	inv := 1 / sum
	for i := range x {
		x[i] = float32(float64(x[i]) * inv)
	}
}
