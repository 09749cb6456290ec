//go:build !amd64

package slm

// Off amd64 the forward pass runs the Go kernels of math.go.

func matVecBlockKernel(out, m, x []float32, rows, cols, n int) {
	matVecBlockGo(out, m, x, rows, cols, n)
}

func addKernel(a, b []float32) { addGo(a, b) }

func scoreKeys(scores, q, k []float32, stride int, scale float32) {
	scoreKeysGo(scores, q, k, stride, scale)
}

func weightedSums(out, w, v []float32, heads, n, wStride, vStride int) {
	weightedSumsGo(out, w, v, heads, n, wStride, vStride)
}

func softmaxRows(x []float32, n, stride int) {
	for i := 0; i < len(x); i += stride {
		softmaxGo(x[i : i+n])
	}
}

func normalizeKernel(x, gain, bias []float32, mean, inv float64) {
	normalizeGo(x, gain, bias, mean, inv)
}

func softmaxKernel(x []float32) { softmaxGo(x) }

func geluKernel(x []float32) { geluGo(x) }
