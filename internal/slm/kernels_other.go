//go:build !amd64

package slm

// Off amd64 the forward pass runs the Go kernels of math.go.

func matVecKernel(out, m, x []float32) { matVecGo(out, m, x) }

func addKernel(a, b []float32) { addGo(a, b) }

func scoreKeys(scores, q, k []float32, stride int, scale float32) {
	scoreKeysGo(scores, q, k, stride, scale)
}

func weightedSum(out, w, v []float32, stride int) { weightedSumGo(out, w, v, stride) }

func softmaxKernel(x []float32) { softmaxGo(x) }

func geluKernel(x []float32) { geluGo(x) }
