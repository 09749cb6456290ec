package slm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tokenizer"
)

// The reference forward pass: verbatim copies of Session.step, matVec
// and dot as they were before the attention and matVec kernels kept
// their accumulators in registers, and of softmaxInPlace and gelu as
// they were before the AVX2 lanes of math.Exp and math.Tanh, renamed
// with a ref prefix. The fuzzer below holds the current kernels to
// them, bit for bit, on shapes the verification network does not have.

// refStep consumes one token ID, computing as far as dp asks.
func (s *Session) refStep(id int, dp depth) error {
	t := s.t
	cfg := t.cfg
	if s.pos >= cfg.MaxSeq {
		return fmt.Errorf("%w (max %d)", ErrSequenceTooLong, cfg.MaxSeq)
	}
	if id < 0 || id >= cfg.VocabSize {
		return fmt.Errorf("slm: token id %d out of vocab range %d", id, cfg.VocabSize)
	}
	d := cfg.Dim
	// Embedding = token + position.
	copy(s.x, t.tokEmb[id*d:(id+1)*d])
	addInPlace(s.x, t.posEmb[s.pos*d:(s.pos+1)*d])

	headDim := d / cfg.Heads
	scale := float32(1 / math.Sqrt(float64(headDim)))
	steps := s.pos + 1
	scores := s.scores[:steps]
	for l := range t.layers {
		lw := &t.layers[l]
		// --- attention sublayer (pre-LN) ---
		copy(s.xn, s.x)
		layerNorm(s.xn, lw.ln1g, lw.ln1b, 1e-5)
		refMatVec(s.k, lw.wk, s.xn, d, d)
		refMatVec(s.v, lw.wv, s.xn, d, d)
		s.kCache[l] = append(s.kCache[l], s.k...)
		s.vCache[l] = append(s.vCache[l], s.v...)
		if dp == depthKV && l == len(t.layers)-1 {
			break
		}
		refMatVec(s.q, lw.wq, s.xn, d, d)
		// Causal attention: the new query attends to all cached keys.
		for h := 0; h < cfg.Heads; h++ {
			qh := s.q[h*headDim : (h+1)*headDim]
			// softmax over `steps` scores.
			for p := 0; p < steps; p++ {
				kh := s.kCache[l][p*d+h*headDim : p*d+(h+1)*headDim]
				scores[p] = refDot(qh, kh) * scale
			}
			refSoftmax(scores)
			out := s.attnOut[h*headDim : (h+1)*headDim]
			for i := range out {
				out[i] = 0
			}
			for p := 0; p < steps; p++ {
				vh := s.vCache[l][p*d+h*headDim : p*d+(h+1)*headDim]
				w := scores[p]
				for i := range out {
					out[i] += w * vh[i]
				}
			}
		}
		refMatVec(s.xn, lw.wo, s.attnOut, d, d)
		addInPlace(s.x, s.xn)
		// --- FFN sublayer (pre-LN) ---
		copy(s.xn, s.x)
		layerNorm(s.xn, lw.ln2g, lw.ln2b, 1e-5)
		refMatVec(s.ffnHid, lw.w1, s.xn, cfg.FFNDim, d)
		addInPlace(s.ffnHid, lw.b1)
		refGelu(s.ffnHid)
		refMatVec(s.ffnOut, lw.w2, s.ffnHid, d, cfg.FFNDim)
		addInPlace(s.ffnOut, lw.b2)
		addInPlace(s.x, s.ffnOut)
	}
	s.pos++
	if dp < depthLogits {
		return nil
	}
	// Final norm + tied output head.
	copy(s.xn, s.x)
	layerNorm(s.xn, t.lnFg, t.lnFb, 1e-5)
	refMatVec(s.logits, t.tokEmb, s.xn, cfg.VocabSize, d)
	return nil
}

// refMatVec computes out = M·x for an (rows×cols) row-major matrix M.
// len(x) must equal cols and len(out) rows; the function panics on
// shape mismatch because that is always a programming error, never a
// data error.
func refMatVec(out []float32, m []float32, x []float32, rows, cols int) {
	if len(m) != rows*cols || len(x) != cols || len(out) != rows {
		panic(fmt.Sprintf("slm: matVec shape mismatch m=%d x=%d out=%d rows=%d cols=%d",
			len(m), len(x), len(out), rows, cols))
	}
	for r := 0; r < rows; r++ {
		row := m[r*cols : (r+1)*cols]
		var acc float32
		// 4-way unrolled dot product; the compiler keeps the
		// accumulators in registers.
		i := 0
		var a0, a1, a2, a3 float32
		for ; i+4 <= cols; i += 4 {
			a0 += row[i] * x[i]
			a1 += row[i+1] * x[i+1]
			a2 += row[i+2] * x[i+2]
			a3 += row[i+3] * x[i+3]
		}
		acc = a0 + a1 + a2 + a3
		for ; i < cols; i++ {
			acc += row[i] * x[i]
		}
		out[r] = acc
	}
}

// refDot computes the inner product of equal-length vectors.
func refDot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("slm: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float32
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc
}

// refGelu applies the tanh-approximated Gaussian error linear unit used by
// GPT-family FFNs.
func refGelu(x []float32) {
	const c = 0.7978845608028654 // sqrt(2/π)
	for i, v := range x {
		f := float64(v)
		x[i] = float32(0.5 * f * (1 + math.Tanh(c*(f+0.044715*f*f*f))))
	}
}

// refSoftmax converts logits to probabilities with the max-shift
// trick for numerical stability.
func refSoftmax(x []float32) {
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

// refSignature is HiddenSignature on a fresh session stepped by refStep.
func refSignature(t *Transformer, promptIDs []int) (float64, error) {
	if len(promptIDs) > t.cfg.MaxSeq {
		promptIDs = promptIDs[len(promptIDs)-t.cfg.MaxSeq:]
	}
	s := t.NewSession()
	last := len(promptIDs) - 1
	for i, id := range promptIDs {
		dp := depthKV
		if i == last {
			dp = depthHidden
		}
		if err := s.refStep(id, dp); err != nil {
			return 0, err
		}
	}
	var acc float64
	for i, v := range s.x {
		if i%2 == 0 {
			acc += float64(v)
		} else {
			acc -= float64(v)
		}
	}
	return math.Tanh(acc / math.Sqrt(float64(t.cfg.Dim))), nil
}

// referenceConfigs are the shapes the kernels are held to: the
// verification network (head width 8), and networks whose head widths
// (6, 12, 3) and matVec column counts (30, 45, 70, 21, 13) are not
// multiples of the 4-lane unroll, with odd and even position counts.
var referenceConfigs = []Config{
	idiosyncrasyConfig,
	{Dim: 30, Heads: 5, Layers: 2, FFNDim: 45, MaxSeq: 40},
	{Dim: 36, Heads: 3, Layers: 3, FFNDim: 70, MaxSeq: 64},
	{Dim: 21, Heads: 7, Layers: 1, FFNDim: 13, MaxSeq: 17},
}

// checkAgainstReference fails unless the signature and the logits of a
// full Feed of ids have exactly the reference's bits.
func checkAgainstReference(t *testing.T, tr *Transformer, ids []int) {
	t.Helper()
	want, err := refSignature(tr, ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tr.HiddenSignature(ids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%+v, %d tokens: signature %x, reference %x", tr.cfg, len(ids), math.Float64bits(got), math.Float64bits(want))
	}
	if len(ids) > tr.cfg.MaxSeq {
		ids = ids[len(ids)-tr.cfg.MaxSeq:]
	}
	ref := tr.NewSession()
	for _, id := range ids {
		if err := ref.refStep(id, depthLogits); err != nil {
			t.Fatal(err)
		}
	}
	logits, err := tr.NewSession().Feed(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range logits {
		if math.Float32bits(v) != math.Float32bits(ref.logits[i]) {
			t.Fatalf("%+v, %d tokens: logit %d is %x, reference %x", tr.cfg, len(ids), i, math.Float32bits(v), math.Float32bits(ref.logits[i]))
		}
	}
}

func FuzzHiddenSignatureMatchesReference(f *testing.F) {
	var nets []*Transformer
	for i, cfg := range referenceConfigs {
		tr, err := NewTransformer(cfg, tokenizer.New(), uint64(11+i))
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, tr)
	}
	// Seeds: testdata/fuzz/FuzzHiddenSignatureMatchesReference (one
	// token, a prompt tail, id wrap-around, an odd count longer than
	// every window).
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4*idiosyncrasyConfig.MaxSeq {
			return
		}
		for _, tr := range nets {
			// As in FuzzHiddenSignatureMatchesFeed: every byte is an id,
			// and shifting by the previous one reaches the whole vocabulary.
			ids := make([]int, len(data))
			prev := 0
			for i, b := range data {
				ids[i] = (int(b) + prev) % tr.cfg.VocabSize
				prev = ids[i]
			}
			checkAgainstReference(t, tr, ids)
		}
	})
}
