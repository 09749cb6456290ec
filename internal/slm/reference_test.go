package slm

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tokenizer"
)

// The reference forward pass: verbatim copies of Session.step, matVec
// and dot as they were before the attention and matVec kernels kept
// their accumulators in registers, and of softmaxInPlace and gelu as
// they were before the AVX2 lanes of math.Exp and math.Tanh, renamed
// with a ref prefix. It feeds the tokens one at a time through every
// layer, on a session of its own, and stops before the final layernorm
// and output head the network once had. The fuzzer below holds the
// layer-major pass and its kernels to it, bit for bit, on shapes the
// verification network does not have.

// refSession holds the per-sequence KV cache of the reference pass.
type refSession struct {
	t              *Transformer
	kCache, vCache [][]float32 // [layer], position-major
	pos            int
	// scratch buffers reused across steps.
	x, xn, q, k, v, attnOut, ffnHid, ffnOut []float32
	scores                                  []float32 // MaxSeq
}

func newRefSession(t *Transformer) *refSession {
	return &refSession{
		t:       t,
		kCache:  make([][]float32, t.cfg.Layers),
		vCache:  make([][]float32, t.cfg.Layers),
		x:       make([]float32, t.cfg.Dim),
		xn:      make([]float32, t.cfg.Dim),
		q:       make([]float32, t.cfg.Dim),
		k:       make([]float32, t.cfg.Dim),
		v:       make([]float32, t.cfg.Dim),
		attnOut: make([]float32, t.cfg.Dim),
		ffnHid:  make([]float32, t.cfg.FFNDim),
		ffnOut:  make([]float32, t.cfg.Dim),
		scores:  make([]float32, t.cfg.MaxSeq),
	}
}

// depth says how much of a step's forward pass something will read:
// depthKV stops in the last layer as soon as its K/V rows are appended,
// depthHidden runs every layer.
type depth int

const (
	depthKV depth = iota
	depthHidden
)

// refStep consumes one token ID, computing as far as dp asks.
func (s *refSession) refStep(id int, dp depth) error {
	t := s.t
	cfg := t.cfg
	if s.pos >= cfg.MaxSeq {
		return fmt.Errorf("slm: sequence exceeds MaxSeq (max %d)", cfg.MaxSeq)
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

// refSignature is HiddenSignature on a fresh reference session: the
// window's tail stepped by refStep, every position but the last to
// depthKV, or every one to depthHidden if full is set, and the fold
// over the last residual stream.
func refSignature(t *Transformer, promptIDs []int, full bool) (float64, error) {
	if len(promptIDs) > t.cfg.MaxSeq {
		promptIDs = promptIDs[len(promptIDs)-t.cfg.MaxSeq:]
	}
	s := newRefSession(t)
	last := len(promptIDs) - 1
	for i, id := range promptIDs {
		dp := depthKV
		if full || i == last {
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

// checkAgainstReference fails unless the signature has exactly the
// bits of the reference pass, both as HiddenSignature runs it (K/V only
// for every position but the last in the last layer) and with every
// position through every layer. Safe to call from any goroutine.
func checkAgainstReference(t *testing.T, tr *Transformer, ids []int) {
	t.Helper()
	got, err := tr.HiddenSignature(ids)
	if err != nil {
		t.Error(err)
		return
	}
	for _, full := range []bool{false, true} {
		want, err := refSignature(tr, ids, full)
		if err != nil {
			t.Error(err)
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v, %d tokens: signature %x (%v), reference (every layer for every position: %v) %x (%v)",
				tr.cfg, len(ids), math.Float64bits(got), got, full, math.Float64bits(want), want)
			return
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
			checkAgainstReference(t, tr, fuzzIDs(data, tr.cfg.VocabSize))
		}
	})
}

// fuzzIDs turns fuzz bytes into token ids: every byte is a valid id
// (the vocabulary holds the 256 byte tokens above the specials), and
// shifting by the previous id reaches the specials and the top of the
// range too.
func fuzzIDs(data []byte, vocab int) []int {
	ids := make([]int, len(data))
	prev := 0
	for i, b := range data {
		ids[i] = (int(b) + prev) % vocab
		prev = ids[i]
	}
	return ids
}

// FuzzHiddenSignatureKeptTail holds a pass that takes the first layer's
// keys, values and queries of a window's last tokens from a kept tail
// to the pass that computes them, and to the reference: on full windows
// that end in the tail, and on windows that do not (one token short, or
// with the tail's first token changed), which must ignore it.
func FuzzHiddenSignatureKeptTail(f *testing.F) {
	type pair struct{ kept, plain *Transformer }
	var nets []pair
	for i, cfg := range referenceConfigs {
		kept, err := NewTransformer(cfg, tokenizer.New(), uint64(11+i))
		if err != nil {
			f.Fatal(err)
		}
		plain, err := NewTransformer(cfg, tokenizer.New(), uint64(11+i))
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, pair{kept, plain})
	}
	f.Add(uint8(57), []byte("Is the answer supported by the context? Reply YES or NO:"))
	f.Add(uint8(1), []byte{7})
	f.Add(uint8(255), []byte("a whole window of tail"))
	f.Fuzz(func(t *testing.T, tailLen uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		for _, p := range nets {
			cfg := p.kept.cfg
			ids := fuzzIDs(append(data, data...), cfg.VocabSize)
			for len(ids) < cfg.MaxSeq {
				ids = append(ids, ids...)
			}
			window := ids[len(ids)-cfg.MaxSeq:]
			tail := window[cfg.MaxSeq-(1+int(tailLen)%cfg.MaxSeq):]
			if err := p.kept.keepTail(tail); err != nil {
				t.Fatal(err)
			}
			changed := slices.Clone(window)
			changed[cfg.MaxSeq-len(tail)] = (changed[cfg.MaxSeq-len(tail)] + 1) % cfg.VocabSize
			for _, w := range [][]int{window, window[1:], changed} {
				got, err := p.kept.HiddenSignature(w)
				if err != nil {
					t.Fatal(err)
				}
				want, err := p.plain.HiddenSignature(w)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%+v, %d-token tail, %d tokens: signature %x, without the tail %x", cfg, len(tail), len(w), math.Float64bits(got), math.Float64bits(want))
				}
				checkAgainstReference(t, p.kept, w)
			}
		}
	})
}

// TestVerifierKeepsPromptTail: a verifier's network keeps the tail every
// full verification window ends in, and a window of the golden claims
// takes it.
func TestVerifierKeepsPromptTail(t *testing.T) {
	v := NewQwen2()
	tl := v.net.tail
	if tl == nil {
		t.Fatal("no kept tail")
	}
	req := VerifyRequest{Question: "What are the working hours?", Context: hoursContext, Claim: "The working hours are 9 AM to 5 PM."}
	ids := windowTok.EncodeTail(VerificationPrompt(req), idiosyncrasyConfig.MaxSeq)
	if len(ids) != idiosyncrasyConfig.MaxSeq || !slices.Equal(ids[len(ids)-len(tl.ids):], tl.ids) {
		t.Fatalf("a full window does not end in the kept %d-token tail", len(tl.ids))
	}
}
