package slm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// Config describes a decoder-only transformer. Sizes are deliberately
// small — the engine exists to make the inference code path real
// (tokenize → embed → attend → project → hidden-state signature), not
// to host billion-parameter weights.
type Config struct {
	// VocabSize is the tokenizer vocabulary size: the token embedding
	// has this many rows.
	VocabSize int
	// Dim is the residual-stream width.
	Dim int
	// Heads is the number of attention heads; Dim must be divisible by
	// Heads.
	Heads int
	// Layers is the number of transformer blocks.
	Layers int
	// FFNDim is the hidden width of the feed-forward block, typically
	// 4×Dim.
	FFNDim int
	// MaxSeq is the maximum sequence length (positional table size and
	// window capacity).
	MaxSeq int
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.VocabSize <= 0:
		return fmt.Errorf("slm: VocabSize must be positive, got %d", c.VocabSize)
	case c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.FFNDim <= 0 || c.MaxSeq <= 0:
		return errors.New("slm: all dimensions must be positive")
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("slm: Dim %d not divisible by Heads %d", c.Dim, c.Heads)
	}
	return nil
}

// NumParams returns the total parameter count of a model with this
// configuration.
func (c Config) NumParams() int {
	perLayer := 4*c.Dim*c.Dim + // q,k,v,o projections
		2*c.Dim*c.FFNDim + c.FFNDim + c.Dim + // ffn weights + biases
		4*c.Dim // two layernorms (gain+bias)
	return c.VocabSize*c.Dim + // token embedding
		c.MaxSeq*c.Dim + // positional embedding
		c.Layers*perLayer
}

// layerWeights holds one transformer block's parameters.
type layerWeights struct {
	wq, wk, wv, wo []float32 // Dim×Dim each
	ln1g, ln1b     []float32 // Dim
	ln2g, ln2b     []float32 // Dim
	w1             []float32 // FFNDim×Dim
	b1             []float32 // FFNDim
	w2             []float32 // Dim×FFNDim
	b2             []float32 // Dim
}

// Transformer is a decoder-only transformer with learned positional
// embeddings and pre-layernorm blocks. Weights are immutable after
// construction, so a Transformer may be shared across goroutines;
// per-call state lives in a pooled window.
type Transformer struct {
	cfg Config
	tok *tokenizer.Tokenizer

	// windows recycles the scratch HiddenSignature runs on, so a
	// verification call allocates no K/V or activations of its own.
	windows sync.Pool

	tokEmb []float32 // VocabSize×Dim
	posEmb []float32 // MaxSeq×Dim
	layers []layerWeights

	// tail, when set (keepTail), is the first layer's keys, values and
	// queries of a run of tokens that ends many full windows.
	tail *windowTail
}

// windowTail is the first layer's keys, values and queries of the
// tokens ids at the last len(ids) positions of a MaxSeq-token window,
// position-major. They depend on nothing but each token and its
// position, so every full window that ends in ids has these.
type windowTail struct {
	ids     []int
	k, v, q []float32
}

// keepTail computes the first layer's keys, values and queries of ids
// at the end of a full window, once, for HiddenSignature to use in
// every full window that ends in ids — a verification prompt's fixed
// last line. The arithmetic is HiddenSignature's, row for row, so the
// bits are those a pass computes. Call it before t is shared.
func (t *Transformer) keepTail(ids []int) error {
	cfg := t.cfg
	n, d := len(ids), cfg.Dim
	if n == 0 || n > cfg.MaxSeq {
		return fmt.Errorf("slm: a kept tail of %d tokens in a %d-token window", n, cfg.MaxSeq)
	}
	xn := make([]float32, n*d)
	for p, id := range ids {
		if id < 0 || id >= cfg.VocabSize {
			return fmt.Errorf("slm: token id %d out of vocab range %d", id, cfg.VocabSize)
		}
		copy(xn[p*d:(p+1)*d], t.tokEmb[id*d:(id+1)*d])
	}
	addInPlace(xn, t.posEmb[(cfg.MaxSeq-n)*d:cfg.MaxSeq*d])
	lw := &t.layers[0]
	layerNormRows(xn, lw.ln1g, lw.ln1b, 1e-5)
	tail := &windowTail{
		ids: append([]int(nil), ids...),
		k:   make([]float32, n*d),
		v:   make([]float32, n*d),
		q:   make([]float32, n*d),
	}
	matVecBlock(tail.k, lw.wk, xn, d, d, n)
	matVecBlock(tail.v, lw.wv, xn, d, d, n)
	matVecBlock(tail.q, lw.wq, xn, d, d, n)
	t.tail = tail
	return nil
}

// NewTransformer builds a transformer with weights drawn from a
// deterministic source seeded by `seed`, scaled with the standard
// 1/sqrt(fanIn) initialization. The tokenizer fixes VocabSize.
func NewTransformer(cfg Config, tok *tokenizer.Tokenizer, seed uint64) (*Transformer, error) {
	cfg.VocabSize = tok.VocabSize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(seed)
	randn := func(n int, scale float64) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = float32(src.NormFloat64() * scale)
		}
		return out
	}
	ones := func(n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = 1
		}
		return out
	}
	t := &Transformer{
		cfg:    cfg,
		tok:    tok,
		tokEmb: randn(cfg.VocabSize*cfg.Dim, 0.02),
		posEmb: randn(cfg.MaxSeq*cfg.Dim, 0.02),
	}
	attnScale := 1 / math.Sqrt(float64(cfg.Dim))
	ffnScale := 1 / math.Sqrt(float64(cfg.FFNDim))
	for l := 0; l < cfg.Layers; l++ {
		t.layers = append(t.layers, layerWeights{
			wq:   randn(cfg.Dim*cfg.Dim, attnScale),
			wk:   randn(cfg.Dim*cfg.Dim, attnScale),
			wv:   randn(cfg.Dim*cfg.Dim, attnScale),
			wo:   randn(cfg.Dim*cfg.Dim, attnScale),
			ln1g: ones(cfg.Dim), ln1b: make([]float32, cfg.Dim),
			ln2g: ones(cfg.Dim), ln2b: make([]float32, cfg.Dim),
			w1: randn(cfg.FFNDim*cfg.Dim, attnScale),
			b1: make([]float32, cfg.FFNDim),
			w2: randn(cfg.Dim*cfg.FFNDim, ffnScale),
			b2: make([]float32, cfg.Dim),
		})
	}
	return t, nil
}

// Config returns the model's configuration.
func (t *Transformer) Config() Config { return t.cfg }

// Tokenizer returns the tokenizer the model was built with.
func (t *Transformer) Tokenizer() *tokenizer.Tokenizer { return t.tok }

// window is the scratch of one HiddenSignature call, sized for MaxSeq
// positions and allocated once, so a pass allocates nothing. The
// activations are position-major: position p's row of a buffer of
// width w is [p*w, (p+1)*w).
type window struct {
	// x is the residual stream of every position.
	x []float32
	// xn, q and attn hold a layer's normalized inputs, queries and
	// attention outputs (attn first holds its keys, position-major);
	// hid holds the FFN's hidden layer, MaxSeq×FFNDim.
	xn, q, attn, hid []float32
	// k holds the current layer's keys dims-major over MaxSeq columns:
	// coordinate j of position p at [j*MaxSeq+p], so the attention
	// scores read consecutive keys from consecutive memory. v holds its
	// values position-major.
	k, v []float32
	// scores holds one position's attention weights, a row of MaxSeq
	// for each head.
	scores []float32
}

// pooledWindow returns a window from the transformer's pool (a new one
// when the pool is empty). Hand it back with t.windows.Put once nothing
// reads its buffers any more.
func (t *Transformer) pooledWindow() *window {
	if w, ok := t.windows.Get().(*window); ok {
		return w
	}
	cfg := t.cfg
	n := cfg.MaxSeq * cfg.Dim
	return &window{
		x:      make([]float32, n),
		xn:     make([]float32, n),
		q:      make([]float32, n),
		attn:   make([]float32, n),
		hid:    make([]float32, cfg.MaxSeq*cfg.FFNDim),
		k:      make([]float32, n),
		v:      make([]float32, n),
		scores: make([]float32, cfg.Heads*cfg.MaxSeq),
	}
}

// attend computes one position's attention output for every head:
// head h's out = Σ_p softmax_p(scale·q_h·k_p)·v_p over the first n
// positions p, where k holds the keys dims-major (coordinate i of
// position p at k[i*stride+p]) and v the values position-major
// (coordinate i of position p at v[p*len(q)+i]), and row h of scores,
// stride wide, takes head h's weights. Every score and every output
// coordinate is one accumulator starting at zero and adding the same
// products in the same order as a dot product per key and a load and
// store per term, so the result has the same bits.
func attend(out, q, k, v, scores []float32, heads, n, stride int, scale float32) {
	hd := len(q) / heads
	for h := 0; h < heads; h++ {
		scoreKeys(scores[h*stride:h*stride+n:(h+1)*stride], q[h*hd:(h+1)*hd], k[h*hd*stride:(h+1)*hd*stride], stride, scale)
	}
	softmaxRows(scores[:heads*stride], n, stride)
	weightedSums(out, scores, v, heads, n, stride, len(q))
}

// HiddenSignature runs the prompt through the network and folds the
// final residual stream into a single value in [-1, 1]. Because the
// weights are seeded per model, two different models map the same
// prompt to different, deterministic signatures — the engine's way of
// giving each synthetic SLM input-correlated idiosyncrasies (see
// CalibratedVerifier).
//
// The pass is layer-major: each layer takes the whole window at once,
// so every weight row is read once per block of positions (matVecBlock)
// rather than once per position, and only one layer's keys and values
// are live. Position p's attention still reads the keys and values of
// positions 0..p alone, and every position's every value comes from
// the same arithmetic in the same order as a pass that feeds the tokens
// one at a time through every layer, so the signature has that pass's
// bits. Only the last position's residual stream is folded, and an
// earlier position reaches it through nothing but the keys and values
// it leaves in each layer; so the last layer computes those for every
// position and the rest of the layer for the last one alone.
func (t *Transformer) HiddenSignature(promptIDs []int) (float64, error) {
	if len(promptIDs) == 0 {
		return 0, errors.New("slm: empty prompt")
	}
	cfg := t.cfg
	// Cap the prompt at MaxSeq by keeping the tail: the claim (the
	// discriminating part) sits at the end of verification prompts.
	if len(promptIDs) > cfg.MaxSeq {
		promptIDs = promptIDs[len(promptIDs)-cfg.MaxSeq:]
	}
	for _, id := range promptIDs {
		if id < 0 || id >= cfg.VocabSize {
			return 0, fmt.Errorf("slm: token id %d out of vocab range %d", id, cfg.VocabSize)
		}
	}
	w := t.pooledWindow()
	defer t.windows.Put(w)

	n, d, ffn := len(promptIDs), cfg.Dim, cfg.FFNDim
	// Embedding = token + position.
	x := w.x[:n*d]
	for p, id := range promptIDs {
		copy(x[p*d:(p+1)*d], t.tokEmb[id*d:(id+1)*d])
	}
	addInPlace(x, t.posEmb[:n*d])

	// A full window that ends in the kept tail takes the first layer's
	// keys, values and queries of the tail's positions from it.
	kept := 0
	if tl := t.tail; tl != nil && n == cfg.MaxSeq && slices.Equal(promptIDs[n-len(tl.ids):], tl.ids) {
		kept = len(tl.ids)
	}
	scale := float32(1 / math.Sqrt(float64(d/cfg.Heads)))
	for l := range t.layers {
		lw := &t.layers[l]
		// --- attention sublayer (pre-LN) ---
		// The first `live` positions are normalized and projected here;
		// the rest, in the first layer, are the kept tail's.
		live := n
		if l == 0 {
			live = n - kept
		}
		xn := w.xn[:n*d]
		copy(xn[:live*d], x)
		layerNormRows(xn[:live*d], lw.ln1g, lw.ln1b, 1e-5)
		keys := w.attn[:n*d]
		matVecBlock(keys[:live*d], lw.wk, xn[:live*d], d, d, live)
		matVecBlock(w.v[:live*d], lw.wv, xn[:live*d], d, d, live)
		if live < n {
			copy(keys[live*d:], t.tail.k)
			copy(w.v[live*d:n*d], t.tail.v)
		}
		for p := 0; p < n; p++ {
			for j, v := range keys[p*d : (p+1)*d] {
				w.k[j*cfg.MaxSeq+p] = v
			}
		}
		// Positions from `from` on take the rest of the layer: every
		// position, but in the last layer the last one alone, whose
		// residual stream is the only one the fold reads.
		from := 0
		if l == len(t.layers)-1 {
			from = n - 1
		}
		m := n - from
		xs, xn := x[from*d:], xn[from*d:]
		q, attn := w.q[:m*d], w.attn[:m*d]
		// Queries up to `live` are projected, the rest kept.
		if upTo := max(from, live); upTo < n {
			matVecBlock(q[:(upTo-from)*d], lw.wq, xn[:(upTo-from)*d], d, d, upTo-from)
			copy(q[(upTo-from)*d:], t.tail.q[(upTo-live)*d:])
		} else {
			matVecBlock(q, lw.wq, xn, d, d, m)
		}
		// Causal attention: position p attends to positions 0..p.
		for i := 0; i < m; i++ {
			attend(attn[i*d:(i+1)*d], q[i*d:(i+1)*d], w.k, w.v, w.scores, cfg.Heads, from+i+1, cfg.MaxSeq, scale)
		}
		matVecBlock(xn, lw.wo, attn, d, d, m)
		addInPlace(xs, xn)
		// --- FFN sublayer (pre-LN) ---
		copy(xn, xs)
		layerNormRows(xn, lw.ln2g, lw.ln2b, 1e-5)
		hid := w.hid[:m*ffn]
		matVecBlock(hid, lw.w1, xn, ffn, d, m)
		addRows(hid, lw.b1)
		gelu(hid)
		matVecBlock(xn, lw.w2, hid, d, ffn, m)
		addRows(xn, lw.b2)
		addInPlace(xs, xn)
	}
	var acc float64
	for i, v := range x[(n-1)*d:] {
		if i%2 == 0 {
			acc += float64(v)
		} else {
			acc -= float64(v)
		}
	}
	return math.Tanh(acc / math.Sqrt(float64(d))), nil
}
