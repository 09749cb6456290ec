package slm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// Config describes a decoder-only transformer. Sizes are deliberately
// small — the engine exists to make the inference code path real
// (tokenize → embed → attend → project → softmax → first-token
// probability), not to host billion-parameter weights.
type Config struct {
	// VocabSize is the tokenizer vocabulary size; logits have this
	// width.
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
	// KV-cache capacity).
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
	return c.VocabSize*c.Dim + // token embedding (tied output head)
		c.MaxSeq*c.Dim + // positional embedding
		c.Layers*perLayer +
		2*c.Dim // final layernorm
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
// embeddings, pre-layernorm blocks and a weight-tied output head.
// Weights are immutable after construction, so a Transformer may be
// shared across goroutines; per-call state lives in Session.
type Transformer struct {
	cfg Config
	tok *tokenizer.Tokenizer

	// sessions recycles the Sessions HiddenSignature runs on, so a
	// verification call allocates no KV cache or scratch of its own.
	sessions sync.Pool

	tokEmb []float32 // VocabSize×Dim
	posEmb []float32 // MaxSeq×Dim
	layers []layerWeights
	lnFg   []float32 // final layernorm gain
	lnFb   []float32 // final layernorm bias
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
		lnFg:   ones(cfg.Dim),
		lnFb:   make([]float32, cfg.Dim),
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

// Session holds the per-sequence KV cache for incremental decoding.
// A Session is single-goroutine; create one per concurrent decode.
// Every buffer a step writes — the caches at their full MaxSeq×Dim
// capacity, the attention scores, the scratch vectors — is allocated
// once here, so stepping allocates nothing.
type Session struct {
	t *Transformer
	// kCache[l] holds layer l's keys dims-major over its whole
	// MaxSeq×Dim capacity: coordinate j of position p at
	// [j*MaxSeq+p], so the attention scores read consecutive keys
	// from consecutive memory. Its length stays zero; s.pos says how
	// many positions are filled.
	kCache [][]float32
	// vCache[l] holds layer l's values position-major, [pos*Dim],
	// appended to as tokens arrive.
	vCache [][]float32
	pos    int
	// scratch buffers reused across steps.
	x, xn, q, k, v, attnOut, ffnHid, ffnOut []float32
	scores                                  []float32 // MaxSeq; one head's attention weights
	logits                                  []float32
}

// NewSession creates an empty decoding session.
func (t *Transformer) NewSession() *Session {
	s := &Session{
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
		logits:  make([]float32, t.cfg.VocabSize),
	}
	for l := range s.kCache {
		s.kCache[l] = make([]float32, 0, t.cfg.MaxSeq*t.cfg.Dim)
		s.vCache[l] = make([]float32, 0, t.cfg.MaxSeq*t.cfg.Dim)
	}
	return s
}

// pooledSession returns an empty session from the transformer's pool
// (a new one when the pool is empty). Hand it back with
// t.sessions.Put once nothing reads its buffers any more.
func (t *Transformer) pooledSession() *Session {
	s, ok := t.sessions.Get().(*Session)
	if !ok {
		return t.NewSession()
	}
	s.pos = 0
	for l := range s.vCache {
		s.vCache[l] = s.vCache[l][:0]
	}
	return s
}

// Len returns the number of tokens consumed so far.
func (s *Session) Len() int { return s.pos }

// ErrSequenceTooLong is returned when feeding beyond MaxSeq.
var ErrSequenceTooLong = errors.New("slm: sequence exceeds MaxSeq")

// depth says how much of a step's forward pass something will read.
// Each depth computes a prefix of the next one's work with the same
// calls in the same order, so whatever a shallower step does produce —
// the K/V rows every later position attends to, the residual stream —
// is bit-identical to what a full step would have left there.
type depth int

const (
	// depthKV stops in the last layer as soon as its K/V rows are
	// appended. The rest of that layer (query, attention, wo, FFN)
	// feeds only this position's own residual stream, which nothing
	// reads unless the position is the final one.
	depthKV depth = iota
	// depthHidden runs every layer, leaving the final residual stream
	// in s.x, and skips the final layernorm and the output head.
	depthHidden
	// depthLogits is the whole pass: s.logits holds the next-token
	// logits.
	depthLogits
)

// Step feeds one token ID and returns the logits for the next token.
// The returned slice aliases session scratch space and is valid until
// the next Step.
func (s *Session) Step(id int) ([]float32, error) {
	if err := s.step(id, depthLogits); err != nil {
		return nil, err
	}
	return s.logits, nil
}

// step consumes one token ID, computing as far as dp asks.
func (s *Session) step(id int, dp depth) error {
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
		matVec(s.k, lw.wk, s.xn, d, d)
		matVec(s.v, lw.wv, s.xn, d, d)
		kc := s.kCache[l][:cfg.MaxSeq*d]
		for j, v := range s.k {
			kc[j*cfg.MaxSeq+s.pos] = v
		}
		s.vCache[l] = append(s.vCache[l], s.v...)
		if dp == depthKV && l == len(t.layers)-1 {
			break
		}
		matVec(s.q, lw.wq, s.xn, d, d)
		// Causal attention: the new query attends to all cached keys.
		for off := 0; off < d; off += headDim {
			attend(s.attnOut[off:off+headDim], s.q[off:off+headDim], kc[off*cfg.MaxSeq:(off+headDim)*cfg.MaxSeq], s.vCache[l][off:], scores, cfg.MaxSeq, d, scale)
		}
		matVec(s.xn, lw.wo, s.attnOut, d, d)
		addInPlace(s.x, s.xn)
		// --- FFN sublayer (pre-LN) ---
		copy(s.xn, s.x)
		layerNorm(s.xn, lw.ln2g, lw.ln2b, 1e-5)
		matVec(s.ffnHid, lw.w1, s.xn, cfg.FFNDim, d)
		addInPlace(s.ffnHid, lw.b1)
		gelu(s.ffnHid)
		matVec(s.ffnOut, lw.w2, s.ffnHid, d, cfg.FFNDim)
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
	matVec(s.logits, t.tokEmb, s.xn, cfg.VocabSize, d)
	return nil
}

// attend computes one head's attention output for the newest position:
// out = Σ_p softmax_p(scale·q·k_p)·v_p over the len(scores) cached
// positions p, where kh holds the head's keys dims-major (coordinate i
// of position p at kh[i*kStride+p]) and vh its values position-major
// (coordinate i of position p at vh[p*vStride+i]). Every score and
// every output coordinate is one accumulator starting at zero and
// adding the same products in the same order as a dot product per key
// and a load and store per term, so the result has the same bits.
func attend(out, q, kh, vh, scores []float32, kStride, vStride int, scale float32) {
	scoreKeys(scores, q, kh, kStride, scale)
	softmaxInPlace(scores)
	weightedSum(out[:len(q)], scores, vh, vStride)
}

// Feed consumes a sequence of token IDs, returning the logits after the
// final token.
func (s *Session) Feed(ids []int) ([]float32, error) {
	var logits []float32
	var err error
	for _, id := range ids {
		logits, err = s.Step(id)
		if err != nil {
			return nil, err
		}
	}
	return logits, nil
}

// NextTokenProbs runs the prompt through the model and returns the
// softmax distribution over the first generated token — exactly the
// quantity the paper's Eq. 2 reads the "yes" mass from. The returned
// slice is freshly allocated.
func (t *Transformer) NextTokenProbs(promptIDs []int) ([]float32, error) {
	if len(promptIDs) == 0 {
		return nil, errors.New("slm: empty prompt")
	}
	s := t.NewSession()
	logits, err := s.Feed(promptIDs)
	if err != nil {
		return nil, err
	}
	probs := make([]float32, len(logits))
	copy(probs, logits)
	softmaxInPlace(probs)
	return probs, nil
}

// Generate samples up to maxTokens continuation tokens for the prompt
// using temperature sampling (temperature ≤ 0 means greedy argmax).
// Generation stops early at EOS. The source provides randomness so
// callers control determinism.
func (t *Transformer) Generate(promptIDs []int, maxTokens int, temperature float64, src *rng.Source) ([]int, error) {
	s := t.NewSession()
	logits, err := s.Feed(promptIDs)
	if err != nil {
		return nil, err
	}
	var out []int
	for n := 0; n < maxTokens; n++ {
		id := sampleLogits(logits, temperature, src)
		if id == tokenizer.EosID {
			break
		}
		out = append(out, id)
		logits, err = s.Step(id)
		if err != nil {
			if errors.Is(err, ErrSequenceTooLong) {
				break
			}
			return nil, err
		}
	}
	return out, nil
}

// sampleLogits draws a token from the logit vector. Greedy when
// temperature ≤ 0 or src is nil.
func sampleLogits(logits []float32, temperature float64, src *rng.Source) int {
	if temperature <= 0 || src == nil {
		best, bestV := 0, logits[0]
		for i, v := range logits[1:] {
			if v > bestV {
				best, bestV = i+1, v
			}
		}
		return best
	}
	probs := make([]float32, len(logits))
	for i, v := range logits {
		probs[i] = float32(float64(v) / temperature)
	}
	softmaxInPlace(probs)
	r := src.Float64()
	var cum float64
	for i, p := range probs {
		cum += float64(p)
		if r < cum {
			return i
		}
	}
	return len(probs) - 1
}

// HiddenSignature runs the prompt through the network and folds the
// final residual stream into a single value in [-1, 1]. Because the
// weights are seeded per model, two different models map the same
// prompt to different, deterministic signatures — the engine's way of
// giving each synthetic SLM input-correlated idiosyncrasies (see
// CalibratedVerifier).
//
// Only the last position's residual stream is folded, and an earlier
// position reaches it through nothing but the K/V rows it leaves in
// each layer's cache. So every position but the last runs to depthKV,
// the last to depthHidden, and no position pays for the output head:
// the skipped results are ones no later computation reads, the ones
// that are read come from the same calls in the same order, and the
// signature equals — to the bit — the fold after NewSession().Feed.
// The session comes from the transformer's pool and goes back to it.
func (t *Transformer) HiddenSignature(promptIDs []int) (float64, error) {
	if len(promptIDs) == 0 {
		return 0, errors.New("slm: empty prompt")
	}
	// Cap the prompt at MaxSeq by keeping the tail: the claim (the
	// discriminating part) sits at the end of verification prompts.
	if len(promptIDs) > t.cfg.MaxSeq {
		promptIDs = promptIDs[len(promptIDs)-t.cfg.MaxSeq:]
	}
	s := t.pooledSession()
	defer t.sessions.Put(s)
	last := len(promptIDs) - 1
	for i, id := range promptIDs {
		dp := depthKV
		if i == last {
			dp = depthHidden
		}
		if err := s.step(id, dp); err != nil {
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
