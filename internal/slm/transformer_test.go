package slm

import (
	"math"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tokenizer"
)

func testConfig() Config {
	return Config{Dim: 16, Heads: 2, Layers: 2, FFNDim: 32, MaxSeq: 32}
}

func newTestTransformer(t *testing.T) *Transformer {
	t.Helper()
	tr, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Dim: 0, Heads: 1, Layers: 1, FFNDim: 1, MaxSeq: 1, VocabSize: 10},
		{Dim: 10, Heads: 3, Layers: 1, FFNDim: 1, MaxSeq: 1, VocabSize: 10}, // 10 % 3 != 0
		{Dim: 4, Heads: 2, Layers: 0, FFNDim: 8, MaxSeq: 4, VocabSize: 10},
		{Dim: 4, Heads: 2, Layers: 1, FFNDim: 8, MaxSeq: 4, VocabSize: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	good := Config{Dim: 4, Heads: 2, Layers: 1, FFNDim: 8, MaxSeq: 4, VocabSize: 10}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNumParamsPositive(t *testing.T) {
	c := testConfig()
	c.VocabSize = 260
	if n := c.NumParams(); n <= 0 {
		t.Errorf("NumParams = %d", n)
	}
}

func TestDeterminism(t *testing.T) {
	a := newTestTransformer(t)
	b, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewTransformer(testConfig(), tokenizer.New(), 99)
	if err != nil {
		t.Fatal(err)
	}
	ids := a.Tokenizer().Encode("determinism check")
	sa, err := a.HiddenSignature(ids)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := b.HiddenSignature(ids)
	sc, _ := c.HiddenSignature(ids)
	if math.Float64bits(sa) != math.Float64bits(sb) {
		t.Errorf("same seed diverged: %v vs %v", sa, sb)
	}
	if sa == sc {
		t.Error("different seeds produced identical signatures")
	}
}

// TestIncrementalMatchesBatch holds the layer-major pass, which takes
// the whole window through each layer at once, to the reference pass,
// which feeds the tokens one at a time through every layer with a K/V
// cache.
func TestIncrementalMatchesBatch(t *testing.T) {
	tr := newTestTransformer(t)
	for _, text := range []string{"abc def ghi", "a", "the store opens at nine and closes at five"} {
		checkAgainstReference(t, tr, tr.Tokenizer().Encode(text))
	}
}

// TestSequenceTooLong checks that a prompt longer than MaxSeq is cut to
// its last MaxSeq tokens: its signature has the tail's bits, whatever
// the tokens before it, valid or not.
func TestSequenceTooLong(t *testing.T) {
	tr := newTestTransformer(t)
	n := tr.Config().MaxSeq
	ids := randomIDs(rng.New(3), tr.Config().VocabSize, 3*n+1)
	want, err := tr.HiddenSignature(ids[len(ids)-n:])
	if err != nil {
		t.Fatal(err)
	}
	ids[0] = -1
	got, err := tr.HiddenSignature(ids)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("overlong prompt: signature %v, its tail's %v", got, want)
	}
}

func TestStepRejectsBadToken(t *testing.T) {
	tr := newTestTransformer(t)
	if _, err := tr.HiddenSignature([]int{-1}); err == nil {
		t.Error("negative token accepted")
	}
	if _, err := tr.HiddenSignature([]int{tr.Config().VocabSize}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
}

// TestHiddenSignatureRejectsBadTokenAnywhere puts an out-of-range id at
// every position of windows of several lengths: each is an error, and
// the window the failed call drew from the pool serves the next call
// as if it were new.
func TestHiddenSignatureRejectsBadTokenAnywhere(t *testing.T) {
	tr := newTestTransformer(t)
	vocab, maxSeq := tr.Config().VocabSize, tr.Config().MaxSeq
	src := rng.New(5)
	for _, n := range []int{1, 2, 5, maxSeq - 1, maxSeq, maxSeq + 3} {
		ids := randomIDs(src, vocab, n)
		for i := max(0, n-maxSeq); i < n; i++ {
			for _, bad := range []int{-1, vocab, vocab + 1000, math.MinInt} {
				orig := ids[i]
				ids[i] = bad
				if _, err := tr.HiddenSignature(ids); err == nil {
					t.Fatalf("%d tokens: id %d at position %d accepted", n, bad, i)
				}
				ids[i] = orig
			}
		}
		checkAgainstReference(t, tr, ids)
	}
}

func TestHiddenSignatureProperties(t *testing.T) {
	tr := newTestTransformer(t)
	enc := func(s string) []int { return tr.Tokenizer().Encode(s) }
	a, err := tr.HiddenSignature(enc("the quick brown fox"))
	if err != nil {
		t.Fatal(err)
	}
	if a < -1 || a > 1 {
		t.Errorf("signature %v out of [-1,1]", a)
	}
	b, _ := tr.HiddenSignature(enc("the quick brown fox"))
	if a != b {
		t.Error("signature not deterministic")
	}
	c, _ := tr.HiddenSignature(enc("a completely different sentence here"))
	if a == c {
		t.Error("distinct inputs produced identical signatures")
	}
	// Longer than MaxSeq: tail is kept, no error.
	long := enc("word word word word word word word word word word word word word word word word word word word word")
	if _, err := tr.HiddenSignature(long); err != nil {
		t.Errorf("long prompt signature failed: %v", err)
	}
	if _, err := tr.HiddenSignature(nil); err == nil {
		t.Error("empty prompt accepted")
	}
}

func TestSoftmaxInPlace(t *testing.T) {
	x := []float32{1, 2, 3}
	softmaxInPlace(x)
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("softmax sums to %v", sum)
	}
	if !(x[2] > x[1] && x[1] > x[0]) {
		t.Error("softmax broke ordering")
	}
	// Large values must not overflow.
	y := []float32{1000, 1000}
	softmaxInPlace(y)
	if math.IsNaN(float64(y[0])) || math.Abs(float64(y[0])-0.5) > 1e-6 {
		t.Errorf("softmax unstable for large logits: %v", y)
	}
}

func TestLayerNorm(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	gain := []float32{1, 1, 1, 1}
	bias := []float32{0, 0, 0, 0}
	layerNorm(x, gain, bias, 1e-5)
	var mean, varsum float64
	for _, v := range x {
		mean += float64(v)
	}
	mean /= 4
	for _, v := range x {
		varsum += (float64(v) - mean) * (float64(v) - mean)
	}
	if math.Abs(mean) > 1e-5 {
		t.Errorf("normalized mean = %v", mean)
	}
	if math.Abs(varsum/4-1) > 1e-3 {
		t.Errorf("normalized variance = %v", varsum/4)
	}
}

func TestMatVecShapePanics(t *testing.T) {
	// Two positions of a 2×2 matrix, with each length in turn wrong.
	for _, c := range []struct{ out, m, x int }{{2, 4, 4}, {4, 3, 4}, {4, 4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: shape mismatch did not panic", c)
				}
			}()
			matVecBlock(make([]float32, c.out), make([]float32, c.m), make([]float32, c.x), 2, 2, 2)
		}()
	}
	matVecBlock(make([]float32, 4), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

// randomIDs draws n token ids across the whole vocabulary.
func randomIDs(src *rng.Source, vocab, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = src.Intn(vocab)
	}
	return ids
}

func TestHiddenSignatureMatchesFullFeed(t *testing.T) {
	lengths := []int{1, 2, 95, 96, 97, 600} // idiosyncrasyConfig.MaxSeq is 96
	for _, seed := range []uint64{1, 20250612} {
		tr, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), seed)
		if err != nil {
			t.Fatal(err)
		}
		src := rng.New(seed)
		prompts := make([][]int, len(lengths))
		for i, n := range lengths {
			prompts[i] = randomIDs(src, tr.Config().VocabSize, n)
			checkAgainstReference(t, tr, prompts[i])
		}
		// A pooled session that last held a longer, different prompt
		// must come back empty.
		for i := len(prompts) - 1; i >= 0; i-- {
			if _, err := tr.HiddenSignature(randomIDs(src, tr.Config().VocabSize, 96)); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, tr, prompts[i])
		}
		// And pooled sessions are never shared: 8 goroutines, mixed
		// lengths (run with -race).
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range prompts {
					checkAgainstReference(t, tr, prompts[(i+g)%len(prompts)])
				}
			}(g)
		}
		wg.Wait()
		// A rejected token fails the call and poisons nothing.
		if _, err := tr.HiddenSignature([]int{5, tr.Config().VocabSize, 7}); err == nil {
			t.Error("out-of-vocab token accepted")
		}
		checkAgainstReference(t, tr, prompts[2])
	}
}

// FuzzHiddenSignatureMatchesFeed holds the verification network's
// signature to the reference pass with every position through every
// layer, the pass the K/V-only prefill of the last layer skips work of.
func FuzzHiddenSignatureMatchesFeed(f *testing.F) {
	tr, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), 7)
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: testdata/fuzz/FuzzHiddenSignatureMatchesFeed (one token, a
	// prompt tail, id wrap-around, 120 tokens — longer than the window).
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4*tr.Config().MaxSeq {
			return
		}
		checkAgainstReference(t, tr, fuzzIDs(data, tr.Config().VocabSize))
	})
}
