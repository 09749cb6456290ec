package slm

import (
	"errors"
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

func TestNextTokenProbsIsDistribution(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("the store opens at nine")
	probs, err := tr.NextTokenProbs(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != tr.Config().VocabSize {
		t.Fatalf("probs len %d != vocab %d", len(probs), tr.Config().VocabSize)
	}
	var sum float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
		sum += float64(p)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestNextTokenProbsEmptyPrompt(t *testing.T) {
	tr := newTestTransformer(t)
	if _, err := tr.NextTokenProbs(nil); err == nil {
		t.Error("empty prompt accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := newTestTransformer(t)
	b, err := NewTransformer(testConfig(), tokenizer.New(), 1234)
	if err != nil {
		t.Fatal(err)
	}
	ids := a.Tokenizer().Encode("determinism check")
	pa, _ := a.NextTokenProbs(ids)
	pb, _ := b.NextTokenProbs(ids)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed diverged at logit %d", i)
		}
	}
	c, err := NewTransformer(testConfig(), tokenizer.New(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := c.NextTokenProbs(ids)
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical distributions")
	}
}

func TestIncrementalMatchesBatch(t *testing.T) {
	// The KV cache must make step-by-step decoding equal to feeding
	// the whole prefix at once.
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("abc def ghi")
	if len(ids) < 3 {
		t.Fatal("prompt too short for the test")
	}
	s1 := tr.NewSession()
	logitsAll, err := s1.Feed(ids)
	if err != nil {
		t.Fatal(err)
	}
	s2 := tr.NewSession()
	var logitsStep []float32
	for _, id := range ids {
		logitsStep, err = s2.Step(id)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range logitsAll {
		if math.Abs(float64(logitsAll[i]-logitsStep[i])) > 1e-5 {
			t.Fatalf("incremental diverged at %d: %v vs %v", i, logitsAll[i], logitsStep[i])
		}
	}
}

func TestSequenceTooLong(t *testing.T) {
	tr := newTestTransformer(t)
	s := tr.NewSession()
	for i := 0; i < tr.Config().MaxSeq; i++ {
		if _, err := s.Step(tokenizer.BosID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Step(tokenizer.BosID); !errors.Is(err, ErrSequenceTooLong) {
		t.Errorf("overlong step err = %v, want ErrSequenceTooLong", err)
	}
}

func TestStepRejectsBadToken(t *testing.T) {
	tr := newTestTransformer(t)
	s := tr.NewSession()
	if _, err := s.Step(-1); err == nil {
		t.Error("negative token accepted")
	}
	if _, err := s.Step(tr.Config().VocabSize); err == nil {
		t.Error("out-of-vocab token accepted")
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("hello")
	a, err := tr.Generate(ids, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr.Generate(ids, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("greedy generation nondeterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation nondeterministic")
		}
	}
	if len(a) == 0 {
		t.Skip("greedy hit EOS immediately; acceptable for random weights")
	}
}

func TestGenerateSampledWithinVocab(t *testing.T) {
	tr := newTestTransformer(t)
	ids := tr.Tokenizer().Encode("sample")
	out, err := tr.Generate(ids, 10, 1.0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range out {
		if id < 0 || id >= tr.Config().VocabSize {
			t.Fatalf("generated id %d out of vocab", id)
		}
	}
	// Generation respects MaxSeq even for long budgets.
	if _, err := tr.Generate(ids, 10_000, 1.0, rng.New(7)); err != nil {
		t.Fatalf("long generation should stop at MaxSeq, got %v", err)
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
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	matVec(make([]float32, 2), make([]float32, 4), make([]float32, 3), 2, 2)
}

// feedSignature is HiddenSignature as first written: a fresh session,
// every position through the whole forward pass (Feed), then the fold
// over the final residual stream. It is the reference the K/V-only
// prefill on pooled sessions must equal to the bit.
func feedSignature(tr *Transformer, ids []int) (float64, error) {
	if n := tr.Config().MaxSeq; len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	s := tr.NewSession()
	if _, err := s.Feed(ids); err != nil {
		return 0, err
	}
	var acc float64
	for i, v := range s.x {
		if i%2 == 0 {
			acc += float64(v)
		} else {
			acc -= float64(v)
		}
	}
	return math.Tanh(acc / math.Sqrt(float64(tr.Config().Dim))), nil
}

// randomIDs draws n token ids across the whole vocabulary.
func randomIDs(src *rng.Source, vocab, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = src.Intn(vocab)
	}
	return ids
}

// checkSignature fails unless HiddenSignature(ids) has exactly the
// reference's bits. Safe to call from any goroutine.
func checkSignature(t *testing.T, tr *Transformer, ids []int) {
	want, err := feedSignature(tr, ids)
	if err != nil {
		t.Error(err)
		return
	}
	got, err := tr.HiddenSignature(ids)
	if err != nil {
		t.Error(err)
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%d tokens: signature %x (%v), full Feed %x (%v)", len(ids), math.Float64bits(got), got, math.Float64bits(want), want)
	}
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
			checkSignature(t, tr, prompts[i])
		}
		// A pooled session that last held a longer, different prompt
		// must come back empty.
		for i := len(prompts) - 1; i >= 0; i-- {
			if _, err := tr.HiddenSignature(randomIDs(src, tr.Config().VocabSize, 96)); err != nil {
				t.Fatal(err)
			}
			checkSignature(t, tr, prompts[i])
		}
		// And pooled sessions are never shared: 8 goroutines, mixed
		// lengths (run with -race).
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range prompts {
					checkSignature(t, tr, prompts[(i+g)%len(prompts)])
				}
			}(g)
		}
		wg.Wait()
		// A rejected token fails the call and poisons nothing.
		if _, err := tr.HiddenSignature([]int{5, tr.Config().VocabSize, 7}); err == nil {
			t.Error("out-of-vocab token accepted")
		}
		checkSignature(t, tr, prompts[2])
	}
}

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
		// Every byte is a valid id (the vocabulary holds the 256 byte
		// tokens above the specials); shifting by the previous byte
		// reaches the specials and the top of the range too.
		ids := make([]int, len(data))
		prev := 0
		for i, b := range data {
			ids[i] = (int(b) + prev) % tr.Config().VocabSize
			prev = ids[i]
		}
		checkSignature(t, tr, ids)
	})
}
