package slm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tokenizer"
)

// BenchmarkMatVecBlock times one projection on the verification
// network's matrix shapes — the attention projections (32×32), the
// FFN's up (64×32) and down (32×64) — through the block kernel and one
// position at a time through the Go kernel: of a full 96-position
// window, of 97 positions (a last block that overlaps the one before
// it) and of one position (a padded block, as in the last layer).
func BenchmarkMatVecBlock(b *testing.B) {
	src := rand.New(rand.NewSource(1))
	for _, c := range []struct{ rows, cols int }{{32, 32}, {64, 32}, {32, 64}} {
		for _, n := range []int{96, 97, 1} {
			m, x := make([]float32, c.rows*c.cols), make([]float32, n*c.cols)
			for _, s := range [][]float32{m, x} {
				for i := range s {
					s[i] = float32(src.NormFloat64())
				}
			}
			out := make([]float32, n*c.rows)
			positions := ""
			if n != 96 {
				positions = fmt.Sprintf("-n%d", n)
			}
			for _, k := range []struct {
				suffix string
				kernel func(out, m, x []float32, rows, cols, n int)
			}{{"", matVecBlock}, {"-go", matVecBlockGo}} {
				b.Run(fmt.Sprintf("%dx%d%s%s", c.rows, c.cols, positions, k.suffix), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						k.kernel(out, m, x, c.rows, c.cols, n)
					}
				})
			}
		}
	}
}

// BenchmarkLayerNormRows times the layer norm of a full 96-position
// window of the verification network's width 32, block by block and
// one row at a time.
func BenchmarkLayerNormRows(b *testing.B) {
	src := rand.New(rand.NewSource(1))
	const n, width = 96, 32
	in, gain, bias := make([]float32, n*width), make([]float32, width), make([]float32, width)
	for _, s := range [][]float32{in, gain, bias} {
		for i := range s {
			s[i] = float32(src.NormFloat64())
		}
	}
	x := make([]float32, n*width)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, in)
			layerNormRows(x, gain, bias, 1e-5)
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(x, in)
			for r := 0; r < n; r++ {
				layerNorm(x[r*width:(r+1)*width], gain, bias, 1e-5)
			}
		}
	})
}

// BenchmarkHiddenSignature times the verification forward pass alone:
// one full 96-token window (idiosyncrasyConfig.MaxSeq) through a
// model-sized network, the work behind every signature-memo miss.
func BenchmarkHiddenSignature(b *testing.B) {
	tr, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := tr.Tokenizer().Encode(VerificationPrompt(VerifyRequest{
		Question: "What are the working hours?",
		Context:  "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
		Claim:    "The working hours are 9 AM to 5 PM.",
	}))
	ids = ids[len(ids)-tr.Config().MaxSeq:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.HiddenSignature(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYesProbabilityColdCache(b *testing.B) {
	ctx := context.Background()
	m := NewQwen2() // built once: weight initialisation is not what a cold call costs
	r := VerifyRequest{
		Question: "What are the working hours?",
		Context:  "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A claim no earlier iteration used, so the signature memo misses.
		r.Claim = fmt.Sprintf("The working hours are 9 AM to 5 PM, run %d.", i)
		if _, err := m.YesProbability(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYesProbabilityWarmCache times a signature-memo hit: every
// call after the first reuses the forward pass, and what is left is the
// rest of the call. With a one-sentence context that is cheap; with a
// context from the default dataset, reading the context dominates it.
func BenchmarkYesProbabilityWarmCache(b *testing.B) {
	set, err := dataset.Default()
	if err != nil {
		b.Fatal(err)
	}
	item := set.Items[0]
	for _, c := range []struct {
		name string
		req  VerifyRequest
	}{
		{"one-sentence-context", VerifyRequest{
			Question: "What are the working hours?",
			Context:  "The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
			Claim:    "The working hours are 9 AM to 5 PM.",
		}},
		{"dataset-context", VerifyRequest{
			Question: item.Question,
			Context:  item.Context,
			Claim:    item.Responses[0].Text,
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			m := NewQwen2()
			if _, err := m.YesProbability(ctx, c.req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.YesProbability(ctx, c.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSoftmaxGelu times the two float64 loops of the forward pass
// on the verification network's shapes — attention over a full 96-key
// window and over 47 keys (a ragged tail), and GELU over the 64-wide FFN
// — through the kernels and through the Go loops they replaced.
func BenchmarkSoftmaxGelu(b *testing.B) {
	src := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name   string
		n      int
		kernel func([]float32)
	}{
		{"softmax96", 96, softmaxInPlace}, {"softmax96-go", 96, softmaxGo},
		{"softmax47", 47, softmaxInPlace}, {"softmax47-go", 47, softmaxGo},
		{"gelu64", 64, gelu}, {"gelu64-go", 64, geluGo},
	} {
		in := make([]float32, c.n)
		for i := range in {
			in[i] = float32(src.NormFloat64())
		}
		x := make([]float32, c.n)
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x, in)
				c.kernel(x)
			}
		})
	}
}
