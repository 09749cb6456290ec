package slm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tokenizer"
)

func BenchmarkTransformerStep(b *testing.B) {
	tr, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), 1)
	if err != nil {
		b.Fatal(err)
	}
	prompt := tr.Tokenizer().Encode("Is the answer supported by the context? Reply YES or NO:")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.NewSession()
		if _, err := s.Feed(prompt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(prompt)), "tokens/op")
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
