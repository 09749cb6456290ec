package slm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// FuzzVerifierWindowAndSeed holds what a CalibratedVerifier reads of a
// request without building its prompt to what it read of the prompt:
// the window ids are EncodeTail(VerificationPrompt(req), MaxSeq), and
// the misread seed is rng.HashString of the whole seed string, for the
// context's first claim and question and for ones it has seen.
func FuzzVerifierWindowAndSeed(f *testing.F) {
	long := "Employees are entitled to fourteen days of paid annual leave per calendar year."
	for _, claim := range []string{
		"", " ", "yes", "9 AM.", long, " " + long, "\t" + long, long + "  ",
		"Line one.\nLine two of the answer, long enough to fill the window on its own.",
		"Le café ouvre à 9 h; l'équipe de nuit part à 17 h 30, du lundi au samedi.",
		"\u0085lead no-break spaces and an em space before the end of the claim.",
		"日本語の回答は窓を埋めるほど長い文章でなければならない。",
	} {
		f.Add("What are the working hours?", hoursContext, claim)
	}
	f.Add("", "", "A claim with no question and no context to read before it.")
	f.Add(" q ", "Context\nwith lines", "short")
	tok := tokenizer.New()
	n := idiosyncrasyConfig.MaxSeq
	f.Fuzz(func(t *testing.T, question, context, claim string) {
		req := VerifyRequest{Question: question, Context: context, Claim: claim}
		prompt := VerificationPrompt(req)
		wantIDs := tok.EncodeTail(prompt, n)
		c := prepared.context(context)
		for _, model := range []string{Qwen2Profile.Name, MiniCPMProfile.Name, Qwen2Profile.Name} {
			if got, want := misreadSeed(c, model, req), rng.HashString("slm-misread:"+model+"|"+prompt); got != want {
				t.Fatalf("%s: seed %#x, want %#x for %q", model, got, want, req)
			}
			if got := windowIDs(promptWindow(c.claim(claim), req)); !slices.Equal(got, wantIDs) {
				t.Fatalf("window %v, want %v for %q", got, wantIDs, req)
			}
		}
		// The seed state a context keeps belongs to its question.
		other := VerifyRequest{Question: question + "?", Context: context, Claim: claim}
		if got, want := misreadSeed(c, Qwen2Profile.Name, other), rng.HashString("slm-misread:"+Qwen2Profile.Name+"|"+VerificationPrompt(other)); got != want {
			t.Fatalf("second question: seed %#x, want %#x", got, want)
		}
	})
}

// TestVerifiersShareContextsConcurrently: two verifiers score the
// same contexts — more than the ring keeps — from many goroutines at
// once, so contexts are prepared, evicted and analysed while others
// read them (run with -race). Every answer has the bits a pair of
// verifiers gave one request at a time.
func TestVerifiersShareContextsConcurrently(t *testing.T) {
	ctx := context.Background()
	claims := []string{
		"The working hours are 9 AM to 5 PM.",
		"The store is open from Monday to Friday, and at least three shopkeepers run it.",
		"Yes.",
		"Branch staff do not work on public holidays.",
	}
	var reqs []VerifyRequest
	for i := 0; i < 3*contextSlots/2; i++ {
		for _, claim := range claims {
			reqs = append(reqs, VerifyRequest{
				Question: fmt.Sprintf("What are the hours of branch %d?", i%3),
				Context:  fmt.Sprintf("%s Branch %d opens %d days a week, not on holidays.", hoursContext, i, i%7+1),
				Claim:    claim,
			})
		}
	}
	score := func(models []*CalibratedVerifier, i int) (float64, error) {
		return models[i%2].YesProbability(ctx, reqs[i/2])
	}
	ref := []*CalibratedVerifier{NewQwen2(), NewMiniCPM()}
	want := make([]float64, 2*len(reqs))
	for i := range want {
		p, err := score(ref, i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	models := []*CalibratedVerifier{NewQwen2(), NewMiniCPM()}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range want {
				i := (k*(2*w+1) + w) % len(want)
				p, err := score(models, i)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Errorf("%s on %q: P(yes) = %v, want %v", models[i%2].Name(), strings.TrimSpace(reqs[i/2].Claim), p, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
