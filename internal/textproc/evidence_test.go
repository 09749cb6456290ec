package textproc

import (
	"math"
	"testing"
)

// The reference feature extractor: verbatim copies of ExtractFeatures,
// OverlapRatio and AntonymClashes as they were before the context was
// prepared once as Evidence, renamed with a ref prefix. The fuzzer below
// holds PrepareEvidence(context).Features(claim) to them.

// refExtractFeatures computes the full feature vector for a claim sentence
// against a context passage.
func refExtractFeatures(claim, context string) Features {
	cw := ContentWords(claim)
	ew := ContentWords(context)
	cq := ExtractQuantities(claim)
	eq := ExtractQuantities(context)
	conf, match := QuantityConflicts(cq, eq)
	return Features{
		UnigramSupport:    refOverlapRatio(cw, ew),
		BigramSupport:     refOverlapRatio(Bigrams(cw), Bigrams(ew)),
		QuantityConflicts: conf,
		QuantityMatches:   match,
		ConflictProximity: ConflictProximity(cq, eq),
		AntonymClashes:    refAntonymClashes(cw, ew),
		NegationMismatch:  NegationMismatch(claim, context),
		Hedges:            CountHedges(claim),
		ClaimLength:       len(cw),
	}
}

// refOverlapRatio computes |A ∩ B| / |A| over two token multisets, where A
// is the claim's tokens and B the evidence's. It answers "what fraction
// of the claim is supported by the evidence" and is directional on
// purpose: extra evidence must not penalize a short claim.
func refOverlapRatio(claim, evidence []string) float64 {
	if len(claim) == 0 {
		return 0
	}
	have := make(map[string]int, len(evidence))
	for _, t := range evidence {
		have[t]++
	}
	matched := 0
	for _, t := range claim {
		if have[t] > 0 {
			have[t]--
			matched++
		}
	}
	return float64(matched) / float64(len(claim))
}

// refAntonymClashes counts claim tokens that have a registered antonym
// present in the evidence. Tokens must already be stemmed (as produced
// by ContentWords).
func refAntonymClashes(claim, evidence []string) int {
	evSet := make(map[string]struct{}, len(evidence))
	for _, t := range evidence {
		evSet[t] = struct{}{}
	}
	clashes := 0
	for _, t := range claim {
		set, ok := antonyms[t]
		if !ok {
			continue
		}
		for opp := range set {
			if _, hit := evSet[opp]; hit {
				clashes++
				break
			}
		}
	}
	return clashes
}

// checkFeatures fails unless every field of got equals want, floats by
// their bits.
func checkFeatures(t *testing.T, claim, context string, got, want Features) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.UnigramSupport) != bits(want.UnigramSupport) ||
		bits(got.BigramSupport) != bits(want.BigramSupport) ||
		bits(got.ConflictProximity) != bits(want.ConflictProximity) ||
		got.QuantityConflicts != want.QuantityConflicts ||
		got.QuantityMatches != want.QuantityMatches ||
		got.AntonymClashes != want.AntonymClashes ||
		got.NegationMismatch != want.NegationMismatch ||
		got.Hedges != want.Hedges ||
		got.ClaimLength != want.ClaimLength {
		t.Fatalf("claim %q, context %q:\n got  %+v\n want %+v", claim, context, got, want)
	}
}

// FuzzEvidenceMatchesExtractFeatures holds the prepared context to the
// original extractor on any (claim, context) pair, and holds one
// Evidence to it across two claims.
func FuzzEvidenceMatchesExtractFeatures(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzEvidenceMatchesExtractFeatures (repeated
	// words and pairs on both sides, quantities, antonyms and negations,
	// non-ASCII text) and every tokenizer seed against a handbook context.
	for _, s := range tokenizerSeeds {
		f.Add(s, "The store operates from 9 AM to 5 PM, from Sunday to Saturday. It is not open on holidays.")
	}
	f.Fuzz(func(t *testing.T, claim, context string) {
		e := PrepareEvidence(context)
		for _, c := range []string{claim, context} {
			want := refExtractFeatures(c, context)
			checkFeatures(t, c, context, e.Features(c), want)
			checkFeatures(t, c, context, ExtractFeatures(c, context), want)
		}
	})
}
