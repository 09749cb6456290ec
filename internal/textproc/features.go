package textproc

// Features is the evidence-grounded signal vector computed for one
// (claim sentence, context) pair. It is the substrate the calibrated
// SLM backend maps to a yes-probability; downstream code may also use
// it directly for explanations.
type Features struct {
	// UnigramSupport is the fraction of the claim's content words found
	// in the context (directional overlap, Eq. OverlapRatio).
	UnigramSupport float64
	// BigramSupport is the same over adjacent content-word pairs.
	BigramSupport float64
	// QuantityConflicts counts numeric/temporal facts in the claim that
	// contradict the context (wrong hours, wrong days, wrong counts).
	QuantityConflicts int
	// QuantityMatches counts numeric/temporal facts corroborated
	// exactly by the context.
	QuantityMatches int
	// ConflictProximity measures how numerically close the worst
	// conflicting claim quantity is to the evidence (1 = adjacent
	// values, 0 = far apart or no conflict). Near-miss hallucinations
	// ("day 26" vs "day 25") are the ones real judge models overlook,
	// and they overlook them in a correlated way — proximity is a
	// property of the input, not of the model.
	ConflictProximity float64
	// AntonymClashes counts claim words whose registered antonym
	// appears in the context.
	AntonymClashes int
	// NegationMismatch is true when claim and context disagree in
	// polarity.
	NegationMismatch bool
	// Hedges counts uncertainty markers in the claim.
	Hedges int
	// ClaimLength is the number of content words in the claim; very
	// short claims give verifiers little to latch onto, increasing
	// score variance.
	ClaimLength int
}

// ExtractFeatures computes the full feature vector for a claim sentence
// against a context passage. It is PrepareEvidence(context).Features(claim);
// a caller scoring many claims against one context prepares it once.
func ExtractFeatures(claim, context string) Features {
	return PrepareEvidence(context).Features(claim)
}

// Evidence is what the features read of a context passage: its content
// words and adjacent pairs of them as counts, its quantities and the
// parity of its negation markers. It is read-only once prepared, so
// one Evidence may score claims on many goroutines.
type Evidence struct {
	words      map[string]int
	bigrams    map[[2]string]int
	quantities []Quantity
	negated    bool
}

// PrepareEvidence reads context once for any number of Features calls.
func PrepareEvidence(context string) *Evidence {
	ew := ContentWords(context)
	words := Words(context)
	return &Evidence{
		words:      counts(ew),
		bigrams:    counts(pairs(ew)),
		quantities: extractQuantities(words),
		negated:    countNegations(words)%2 == 1,
	}
}

// Features computes the feature vector for a claim sentence against the
// prepared context: equal, field for field, to what ExtractFeatures
// computed from the two strings.
func (e *Evidence) Features(claim string) Features {
	cw := ContentWords(claim)
	words := Words(claim) // split once for the quantities, negations and hedges
	cq := extractQuantities(words)
	conf, match := QuantityConflicts(cq, e.quantities)
	return Features{
		UnigramSupport:    overlap(cw, e.words),
		BigramSupport:     overlap(pairs(cw), e.bigrams),
		QuantityConflicts: conf,
		QuantityMatches:   match,
		ConflictProximity: ConflictProximity(cq, e.quantities),
		AntonymClashes:    antonymClashes(cw, e.words),
		NegationMismatch:  (countNegations(words)%2 == 1) != e.negated,
		Hedges:            countHedges(words),
		ClaimLength:       len(cw),
	}
}

// pairs returns the adjacent pairs of tokens: Bigrams without joining
// them. A content word holds no space, so two pairs are equal exactly
// when their Bigrams strings are.
func pairs(tokens []string) [][2]string {
	if len(tokens) < 2 {
		return nil
	}
	out := make([][2]string, len(tokens)-1)
	for i := range out {
		out[i] = [2]string{tokens[i], tokens[i+1]}
	}
	return out
}

// SupportScore collapses the feature vector into a single grounded
// entailment estimate in [0, 1]. This is the "ideal judge" against
// which each synthetic SLM is a noisy, biased observer; the framework
// under test never sees this value directly.
func (f Features) SupportScore() float64 {
	s := 0.55*f.UnigramSupport + 0.45*f.BigramSupport
	// Each contradicted quantity is strong evidence of hallucination;
	// each corroborated one strengthens support.
	s -= 0.35 * float64(f.QuantityConflicts)
	s += 0.10 * float64(f.QuantityMatches)
	s -= 0.30 * float64(f.AntonymClashes)
	if f.NegationMismatch {
		s -= 0.25
	}
	s -= 0.03 * float64(f.Hedges)
	if f.ClaimLength <= 2 {
		s -= 0.05 // too little content to verify
	}
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
