package textproc

import "strings"

// antonymPairs lists stemmed word pairs whose co-occurrence across a
// claim/evidence pair signals a polarity flip ("permitted" in the
// handbook vs "prohibited" in the answer). Both orientations are
// registered at init.
var antonymPairs = [][2]string{
	{"allow", "forbid"}, {"allow", "prohibit"}, {"permit", "prohibit"},
	{"permit", "forbid"}, {"open", "close"}, {"includ", "exclud"},
	{"requir", "option"}, {"mandatori", "option"}, {"paid", "unpaid"},
	{"full-tim", "part-tim"}, {"start", "end"}, {"begin", "end"},
	{"befor", "after"}, {"earli", "late"}, {"increas", "decreas"},
	{"maximum", "minimum"}, {"max", "min"}, {"large", "small"},
	{"big", "small"}, {"quiet", "busi"}, {"healthi", "unhealthi"},
	{"weekday", "weekend"}, {"accept", "reject"}, {"approv", "deni"},
	{"grant", "deni"}, {"eligibl", "ineligibl"}, {"formal", "casual"},
	{"entitl", "disentitl"}, {"refund", "charg"},
}

var antonyms = map[string]map[string]struct{}{}

func init() {
	add := func(a, b string) {
		if antonyms[a] == nil {
			antonyms[a] = map[string]struct{}{}
		}
		antonyms[a][b] = struct{}{}
	}
	for _, p := range antonymPairs {
		add(p[0], p[1])
		add(p[1], p[0])
	}
}

// AreAntonyms reports whether two stemmed words are registered
// opposites.
func AreAntonyms(a, b string) bool {
	set, ok := antonyms[a]
	if !ok {
		return false
	}
	_, ok = set[b]
	return ok
}

// AntonymClashes counts claim tokens that have a registered antonym
// present in the evidence. Tokens must already be stemmed (as produced
// by ContentWords).
func AntonymClashes(claim, evidence []string) int {
	return antonymClashes(claim, counts(evidence))
}

// antonymClashes is AntonymClashes against evidence token counts.
func antonymClashes(claim []string, evidence map[string]int) int {
	clashes := 0
	for _, t := range claim {
		for opp := range antonyms[t] {
			if evidence[opp] > 0 {
				clashes++
				break
			}
		}
	}
	return clashes
}

// negationMarkers flip the polarity of the clause they appear in.
var negationMarkers = map[string]struct{}{
	"not": {}, "no": {}, "never": {}, "none": {}, "nothing": {},
	"neither": {}, "nor": {}, "without": {}, "cannot": {}, "can't": {},
	"don't": {}, "doesn't": {}, "didn't": {}, "won't": {}, "isn't": {},
	"aren't": {}, "wasn't": {}, "weren't": {}, "shouldn't": {},
	"mustn't": {}, "n't": {},
}

// CountNegations returns the number of negation markers in the raw
// (unstemmed, lowercased) token stream of s.
func CountNegations(s string) int { return countNegations(Words(s)) }

// countNegations is CountNegations over the Words of a text.
func countNegations(words []string) int {
	n := 0
	for _, w := range words {
		if _, ok := negationMarkers[w]; ok {
			n++
			continue
		}
		if strings.HasSuffix(w, "n't") {
			n++
		}
	}
	return n
}

// NegationMismatch reports whether exactly one of claim/evidence is
// negated with respect to shared content. It is a coarse cue: a claim
// saying "you do not need to work on weekends" against evidence
// "operates Sunday to Saturday" shows a polarity asymmetry that the
// verifier should treat as contradiction evidence.
func NegationMismatch(claim, evidence string) bool {
	c := CountNegations(claim) % 2
	e := CountNegations(evidence) % 2
	return c != e
}

// hedgeWords signal uncertainty; instruction-tuned verifiers are known
// to down-weight hedged claims, and the calibrated SLM backend mimics
// that.
var hedgeWords = map[string]struct{}{
	"might": {}, "maybe": {}, "perhaps": {}, "possibly": {},
	"probably": {}, "likely": {}, "approximately": {}, "around": {},
	"roughly": {}, "usually": {}, "sometimes": {}, "often": {},
}

// CountHedges returns the number of hedging markers in s.
func CountHedges(s string) int { return countHedges(Words(s)) }

// countHedges is CountHedges over the Words of a text.
func countHedges(words []string) int {
	n := 0
	for _, w := range words {
		if _, ok := hedgeWords[w]; ok {
			n++
		}
	}
	return n
}
