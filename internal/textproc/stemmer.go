package textproc

import "strings"

// Stem reduces an English word to its stem using the classic Porter
// (1980) algorithm. Stemming lets "employees" in a response match
// "employee" in the handbook context without a full lemmatizer.
//
// The implementation follows the five-step structure of the original
// paper. Words of length ≤ 2 and tokens containing digits are returned
// unchanged (times like "9:30" and counts like "14" must stay exact for
// the numeric-consistency checker).
func Stem(word string) string {
	if !stemmable(word) {
		return word
	}
	return string(stemBytes([]byte(strings.ToLower(word))))
}

// stemmable reports whether Stem rewrites w at all: it must be longer
// than two bytes and hold no ASCII digit.
func stemmable[T string | []byte](w T) bool {
	if len(w) <= 2 {
		return false
	}
	for i := 0; i < len(w); i++ {
		if w[i] >= '0' && w[i] <= '9' {
			return false
		}
	}
	return true
}

// stemBytes runs the Porter steps on the lowercase word w, rewriting
// its bytes in place: every replacement is no longer than the suffix
// it replaces. The stem it returns shares w's bytes.
func stemBytes(w []byte) []byte {
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	return step5b(w)
}

// isConsonant reports whether w[i] acts as a consonant per Porter's
// definition ('y' is a consonant when preceded by a vowel position).
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	default:
		return true
	}
}

// measure computes m, the number of vowel-consonant sequences in w
// (Porter's [C](VC)^m[V] decomposition).
func measure(w []byte) int {
	m, i, n := 0, 0, len(w)
	for i < n && isConsonant(w, i) {
		i++
	}
	for i < n {
		for i < n && !isConsonant(w, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && isConsonant(w, i) {
			i++
		}
	}
	return m
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends with two identical
// consonants (e.g. "hopp").
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the
// final consonant is not w, x or y (the *o condition).
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isConsonant(w, n-3) || isConsonant(w, n-2) || !isConsonant(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix compares byte by byte from the end: suffixes are a few
// bytes long, and most candidates differ in their last two.
func hasSuffix(w []byte, s string) bool {
	if len(w) < len(s) {
		return false
	}
	w = w[len(w)-len(s):]
	for i := len(s) - 1; i >= 0; i-- {
		if w[i] != s[i] {
			return false
		}
	}
	return true
}

// replaceSuffix swaps suffix from→to in place when the stem before
// `from` has measure ≥ minM; `to` is never longer than `from`. Returns
// the (possibly shortened) word and whether a rule fired.
func replaceSuffix(w []byte, from, to string, minM int) ([]byte, bool) {
	if !hasSuffix(w, from) {
		return w, false
	}
	stem := w[:len(w)-len(from)]
	if measure(stem) < minM {
		return w, true // suffix matched but condition failed: stop trying others
	}
	return append(stem, to...), true
}

type suffixRule struct{ from, to string }

// rulesByLastByte buckets rules by the last byte of their suffix,
// keeping their order, so a step tries only the rules that can match
// the word's last byte. First match still wins.
func rulesByLastByte(rules []suffixRule) (out [256][]suffixRule) {
	for _, r := range rules {
		c := r.from[len(r.from)-1]
		out[c] = append(out[c], r)
	}
	return out
}

// applyFirstRule applies the first rule of the word's last-byte bucket
// whose suffix matches.
func applyFirstRule(w []byte, rules *[256][]suffixRule, minM int) []byte {
	if len(w) == 0 {
		return w
	}
	for _, r := range rules[w[len(w)-1]] {
		if out, ok := replaceSuffix(w, r.from, r.to, minM); ok {
			return out
		}
	}
	return w
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		c := stem[len(stem)-1]
		if c != 'l' && c != 's' && c != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = rulesByLastByte([]suffixRule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
})

func step2(w []byte) []byte { return applyFirstRule(w, &step2Rules, 1) }

var step3Rules = rulesByLastByte([]suffixRule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
})

func step3(w []byte) []byte { return applyFirstRule(w, &step3Rules, 1) }

// step4Rules drop a suffix outright when m > 1. None ends in 'n', so
// they and the "(s|t)ion" rule never both match a word, and which is
// tried first does not matter.
var step4Rules = rulesByLastByte([]suffixRule{
	{"al", ""}, {"ance", ""}, {"ence", ""}, {"er", ""}, {"ic", ""},
	{"able", ""}, {"ible", ""}, {"ant", ""}, {"ement", ""}, {"ment", ""},
	{"ent", ""}, {"ou", ""}, {"ism", ""}, {"ate", ""}, {"iti", ""},
	{"ous", ""}, {"ive", ""}, {"ize", ""},
})

func step4(w []byte) []byte {
	if !hasSuffix(w, "ion") {
		return applyFirstRule(w, &step4Rules, 2)
	}
	stem := w[:len(w)-3]
	if measure(stem) > 1 && len(stem) > 0 {
		c := stem[len(stem)-1]
		if c == 's' || c == 't' {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

// step5b drops one 'l' of a final "ll" when m > 1. The cheap byte tests
// run before measure.
func step5b(w []byte) []byte {
	if n := len(w); n >= 2 && w[n-1] == 'l' && w[n-2] == 'l' && measure(w) > 1 {
		return w[:n-1]
	}
	return w
}
