package textproc

// The reference tokenizer and stemmer: verbatim copies of Normalize,
// Words, ContentWords and the Porter stemmer as they were before the
// one-pass scanner and the in-place stemmer, renamed with a ref prefix.
// The fuzzers below hold the current code to them.

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// refNormalize lowercases s, folds common Unicode punctuation to ASCII,
// collapses internal whitespace runs to single spaces, and trims the
// result. It is the canonical first step before any comparison between
// a response sentence and its context.
func refNormalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	prevSpace := true // trim leading space
	for _, r := range s {
		r = foldRune(r)
		if unicode.IsSpace(r) {
			if !prevSpace {
				b.WriteByte(' ')
				prevSpace = true
			}
			continue
		}
		prevSpace = false
		b.WriteRune(unicode.ToLower(r))
	}
	return strings.TrimRight(b.String(), " ")
}

// refWords splits s into lowercase word tokens. A word is a maximal run of
// letters, digits, or the characters '\” and '-' appearing between
// letters (so "don't" and "part-time" stay whole). Punctuation is
// dropped. Numbers keep attached suffixes such as "9am" intact so the
// time parser can handle them.
func refWords(s string) []string {
	s = refNormalize(s)
	words := make([]string, 0, len(s)/5+1)
	start := -1
	runes := []rune(s)
	isWordRune := func(i int) bool {
		r := runes[i]
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
		if (r == '\'' || r == '-') && i > 0 && i+1 < len(runes) {
			return isAlnum(runes[i-1]) && isAlnum(runes[i+1])
		}
		// ':' inside a clock time such as 9:30
		if r == ':' && i > 0 && i+1 < len(runes) {
			return unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1])
		}
		// '.' inside a decimal such as 2.5
		if r == '.' && i > 0 && i+1 < len(runes) {
			return unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1])
		}
		// '%' glued to a number ("90%") must survive for the
		// quantity parser.
		if r == '%' && i > 0 {
			return unicode.IsDigit(runes[i-1])
		}
		return false
	}
	for i := range runes {
		if isWordRune(i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			words = append(words, string(runes[start:i]))
			start = -1
		}
	}
	if start >= 0 {
		words = append(words, string(runes[start:]))
	}
	return words
}

// refContentWords returns the stemmed, stopword-free word list of s. This
// is the representation used for lexical-overlap features between a
// candidate sentence and the retrieved context.
func refContentWords(s string) []string {
	ws := refWords(s)
	out := ws[:0]
	for _, w := range ws {
		if IsStopword(w) {
			continue
		}
		out = append(out, refStem(w))
	}
	return out
}

// refStem reduces an English word to its stem using the classic Porter
// (1980) algorithm. Stemming lets "employees" in a response match
// "employee" in the handbook context without a full lemmatizer.
//
// The implementation follows the five-step structure of the original
// paper. Words of length ≤ 2 and tokens containing digits are returned
// unchanged (times like "9:30" and counts like "14" must stay exact for
// the numeric-consistency checker).
func refStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for _, r := range word {
		if r >= '0' && r <= '9' {
			return word
		}
	}
	w := []byte(strings.ToLower(word))
	w = refStep1a(w)
	w = refStep1b(w)
	w = refStep1c(w)
	w = refStep2(w)
	w = refStep3(w)
	w = refStep4(w)
	w = refStep5a(w)
	w = refStep5b(w)
	return string(w)
}

// refIsConsonant reports whether w[i] acts as a consonant per Porter's
// definition ('y' is a consonant when preceded by a vowel position).
func refIsConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !refIsConsonant(w, i-1)
	default:
		return true
	}
}

// refMeasure computes m, the number of vowel-consonant sequences in w
// (Porter's [C](VC)^m[V] decomposition).
func refMeasure(w []byte) int {
	m, i, n := 0, 0, len(w)
	for i < n && refIsConsonant(w, i) {
		i++
	}
	for i < n {
		for i < n && !refIsConsonant(w, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && refIsConsonant(w, i) {
			i++
		}
	}
	return m
}

func refHasVowel(w []byte) bool {
	for i := range w {
		if !refIsConsonant(w, i) {
			return true
		}
	}
	return false
}

// refEndsDoubleConsonant reports whether w ends with two identical
// consonants (e.g. "hopp").
func refEndsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && refIsConsonant(w, n-1)
}

// refEndsCVC reports whether w ends consonant-vowel-consonant where the
// final consonant is not w, x or y (the *o condition).
func refEndsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !refIsConsonant(w, n-3) || refIsConsonant(w, n-2) || !refIsConsonant(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

func refHasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// refReplaceSuffix swaps suffix from→to when the stem before `from` has
// refMeasure ≥ minM. Returns the (possibly new) word and whether a rule
// fired.
func refReplaceSuffix(w []byte, from, to string, minM int) ([]byte, bool) {
	if !refHasSuffix(w, from) {
		return w, false
	}
	stem := w[:len(w)-len(from)]
	if refMeasure(stem) < minM {
		return w, true // suffix matched but condition failed: stop trying others
	}
	out := make([]byte, 0, len(stem)+len(to))
	out = append(out, stem...)
	out = append(out, to...)
	return out, true
}

func refStep1a(w []byte) []byte {
	switch {
	case refHasSuffix(w, "sses"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ies"):
		return w[:len(w)-2]
	case refHasSuffix(w, "ss"):
		return w
	case refHasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func refStep1b(w []byte) []byte {
	if refHasSuffix(w, "eed") {
		if refMeasure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case refHasSuffix(w, "ed") && refHasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case refHasSuffix(w, "ing") && refHasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case refHasSuffix(stem, "at"), refHasSuffix(stem, "bl"), refHasSuffix(stem, "iz"):
		return append(stem, 'e')
	case refEndsDoubleConsonant(stem):
		c := stem[len(stem)-1]
		if c != 'l' && c != 's' && c != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case refMeasure(stem) == 1 && refEndsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func refStep1c(w []byte) []byte {
	if refHasSuffix(w, "y") && refHasVowel(w[:len(w)-1]) {
		out := make([]byte, len(w))
		copy(out, w)
		out[len(out)-1] = 'i'
		return out
	}
	return w
}

var refStep2Rules = []struct{ from, to string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
}

func refStep2(w []byte) []byte {
	for _, r := range refStep2Rules {
		if out, ok := refReplaceSuffix(w, r.from, r.to, 1); ok {
			return out
		}
	}
	return w
}

var refStep3Rules = []struct{ from, to string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func refStep3(w []byte) []byte {
	for _, r := range refStep3Rules {
		if out, ok := refReplaceSuffix(w, r.from, r.to, 1); ok {
			return out
		}
	}
	return w
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func refStep4(w []byte) []byte {
	for _, s := range refStep4Suffixes {
		if !refHasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if refMeasure(stem) > 1 {
			return stem
		}
		return w
	}
	if refHasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if refMeasure(stem) > 1 && len(stem) > 0 {
			c := stem[len(stem)-1]
			if c == 's' || c == 't' {
				return stem
			}
		}
	}
	return w
}

func refStep5a(w []byte) []byte {
	if !refHasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := refMeasure(stem)
	if m > 1 || (m == 1 && !refEndsCVC(stem)) {
		return stem
	}
	return w
}

func refStep5b(w []byte) []byte {
	if refMeasure(w) > 1 && refEndsDoubleConsonant(w) && w[len(w)-1] == 'l' {
		return w[:len(w)-1]
	}
	return w
}

// tokenizerSeeds are texts on both sides of every Words rule, on the
// ASCII scanner and on the rune path.
var tokenizerSeeds = []string{
	"",
	"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	"Full-time employees are entitled to 14 days of paid annual leave per year.",
	"don't don’t part-time part–time 9-5 x- -x a'b 'q' a-'b",
	"9:30 12:00: :15 a:b 2.5 1.2.3 .5 5. 90% 5%% x%",
	"tabs\tand\r\nCRLF  double  spaces\v\f",
	"UPPERCASE MiXeD Café naïve Straße Kelvin İstanbul 日本語",
	"no break space and\u0085next \xff\xfe\xc3",
	"relational conditional hopefulness formaliti triplicate electrical",
	"adoption communism controll roll caresses ponies hopping filing happy sky agreed",
	"supercalifragilisticexpialidocious-supercalifragilisticexpialidocious-and-more",
	"the and of to a an",
}

func collectContentWords(s string) []string {
	var out []string
	EachContentWord(s, func(w []byte) { out = append(out, string(w)) })
	return out
}

// FuzzContentWordsMatchesReference holds ContentWords and
// EachContentWord to the original tokenizer on any text.
func FuzzContentWordsMatchesReference(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := refContentWords(s)
		got := ContentWords(s)
		if got == nil || !slices.Equal(got, want) {
			t.Fatalf("ContentWords(%q) = %#v, want %#v", s, got, want)
		}
		if each := collectContentWords(s); !slices.Equal(each, want) {
			t.Fatalf("EachContentWord(%q) yields %#v, want %#v", s, each, want)
		}
	})
}

// FuzzWordsMatchesReference holds Words, whose ASCII text takes a
// one-pass path of its own, to the original tokenizer on any text.
func FuzzWordsMatchesReference(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Words(s), refWords(s); !slices.Equal(got, want) {
			t.Fatalf("Words(%q) = %#v, want %#v", s, got, want)
		}
	})
}

// FuzzStemMatchesReference holds Stem to the original stemmer, on the
// fuzzed string itself and on each of its words.
func FuzzStemMatchesReference(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, w := range append(refWords(s), s) {
			if got, want := Stem(w), refStem(w); got != want {
				t.Fatalf("Stem(%q) = %q, want %q", w, got, want)
			}
		}
	})
}

func TestContentWordsEmptyIsNonNil(t *testing.T) {
	for _, s := range []string{"", "   ", "the and of", "!!! ---", "The — of…", "…"} {
		if got := ContentWords(s); got == nil || len(got) != 0 {
			t.Errorf("ContentWords(%q) = %#v, want a non-nil empty slice", s, got)
		}
	}
}

// refParseNumericToken is parseNumericToken as it was before it skipped
// strconv.ParseFloat on tokens that cannot parse, verbatim.
func refParseNumericToken(tok string) (float64, QuantityKind, bool) {
	tok = strings.ToLower(strings.TrimSuffix(tok, "."))
	if tok == "" {
		return 0, KindCount, false
	}
	if v, ok := numberWords[tok]; ok {
		return v, KindCount, true
	}
	if i := strings.IndexByte(tok, ':'); i > 0 {
		h, err1 := strconv.Atoi(tok[:i])
		m, err2 := strconv.Atoi(tok[i+1:])
		if err1 == nil && err2 == nil && h >= 0 && h <= 24 && m >= 0 && m < 60 {
			return float64(h*60 + m), KindClockTime, true
		}
		return 0, KindCount, false
	}
	kind := KindCount
	mult := 1.0
	switch {
	case strings.HasSuffix(tok, "%"):
		kind = KindPercent
		tok = strings.TrimSuffix(tok, "%")
	case strings.HasSuffix(tok, "k"):
		mult = 1e3
		tok = strings.TrimSuffix(tok, "k")
	case strings.HasSuffix(tok, "m"):
		mult = 1e6
		tok = strings.TrimSuffix(tok, "m")
	case strings.HasPrefix(tok, "$"):
		kind = KindMoney
		tok = strings.TrimPrefix(tok, "$")
	case strings.HasPrefix(tok, "hk$"):
		kind = KindMoney
		tok = strings.TrimPrefix(tok, "hk$")
	}
	tok = strings.ReplaceAll(tok, ",", "")
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, KindCount, false
	}
	return v * mult, kind, true
}

// FuzzParseNumericTokenMatchesReference holds parseNumericToken to the
// version that called ParseFloat on every token, on the fuzzed string
// and on each of its words.
func FuzzParseNumericTokenMatchesReference(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		"inf", "+Inf", "-infinity", "INFINITY.", "nan", "NaN", "+nan", "-NaN", "infin", "infinityy",
		"$inf", "hk$nan", "inf%", "infk", "nanm", "i,nf", "0x1p-2", "0X1P+2k", "1_000", "0x_1p0",
		"1e5", "e5", ".", "-.", "+", "2.5m", "hk$1,200", "$", "12:30", "9:", "one", "Twelve.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range append(refWords(s), s) {
			v, kind, ok := parseNumericToken(tok)
			rv, rkind, rok := refParseNumericToken(tok)
			if ok != rok || kind != rkind || math.Float64bits(v) != math.Float64bits(rv) {
				t.Fatalf("parseNumericToken(%q) = %v, %v, %v, want %v, %v, %v", tok, v, kind, ok, rv, rkind, rok)
			}
		}
	})
}
