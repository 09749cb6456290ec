// Package textproc provides the text-processing substrate used throughout
// the hallucination-detection framework: Unicode-aware normalization,
// tokenization into words, a Porter stemmer, stopword filtering, and
// parsers for the numeric, temporal and calendar expressions that HR
// policy text is full of ("9 AM", "Monday to Friday", "500K", "3 days").
//
// The package is dependency-free and deterministic; every function is
// safe for concurrent use.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize lowercases s, folds common Unicode punctuation to ASCII,
// collapses internal whitespace runs to single spaces, and trims the
// result. It is the canonical first step before any comparison between
// a response sentence and its context.
func Normalize(s string) string {
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

// foldRune maps typographic punctuation to its ASCII equivalent so that
// curly quotes, en/em dashes and ellipses from word processors compare
// equal to their plain-text forms.
func foldRune(r rune) rune {
	switch r {
	case '‘', '’', '‚', '′': // single quotes, prime
		return '\''
	case '“', '”', '„', '″': // double quotes
		return '"'
	case '–', '—', '−': // en dash, em dash, minus
		return '-'
	case ' ', ' ', ' ': // no-break spaces
		return ' '
	default:
		return r
	}
}

// Words splits s into lowercase word tokens. A word is a maximal run of
// letters, digits, or an apostrophe or hyphen appearing between two
// letters or digits (so "don't", "part-time" and "9-5" stay whole).
// Punctuation is dropped. Numbers keep attached suffixes such as "9am"
// intact so the time parser can handle them.
func Words(s string) []string {
	if isASCII(s) {
		return asciiWords(s)
	}
	s = Normalize(s)
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

func isAlnum(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// asciiWords is Words on ASCII text, in one pass over its lowercased
// bytes, the words slices of that one copy. As in
// eachASCIIContentWord, Words' rules apply to s as it stands: Normalize
// only lowercases and collapses or trims whitespace there, and every
// rule asks only whether a neighbour is a letter or a digit, which no
// whitespace byte is.
func asciiWords(s string) []string {
	s = strings.ToLower(s)
	words := make([]string, 0, len(s)/5+1)
	start := -1
	for i := 0; i < len(s); i++ {
		if isASCIIAlnum(s[i]) || joinsASCIIWord(s, i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			words = append(words, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		words = append(words, s[start:])
	}
	return words
}

// ContentWords returns the stemmed, stopword-free word list of s. This
// is the representation used for lexical-overlap features between a
// candidate sentence and the retrieved context.
func ContentWords(s string) []string {
	if !isASCII(s) {
		return runeContentWords(s)
	}
	out := make([]string, 0, len(s)/5+1)
	eachASCIIContentWord(s, func(w []byte) { out = append(out, string(w)) })
	return out
}

// runeContentWords is ContentWords on any text: Words, then stopword
// removal, then Stem.
func runeContentWords(s string) []string {
	ws := Words(s)
	out := ws[:0]
	for _, w := range ws {
		if IsStopword(w) {
			continue
		}
		out = append(out, Stem(w))
	}
	return out
}

// EachContentWord calls fn with each word of ContentWords(s), in order,
// without building the list. w is valid only during the call: fn must
// copy any bytes it keeps. On ASCII text no word is allocated; text
// holding any other byte takes the rune path of ContentWords.
func EachContentWord(s string, fn func(w []byte)) {
	if !isASCII(s) {
		for _, w := range runeContentWords(s) {
			fn([]byte(w))
		}
		return
	}
	eachASCIIContentWord(s, fn)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// eachASCIIContentWord is EachContentWord on ASCII text, in one pass
// over its bytes. It applies Words' rules to s as it stands: Normalize
// only lowercases and collapses or trims whitespace there, and every
// rule asks only whether a neighbour is a letter or a digit, which no
// whitespace byte is.
func eachASCIIContentWord(s string, fn func(w []byte)) {
	var stack [64]byte
	word := stack[:0]
	emit := func() {
		w := word
		word = word[:0]
		if _, stop := stopwords[string(w)]; stop {
			return
		}
		if stemmable(w) {
			w = stemBytes(w)
		}
		fn(w)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', isASCIIDigit(c):
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case !joinsASCIIWord(s, i):
			if len(word) > 0 {
				emit()
			}
			continue
		}
		word = append(word, c)
	}
	if len(word) > 0 {
		emit()
	}
}

// joinsASCIIWord reports whether the punctuation byte s[i] of the ASCII
// text s is part of a word, by Words' rules.
func joinsASCIIWord(s string, i int) bool {
	switch s[i] {
	case '\'', '-':
		return i > 0 && i+1 < len(s) && isASCIIAlnum(s[i-1]) && isASCIIAlnum(s[i+1])
	case ':', '.':
		return i > 0 && i+1 < len(s) && isASCIIDigit(s[i-1]) && isASCIIDigit(s[i+1])
	case '%':
		return i > 0 && isASCIIDigit(s[i-1])
	}
	return false
}

func isASCIIDigit(c byte) bool { return '0' <= c && c <= '9' }

func isASCIIAlnum(c byte) bool {
	return isASCIIDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// Bigrams returns adjacent-pair strings ("a b") over the given tokens.
// Bigram overlap is a sharper evidence signal than unigrams because HR
// policy facts are often two-word collocations ("annual leave",
// "probation period").
func Bigrams(tokens []string) []string {
	if len(tokens) < 2 {
		return nil
	}
	out := make([]string, 0, len(tokens)-1)
	for i := 0; i+1 < len(tokens); i++ {
		out = append(out, tokens[i]+" "+tokens[i+1])
	}
	return out
}

// OverlapRatio computes |A ∩ B| / |A| over two token multisets, where A
// is the claim's tokens and B the evidence's. It answers "what fraction
// of the claim is supported by the evidence" and is directional on
// purpose: extra evidence must not penalize a short claim.
func OverlapRatio(claim, evidence []string) float64 {
	return overlap(claim, counts(evidence))
}

// counts returns how often each token occurs.
func counts[K comparable](tokens []K) map[K]int {
	have := make(map[K]int, len(tokens))
	for _, t := range tokens {
		have[t]++
	}
	return have
}

// overlap is OverlapRatio against evidence token counts. A claim token
// matches while the claim has used fewer of it than the evidence holds,
// so each distinct token contributes min(claim count, evidence count).
func overlap[K comparable](claim []K, have map[K]int) float64 {
	if len(claim) == 0 {
		return 0
	}
	used := make(map[K]int, len(claim))
	matched := 0
	for _, t := range claim {
		if used[t] < have[t] {
			matched++
		}
		used[t]++
	}
	return float64(matched) / float64(len(claim))
}

// Jaccard computes the Jaccard similarity |A∩B| / |A∪B| over token sets
// (duplicates ignored). Symmetric counterpart to OverlapRatio, used by
// the dataset generator's self-checks.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	sa := make(map[string]struct{}, len(a))
	for _, t := range a {
		sa[t] = struct{}{}
	}
	sb := make(map[string]struct{}, len(b))
	for _, t := range b {
		sb[t] = struct{}{}
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
