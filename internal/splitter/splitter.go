// Package splitter segments LLM responses into sentences, the role
// SpaCy plays in the paper (§IV-A). Each sentence r_{i,j} is then
// verified independently; without this step a response mixing correct
// and incorrect statements would confuse the checker.
//
// The splitter is rule-based: it breaks on '.', '!', '?' and newlines,
// while protecting abbreviations ("Dr.", "e.g."), initials ("J. Smith"),
// decimal numbers ("2.5"), times ("9 a.m."), ellipses and closing
// quotes/brackets that belong to the finished sentence.
package splitter

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// abbreviations that may end with a period mid-sentence.
var abbreviations = map[string]struct{}{
	"mr": {}, "mrs": {}, "ms": {}, "dr": {}, "prof": {}, "sr": {},
	"jr": {}, "st": {}, "vs": {}, "etc": {}, "e.g": {}, "i.e": {},
	"eg": {}, "ie": {}, "inc": {}, "ltd": {}, "co": {}, "dept": {},
	"approx": {}, "no": {}, "fig": {}, "hr": {}, "a.m": {}, "p.m": {},
	"am": {}, "pm": {}, "u.s": {}, "u.k": {},
}

// Split segments text into sentences. Whitespace around each sentence
// is trimmed; empty sentences are dropped. The concatenation of the
// returned sentences, ignoring whitespace, equals the input ignoring
// whitespace (a property the tests enforce).
//
// ASCII text is scanned byte by byte and its sentences are substrings
// of text; any other text is scanned as runes, as a byte index would
// split a multi-byte character. Both run the same rules.
func Split(text string) []string {
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			runes := []rune(text)
			return scanner[rune]{runes, func(a, b int) string { return string(runes[a:b]) }}.split()
		}
	}
	return scanner[byte]{[]byte(text), func(a, b int) string { return text[a:b] }}.split()
}

// scanner holds the text being split as characters: bytes for ASCII
// text, runes otherwise. sub returns characters [a, b) as a string.
type scanner[T byte | rune] struct {
	s   []T
	sub func(a, b int) string
}

func (sc scanner[T]) split() []string {
	var sentences []string
	cs := sc.s
	n := len(cs)
	start := 0
	flush := func(end int) {
		s := strings.TrimSpace(sc.sub(start, end))
		if s != "" {
			sentences = append(sentences, s)
		}
		start = end
	}
	for i := 0; i < n; i++ {
		switch rune(cs[i]) {
		case '\n':
			// A newline ends a sentence only when followed by a blank
			// line or a list-ish start; a single wrap inside a
			// paragraph is just whitespace. We treat every newline as
			// a boundary if the accumulated text already looks like a
			// complete clause (ends with punctuation) — otherwise keep
			// going.
			j, newlines := i, 0
			for j < n && (cs[j] == '\n' || cs[j] == ' ' || cs[j] == '\t') {
				if cs[j] == '\n' {
					newlines++
				}
				j++
			}
			trimmed := strings.TrimSpace(sc.sub(start, i))
			if trimmed == "" {
				start = j
				i = j - 1
				continue
			}
			last := trimmed[len(trimmed)-1]
			doubleBreak := newlines >= 2
			if doubleBreak || last == '.' || last == '!' || last == '?' ||
				last == ':' || last == ';' || sc.isListStart(j) {
				flush(i)
				start = j
				i = j - 1
			}
		case '!', '?':
			end := sc.consumeClosers(i + 1)
			flush(end)
			i = end - 1
		case '.':
			if sc.isSentenceEnd(i) {
				end := sc.consumeClosers(i + 1)
				flush(end)
				i = end - 1
			}
		}
	}
	flush(n)
	return sentences
}

// consumeClosers extends the sentence end past closing quotes, brackets
// and repeated terminal punctuation ("...", "?!").
func (sc scanner[T]) consumeClosers(i int) int {
	for i < len(sc.s) {
		switch rune(sc.s[i]) {
		case '"', '\'', '”', '’', ')', ']', '}', '.', '!', '?':
			i++
		default:
			return i
		}
	}
	return i
}

// isListStart reports whether position j begins a bullet or numbered
// list item.
func (sc scanner[T]) isListStart(j int) bool {
	cs := sc.s
	if j >= len(cs) {
		return false
	}
	switch rune(cs[j]) {
	case '-', '*', '•':
		return true
	}
	// "1." / "2)" style
	k := j
	for k < len(cs) && unicode.IsDigit(rune(cs[k])) {
		k++
	}
	if k > j && k < len(cs) && (cs[k] == '.' || cs[k] == ')') {
		return true
	}
	return false
}

// isSentenceEnd decides whether the period at index i terminates a
// sentence.
func (sc scanner[T]) isSentenceEnd(i int) bool {
	cs := sc.s
	n := len(cs)
	// Ellipsis "..." — only the final dot may end the sentence.
	if i+1 < n && cs[i+1] == '.' {
		return false
	}
	// Decimal number "2.5" or section "3.1".
	if i > 0 && i+1 < n && unicode.IsDigit(rune(cs[i-1])) && unicode.IsDigit(rune(cs[i+1])) {
		return false
	}
	// Word before the period.
	j := i - 1
	for j >= 0 && (unicode.IsLetter(rune(cs[j])) || cs[j] == '.') {
		j--
	}
	word := strings.ToLower(strings.TrimSuffix(sc.sub(j+1, i), "."))
	// "No." is an abbreviation only before a number ("No. 5"); the
	// English word "no" at a sentence end is far more common.
	if word == "no" {
		k := sc.nextNonSpace(i + 1)
		if k == -1 || !unicode.IsDigit(rune(cs[k])) {
			word = ""
		}
	}
	if _, ok := abbreviations[word]; ok {
		// An abbreviation period still ends the sentence when the next
		// word starts a new clause with an uppercase letter AND the
		// abbreviation is a time marker at clause end ("5 p.m. The
		// store..."). Distinguish via lookahead: uppercase after
		// space ⇒ end only for time markers.
		if word == "a.m" || word == "p.m" || word == "am" || word == "pm" {
			return sc.nextWordCapitalized(i + 1)
		}
		return false
	}
	// Single initial "J. Smith".
	if len(word) == 1 {
		return false
	}
	// Period followed by lowercase continuation is mid-sentence
	// ("filed vs. accepted").
	if !sc.nextWordCapitalized(i+1) && sc.nextNonSpace(i+1) != -1 {
		// allow digits/quotes to start sentences too
		k := sc.nextNonSpace(i + 1)
		r := rune(cs[k])
		if !unicode.IsDigit(r) && r != '"' && r != '\'' && r != '“' {
			return false
		}
	}
	return true
}

func (sc scanner[T]) nextNonSpace(i int) int {
	for ; i < len(sc.s); i++ {
		if !unicode.IsSpace(rune(sc.s[i])) {
			return i
		}
	}
	return -1
}

func (sc scanner[T]) nextWordCapitalized(i int) bool {
	k := sc.nextNonSpace(i)
	if k == -1 {
		return true // end of text closes the sentence
	}
	// Skip quote/bracket characters (and any whitespace they hide) to
	// find the first letter of the next word: a period inside closing
	// quotes still ends its sentence when a capitalized word follows.
	r := rune(sc.s[k])
	for r == '"' || r == '\'' || r == '“' || r == '”' || r == '’' || r == '(' || r == ')' {
		k = sc.nextNonSpace(k + 1)
		if k == -1 {
			return true
		}
		r = rune(sc.s[k])
	}
	return unicode.IsUpper(r)
}

// Count returns the number of sentences Split would produce, without
// materializing them. Exposed because the checker needs |S(r_i)| for
// Eq. 6.
func Count(text string) int { return len(Split(text)) }
