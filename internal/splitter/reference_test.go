package splitter

import (
	"strings"
	"testing"
	"unicode"
)

// referenceSplit is a verbatim copy of Split as it was before the
// ASCII path (helpers renamed with a ref prefix): the oracle
// FuzzSplitMatchesReference holds Split to.
func referenceSplit(text string) []string {
	var sentences []string
	runes := []rune(text)
	n := len(runes)
	start := 0
	flush := func(end int) {
		s := strings.TrimSpace(string(runes[start:end]))
		if s != "" {
			sentences = append(sentences, s)
		}
		start = end
	}
	for i := 0; i < n; i++ {
		r := runes[i]
		switch r {
		case '\n':
			// A newline ends a sentence only when followed by a blank
			// line or a list-ish start; a single wrap inside a
			// paragraph is just whitespace. We treat every newline as
			// a boundary if the accumulated text already looks like a
			// complete clause (ends with punctuation) — otherwise keep
			// going.
			j := i
			for j < n && (runes[j] == '\n' || runes[j] == ' ' || runes[j] == '\t') {
				j++
			}
			trimmed := strings.TrimSpace(string(runes[start:i]))
			if trimmed == "" {
				start = j
				i = j - 1
				continue
			}
			last := trimmed[len(trimmed)-1]
			doubleBreak := strings.Count(string(runes[i:j]), "\n") >= 2
			if doubleBreak || last == '.' || last == '!' || last == '?' ||
				last == ':' || last == ';' || refIsListStart(runes, j) {
				flush(i)
				start = j
				i = j - 1
			}
		case '!', '?':
			end := refConsumeClosers(runes, i+1)
			flush(end)
			i = end - 1
		case '.':
			if refIsSentenceEnd(runes, i) {
				end := refConsumeClosers(runes, i+1)
				flush(end)
				i = end - 1
			}
		}
	}
	flush(n)
	return sentences
}

// refConsumeClosers extends the sentence end past closing quotes, brackets
// and repeated terminal punctuation ("...", "?!").
func refConsumeClosers(runes []rune, i int) int {
	for i < len(runes) {
		switch runes[i] {
		case '"', '\'', '”', '’', ')', ']', '}', '.', '!', '?':
			i++
		default:
			return i
		}
	}
	return i
}

// refIsListStart reports whether position j begins a bullet or numbered
// list item.
func refIsListStart(runes []rune, j int) bool {
	if j >= len(runes) {
		return false
	}
	switch runes[j] {
	case '-', '*', '•':
		return true
	}
	// "1." / "2)" style
	k := j
	for k < len(runes) && unicode.IsDigit(runes[k]) {
		k++
	}
	if k > j && k < len(runes) && (runes[k] == '.' || runes[k] == ')') {
		return true
	}
	return false
}

// refIsSentenceEnd decides whether the period at index i terminates a
// sentence.
func refIsSentenceEnd(runes []rune, i int) bool {
	n := len(runes)
	// Ellipsis "..." — only the final dot may end the sentence.
	if i+1 < n && runes[i+1] == '.' {
		return false
	}
	// Decimal number "2.5" or section "3.1".
	if i > 0 && i+1 < n && unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1]) {
		return false
	}
	// Word before the period.
	j := i - 1
	for j >= 0 && (unicode.IsLetter(runes[j]) || runes[j] == '.') {
		j--
	}
	word := strings.ToLower(strings.TrimSuffix(string(runes[j+1:i]), "."))
	// "No." is an abbreviation only before a number ("No. 5"); the
	// English word "no" at a sentence end is far more common.
	if word == "no" {
		k := refNextNonSpace(runes, i+1)
		if k == -1 || !unicode.IsDigit(runes[k]) {
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
			return refNextWordCapitalized(runes, i+1)
		}
		return false
	}
	// Single initial "J. Smith".
	if len(word) == 1 {
		return false
	}
	// Period followed by lowercase continuation is mid-sentence
	// ("filed vs. accepted").
	if !refNextWordCapitalized(runes, i+1) && refNextNonSpace(runes, i+1) != -1 {
		// allow digits/quotes to start sentences too
		k := refNextNonSpace(runes, i+1)
		r := runes[k]
		if !unicode.IsDigit(r) && r != '"' && r != '\'' && r != '“' {
			return false
		}
	}
	return true
}

func refNextNonSpace(runes []rune, i int) int {
	for ; i < len(runes); i++ {
		if !unicode.IsSpace(runes[i]) {
			return i
		}
	}
	return -1
}

func refNextWordCapitalized(runes []rune, i int) bool {
	k := refNextNonSpace(runes, i)
	if k == -1 {
		return true // end of text closes the sentence
	}
	// Skip quote/bracket characters (and any whitespace they hide) to
	// find the first letter of the next word: a period inside closing
	// quotes still ends its sentence when a capitalized word follows.
	r := runes[k]
	for r == '"' || r == '\'' || r == '“' || r == '”' || r == '’' || r == '(' || r == ')' {
		k = refNextNonSpace(runes, k+1)
		if k == -1 {
			return true
		}
		r = runes[k]
	}
	return unicode.IsUpper(r)
}

// FuzzSplitMatchesReference holds Split to the rune-slice version it
// replaced: the same sentences, byte for byte, on any input. ASCII
// text takes the byte-indexed path, everything else the rune path,
// so the seeds mix both, plus curly quotes, ellipses and bullets
// that only the rune path sees.
func FuzzSplitMatchesReference(f *testing.F) {
	for _, tc := range splitCases {
		f.Add(tc.in)
	}
	f.Add("He said “no.” Then he left.")
	f.Add("Wait… what? It’s 5 p.m. Go home.")
	f.Add("Prices: • 2.5 kg\n• 3 kg.\n\nDone. ‘Quoted.’ Next")
	f.Add("Café opens at 9 a.m. The “new” menu starts Monday! No. 5 is closed.")
	f.Add("Policy highlights:\n- 14 days of leave.\n- 3 sets of uniform.")
	f.Add("One\n\nTwo\nthree four. Five.\n1) first\n2. second")
	f.Add("invalid \xff utf-8. Then more.")
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Split(text), referenceSplit(text)
		if len(got) != len(want) {
			t.Fatalf("Split(%q) = %q, want %q", text, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Split(%q) sentence %d = %q, want %q", text, i, got[i], want[i])
			}
		}
	})
}
