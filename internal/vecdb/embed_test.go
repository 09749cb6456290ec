package vecdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/textproc"
)

const embedGoldenFile = "testdata/embed_golden.json"

// scanVocabulary is the served search corpora's word list: 4096
// pronounceable three-syllable tokens ending in "k", walked through
// the 65³ syllable triples with stride 7919.
var scanVocabulary = func() []string {
	const cons, vows = "bdfgklmnprtvz", "aeiou"
	var syl []string
	for _, c := range cons {
		for _, v := range vows {
			syl = append(syl, string(c)+string(v))
		}
	}
	n := len(syl)
	words := make([]string, 4096)
	for i := range words {
		j := (i*7919 + 13) % (n * n * n)
		words[i] = syl[j%n] + syl[(j/n)%n] + syl[j/(n*n)] + "k"
	}
	return words
}()

// scanPassages makes n passages shaped like a served search corpus:
// `words` Zipf-drawn vocabulary words and a unique serial token.
func scanPassages(n, words int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.1, 4, uint64(len(scanVocabulary)-1))
	out := make([]string, n)
	var b strings.Builder
	for i := range out {
		b.Reset()
		for j := 0; j < words; j++ {
			b.WriteString(scanVocabulary[z.Uint64()])
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "p%dq.", i)
		out[i] = b.String()
	}
	return out
}

// embedEdgeCases are texts that stress the tokenizer's boundary rules,
// its Unicode folding and the stemmer.
var embedEdgeCases = []string{
	"",
	"the and of to a an is was",
	" \t\r\n ",
	"It’s the employee’s “right” – not a privilege — to rest…",
	"don't don’t Don't DON'T",
	"part-time Part–time full—time x- -x x-y 9-5 a'b 'quoted' --dash-- a-'b",
	"9:30 at 9:30 AM 12:00: :15 a:b 1:2:3",
	"2.5 days 1.2.3 .5 5. a.b $1,000.50",
	"90% 5%% % 100 % x%",
	"...leading and trailing punctuation!!! (parenthesised) [bracketed] {braced}",
	"tabs\tand\r\nCRLF\r\nline\vbreaks\fhere  double  spaces",
	"UPPERCASE WORDS SHOUTED LOUDLY; MiXeD CaSe EmPlOyEeS",
	"no\u00a0break\u202fspaces\u2007here and\u0085next",
	"Café naïve résumé façade Ångström",
	"Straße ΣΊΣΥΦΟΣ İstanbul \u212aelvin",
	"日本語のテキスト mixed with English words",
	"\xff\xfe invalid utf8 \xc3 bytes",
	strings.Repeat("supercalifragilistic", 5) + " tail",
	strings.Repeat("a", 64) + " " + strings.Repeat("b", 65) + "ing " + strings.Repeat("relational", 7),
	"relational conditional rational digitizer operator feudalism hopefulness formaliti",
	"triplicate formative formalize electrical hopeful goodness revival allowance",
	"inference airliner adjustable defensible irritant replacement adjustment dependent",
	"adoption communism activate angulariti homologous effective bowdlerize probate rate cease",
	"controll roll caresses ponies ties hopping falling hissing filing happy sky agreed feed",
	"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	"Full-time employees are entitled to 14 days of paid annual leave per year.",
	"3rd 2nd 1st 10am 5pm 500k 9am-5pm",
	"y yy yyy ay oy you're e-mail re-enter co-op",
	"The THE s t ie sss ss s's",
}

type embedCase struct {
	name, text string
}

// embedGoldenCases lists the golden's texts in file order: every
// distinct context, question and response of a 2000-item dataset, 2000
// search-corpus passages, and the edge cases.
func embedGoldenCases(t testing.TB) []embedCase {
	set, err := dataset.Generate(20250612, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var cases []embedCase
	seen := map[string]bool{}
	add := func(name, text string) {
		if !seen[text] {
			seen[text] = true
			cases = append(cases, embedCase{name, text})
		}
	}
	for _, it := range set.Items {
		add(fmt.Sprintf("dataset/%d/context", it.ID), it.Context)
		add(fmt.Sprintf("dataset/%d/question", it.ID), it.Question)
		for k, r := range it.Responses {
			add(fmt.Sprintf("dataset/%d/response%d", it.ID, k), r.Text)
		}
	}
	for i, s := range scanPassages(2000, 12, 1) {
		add(fmt.Sprintf("scan/%d", i), s)
	}
	for i, s := range embedEdgeCases {
		add(fmt.Sprintf("edge/%d", i), s)
	}
	return cases
}

// encodeBits renders v's nonzero coordinates by bit pattern: groups
// "<float32 bits>@<index>,<index>..." joined by ';', in order of each
// value's first coordinate. A zero vector renders as "".
func encodeBits(v []float32) string {
	var order []uint32
	idx := map[uint32][]string{}
	for i, x := range v {
		b := math.Float32bits(x)
		if b == 0 {
			continue
		}
		if _, ok := idx[b]; !ok {
			order = append(order, b)
		}
		idx[b] = append(idx[b], fmt.Sprintf("%x", i))
	}
	groups := make([]string, len(order))
	for i, b := range order {
		groups[i] = fmt.Sprintf("%08x@%s", b, strings.Join(idx[b], ","))
	}
	return strings.Join(groups, ";")
}

type embedGoldenEntry struct {
	Case string `json:"case"`
	Bits string `json:"bits"`
}

// TestEmbedGolden pins HashedEmbedder to the bit. Recovery re-embeds
// journaled texts and a cluster router embeds queries that shardnodes
// embedded documents for, so any drift in a vector's bits is a
// compatibility break, not a rounding detail. `go test ./internal/vecdb
// -run TestEmbedGolden -update` rewrites the file.
func TestEmbedGolden(t *testing.T) {
	e, err := NewHashedEmbedder(256)
	if err != nil {
		t.Fatal(err)
	}
	cases := embedGoldenCases(t)
	got := make([]embedGoldenEntry, len(cases))
	for i, c := range cases {
		v, err := e.Embed(c.text)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = embedGoldenEntry{c.name, encodeBits(v)}
	}
	if *update {
		var b bytes.Buffer
		b.WriteString("[\n")
		for i, g := range got {
			line, err := json.Marshal(g)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			if i+1 < len(got) {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]\n")
		if err := os.WriteFile(embedGoldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(embedGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []embedGoldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d cases, the test %d", embedGoldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("case %s (%q):\n got %s\nwant %s: %s", cases[i].name, cases[i].text, got[i].Bits, want[i].Case, want[i].Bits)
		}
	}
}

// referenceEmbed is the embedder spelled with the tokenizer's string
// API: every content word, then every bigram, hashed with
// rng.HashString into a signed bucket.
func referenceEmbed(text string, dim int) []float32 {
	v := make([]float32, dim)
	words := textproc.ContentWords(text)
	feats := append(append([]string(nil), words...), textproc.Bigrams(words)...)
	for _, f := range feats {
		h := rng.HashString(f)
		sign := float32(1)
		if (h>>63)&1 == 1 {
			sign = -1
		}
		v[int(h%uint64(dim))] += sign
	}
	NormalizeInPlace(v)
	return v
}

// FuzzHashedEmbedMatchesReference holds Embed to referenceEmbed bit for
// bit on any text. The textproc fuzzers hold ContentWords to the
// original tokenizer, which closes the chain.
func FuzzHashedEmbedMatchesReference(f *testing.F) {
	for _, s := range embedEdgeCases {
		f.Add(s)
	}
	f.Add(scanPassages(1, 12, 1)[0])
	f.Fuzz(func(t *testing.T, text string) {
		for _, dim := range []int{1, 7, 256} {
			e, err := NewHashedEmbedder(dim)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Embed(text)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := encodeBits(got), encodeBits(referenceEmbed(text, dim)); g != w {
				t.Fatalf("dim %d, %q:\n got %s\nwant %s", dim, text, g, w)
			}
		}
	})
}
