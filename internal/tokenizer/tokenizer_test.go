package tokenizer

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

var trainingCorpus = []string{
	"the working hours are 9 AM to 5 PM",
	"the store is open from Sunday to Saturday",
	"yes the answer is supported by the context",
	"no the answer is not supported by the context",
	"employees receive annual leave and sick leave",
	"yes yes yes no no no the the the",
}

func trained(t testing.TB, merges int) *Tokenizer {
	t.Helper()
	tok := New()
	if err := tok.Train(trainingCorpus, merges); err != nil {
		t.Fatal(err)
	}
	return tok
}

func TestByteFallbackRoundTrip(t *testing.T) {
	tok := New() // untrained: pure byte-level
	inputs := []string{
		"hello world",
		"The working hours are 9 AM to 5 PM.",
		"unicode: café – “quotes” 中文",
		"x",
	}
	for _, in := range inputs {
		ids := tok.Encode(in)
		out, err := tok.Decode(ids)
		if err != nil {
			t.Fatal(err)
		}
		// Whitespace canonicalization is part of the contract: words
		// survive exactly.
		if canon(out) != canon(in) {
			t.Errorf("round trip %q -> %q", in, out)
		}
	}
}

func canon(s string) string { return strings.Join(strings.Fields(s), " ") }

func TestTrainedRoundTrip(t *testing.T) {
	tok := trained(t, 200)
	for _, in := range trainingCorpus {
		ids := tok.Encode(in)
		out, err := tok.Decode(ids)
		if err != nil {
			t.Fatal(err)
		}
		if canon(out) != canon(in) {
			t.Errorf("round trip %q -> %q", in, out)
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	tok := trained(t, 100)
	f := func(s string) bool {
		out, err := tok.Decode(tok.Encode(s))
		if err != nil {
			return false
		}
		return canon(out) == canon(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceEncode is Encode as first written — one concatenation and
// one slice per word, merges by re-slicing — kept as the oracle for the
// single-allocation, merge-in-place Encode.
func referenceEncode(t *Tokenizer, text string) []int {
	var out []int
	for i, w := range strings.Fields(text) {
		if i > 0 || strings.HasPrefix(text, " ") {
			w = " " + w
		}
		ids := make([]int, len(w))
		for i := 0; i < len(w); i++ {
			ids[i] = byteID(w[i])
		}
		for len(ids) >= 2 {
			bestRank := int(^uint(0) >> 1)
			bestAt := -1
			for i := 0; i+1 < len(ids); i++ {
				if r, ok := t.ranks[[2]int{ids[i], ids[i+1]}]; ok && r < bestRank {
					bestRank, bestAt = r, i
				}
			}
			if bestAt < 0 {
				break
			}
			merged := t.merges[[2]int{ids[bestAt], ids[bestAt+1]}]
			ids = append(ids[:bestAt], append([]int{merged}, ids[bestAt+2:]...)...)
		}
		out = append(out, ids...)
	}
	return out
}

func TestEncodeMatchesReference(t *testing.T) {
	fixed := []string{
		"", " ", "\n", "x", " x", "\nx", "x ", "a  b\t\nc",
		"the answer is supported by the context",
		" yes the  working hours\nare 9 AM",
		"nbsp\u00a0and\u2003em\u0085nel spaces",
		"bad utf8 \xff\xfe mid\xc3 word \xe2\x80",
		"unicode: café – “quotes” 中文",
	}
	for _, tok := range []*Tokenizer{New(), trained(t, 30), trained(t, 200)} {
		for _, in := range fixed {
			if got, want := tok.Encode(in), referenceEncode(tok, in); !reflect.DeepEqual(got, want) {
				t.Errorf("Encode(%q) = %v, reference %v", in, got, want)
			}
		}
		f := func(s string) bool { return reflect.DeepEqual(tok.Encode(s), referenceEncode(tok, s)) }
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}

// FuzzEncodeTailMatchesEncode holds EncodeTail(text, n) to the last n
// IDs of Encode(text), for the byte-level tokenizer and two trained
// ones with merges, on any text and window.
func FuzzEncodeTailMatchesEncode(f *testing.F) {
	toks := []*Tokenizer{New(), trained(f, 30), trained(f, 200)}
	// Seeds: testdata/fuzz/FuzzEncodeTailMatchesEncode (a prompt longer
	// than the window, Unicode spaces U+0085, U+00A0 and U+3000, leading
	// and trailing space, text shorter than the window, invalid UTF-8).
	f.Fuzz(func(t *testing.T, text string, n uint8) {
		for _, tok := range toks {
			want := tok.Encode(text)
			if len(want) > int(n) {
				want = want[len(want)-int(n):]
			}
			got := tok.EncodeTail(text, int(n))
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("EncodeTail(%q, %d) = %v, last %d of Encode %v", text, n, got, n, want)
			}
		}
	})
}

func TestTrainingCompresses(t *testing.T) {
	plain := New()
	tok := trained(t, 200)
	text := strings.Join(trainingCorpus, " ")
	before := len(plain.Encode(text))
	after := len(tok.Encode(text))
	if after >= before {
		t.Errorf("BPE did not compress: %d -> %d tokens", before, after)
	}
}

func TestTrainTwiceFails(t *testing.T) {
	tok := trained(t, 10)
	if err := tok.Train(trainingCorpus, 10); err == nil {
		t.Error("second Train call accepted")
	}
}

func TestTrainNegativeBudget(t *testing.T) {
	tok := New()
	if err := tok.Train(trainingCorpus, -1); err == nil {
		t.Error("negative merge budget accepted")
	}
}

func TestVocabGrowth(t *testing.T) {
	tok := New()
	base := tok.VocabSize()
	if base != 4+256 {
		t.Fatalf("base vocab = %d, want 260", base)
	}
	if err := tok.Train(trainingCorpus, 50); err != nil {
		t.Fatal(err)
	}
	if tok.VocabSize() <= base {
		t.Error("training added no merges")
	}
	if tok.VocabSize() > base+50 {
		t.Errorf("vocab %d exceeds merge budget", tok.VocabSize())
	}
}

func TestSpecialTokens(t *testing.T) {
	tok := New()
	ids := tok.EncodeSpecial("hi")
	if ids[0] != BosID || ids[len(ids)-1] != EosID {
		t.Errorf("EncodeSpecial missing BOS/EOS: %v", ids)
	}
	out, err := tok.Decode(ids)
	if err != nil {
		t.Fatal(err)
	}
	if out != "hi" {
		t.Errorf("special tokens leaked into decode: %q", out)
	}
}

func TestTokenErrors(t *testing.T) {
	tok := New()
	if _, err := tok.Token(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := tok.Token(tok.VocabSize()); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := tok.Decode([]int{1 << 20}); err == nil {
		t.Error("Decode accepted bogus id")
	}
}

func TestIDLookup(t *testing.T) {
	tok := trained(t, 200)
	// " yes" (leading-space convention) should have become a token in
	// this corpus.
	id, ok := tok.ID(" yes")
	if !ok {
		t.Skip("corpus too small to merge ' yes'; acceptable")
	}
	s, err := tok.Token(id)
	if err != nil || s != " yes" {
		t.Errorf("Token(ID(' yes')) = %q, %v", s, err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tok := trained(t, 120)
	var buf bytes.Buffer
	if err := tok.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != tok.VocabSize() {
		t.Fatalf("vocab size %d != %d", loaded.VocabSize(), tok.VocabSize())
	}
	for _, in := range append(trainingCorpus, "unseen words entirely") {
		a, b := tok.Encode(in), loaded.Encode(in)
		if len(a) != len(b) {
			t.Fatalf("encoding diverged for %q: %v vs %v", in, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("encoding diverged for %q at %d", in, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"vocab":["a"],"merges":[]}`)); err == nil {
		t.Error("tiny vocab accepted")
	}
	if _, err := Load(strings.NewReader(`{"vocab":null,"merges":[[0,1,999999]]}`)); err == nil {
		t.Error("out-of-range merge accepted")
	}
}

func TestDeterministicTraining(t *testing.T) {
	a, b := New(), New()
	if err := a.Train(trainingCorpus, 80); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(trainingCorpus, 80); err != nil {
		t.Fatal(err)
	}
	if a.VocabSize() != b.VocabSize() {
		t.Fatal("training nondeterministic: vocab sizes differ")
	}
	for i := 0; i < a.VocabSize(); i++ {
		sa, _ := a.Token(i)
		sb, _ := b.Token(i)
		if sa != sb {
			t.Fatalf("training nondeterministic at id %d: %q vs %q", i, sa, sb)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	tok := trained(t, 40)
	path := t.TempDir() + "/tok.json"
	if err := tok.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.VocabSize() != tok.VocabSize() {
		t.Error("file round trip changed vocab")
	}
	if _, err := LoadFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}
