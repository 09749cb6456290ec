// Package tokenizer implements a byte-pair-encoding (BPE) tokenizer of
// the kind used by Qwen2 and MiniCPM. It supports training merge rules
// from a corpus, encoding text to token IDs, decoding back, and JSON
// persistence. The SLM inference engine consumes it to turn prompts
// into ID sequences and to locate the "yes"/"no" answer tokens whose
// first-token probability the framework reads out (paper Eq. 2).
package tokenizer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Special token IDs occupy the bottom of the ID space.
const (
	PadID = iota // padding
	UnkID        // unknown byte sequence (should not occur: byte fallback)
	BosID        // beginning of sequence
	EosID        // end of sequence
	numSpecial
)

// Special token surface forms.
const (
	PadToken = "<pad>"
	UnkToken = "<unk>"
	BosToken = "<bos>"
	EosToken = "<eos>"
)

// Tokenizer holds a trained BPE vocabulary. The first numSpecial IDs
// are special tokens, the next 256 are raw bytes (byte-level fallback
// guarantees any input round-trips), and the remainder are learned
// merges. Tokenizer is immutable after training/loading and therefore
// safe for concurrent use.
type Tokenizer struct {
	// merges maps a token-ID pair to the merged token's ID, in rank
	// order of training.
	merges map[[2]int]int
	// rank of each merge pair; lower rank merges first (BPE priority).
	ranks map[[2]int]int
	// vocab maps ID to surface string.
	vocab []string
	// lookup maps surface string to ID.
	lookup map[string]int
}

// byteID returns the token ID for raw byte b.
func byteID(b byte) int { return numSpecial + int(b) }

// New returns an untrained tokenizer that falls back to byte-level
// encoding (every byte is its own token).
func New() *Tokenizer {
	t := &Tokenizer{
		merges: map[[2]int]int{},
		ranks:  map[[2]int]int{},
		lookup: map[string]int{},
	}
	t.vocab = make([]string, numSpecial, numSpecial+256)
	t.vocab[PadID] = PadToken
	t.vocab[UnkID] = UnkToken
	t.vocab[BosID] = BosToken
	t.vocab[EosID] = EosToken
	for i := 0; i < 256; i++ {
		t.vocab = append(t.vocab, string([]byte{byte(i)}))
	}
	for id, s := range t.vocab {
		t.lookup[s] = id
	}
	return t
}

// VocabSize returns the number of distinct token IDs.
func (t *Tokenizer) VocabSize() int { return len(t.vocab) }

// Token returns the surface form of id, or an error for out-of-range
// IDs.
func (t *Tokenizer) Token(id int) (string, error) {
	if id < 0 || id >= len(t.vocab) {
		return "", fmt.Errorf("tokenizer: token id %d out of range [0,%d)", id, len(t.vocab))
	}
	return t.vocab[id], nil
}

// ID returns the token ID whose surface form is exactly s, and whether
// it exists. Used by the SLM to locate the "yes" answer token.
func (t *Tokenizer) ID(s string) (int, bool) {
	id, ok := t.lookup[s]
	return id, ok
}

// Train learns up to maxMerges BPE merge rules from the corpus. It may
// be called once on a fresh tokenizer; retraining is an error.
// Training operates on whitespace-delimited words with a leading-space
// marker, the GPT-2/Qwen convention, so "yes" at word start and
// mid-word "yes" become different tokens.
func (t *Tokenizer) Train(corpus []string, maxMerges int) error {
	if len(t.merges) != 0 {
		return errors.New("tokenizer: already trained")
	}
	if maxMerges < 0 {
		return fmt.Errorf("tokenizer: negative merge budget %d", maxMerges)
	}
	// Word frequency table. Each word is a byte-ID sequence.
	freq := map[string]int{}
	for _, doc := range corpus {
		for i, w := range strings.Fields(doc) {
			if i > 0 || strings.HasPrefix(doc, " ") {
				w = " " + w
			}
			freq[w]++
		}
	}
	type word struct {
		ids []int
		n   int
	}
	words := make([]word, 0, len(freq))
	keys := make([]string, 0, len(freq))
	for w := range freq {
		keys = append(keys, w)
	}
	sort.Strings(keys) // deterministic training independent of map order
	for _, w := range keys {
		ids := make([]int, len(w))
		for i := 0; i < len(w); i++ {
			ids[i] = byteID(w[i])
		}
		words = append(words, word{ids: ids, n: freq[w]})
	}
	for merge := 0; merge < maxMerges; merge++ {
		// Count adjacent pairs.
		pairs := map[[2]int]int{}
		for _, w := range words {
			for i := 0; i+1 < len(w.ids); i++ {
				pairs[[2]int{w.ids[i], w.ids[i+1]}] += w.n
			}
		}
		if len(pairs) == 0 {
			break
		}
		// Most frequent pair; deterministic tie-break on ID order.
		var best [2]int
		bestN := -1
		for p, n := range pairs {
			if n > bestN || (n == bestN && (p[0] < best[0] || (p[0] == best[0] && p[1] < best[1]))) {
				best, bestN = p, n
			}
		}
		if bestN < 2 {
			break // nothing worth merging
		}
		newID := len(t.vocab)
		surface := t.vocab[best[0]] + t.vocab[best[1]]
		t.vocab = append(t.vocab, surface)
		t.lookup[surface] = newID
		t.merges[best] = newID
		t.ranks[best] = merge
		// Apply merge to all words.
		for wi := range words {
			ids := words[wi].ids
			out := ids[:0]
			for i := 0; i < len(ids); i++ {
				if i+1 < len(ids) && ids[i] == best[0] && ids[i+1] == best[1] {
					out = append(out, newID)
					i++
				} else {
					out = append(out, ids[i])
				}
			}
			words[wi].ids = out
		}
	}
	return nil
}

// Encode converts text to token IDs (no BOS/EOS added; see EncodeSpecial).
// The result is allocated once: a token covers at least one byte of a
// word or the single space standing for the whitespace before it, so
// len(text) bounds the count.
func (t *Tokenizer) Encode(text string) []int {
	words := strings.Fields(text)
	if len(words) == 0 {
		return nil
	}
	out := make([]int, 0, len(text))
	for i, w := range words {
		out = t.appendWord(out, w, i > 0 || strings.HasPrefix(text, " "))
	}
	return out
}

// EncodeTail returns the last n IDs of Encode(text), all of them when
// there are fewer. Encoding is word-local — a word's tokens depend only
// on the word and on whether a space token leads it, which every word
// but a first one not preceded by ' ' gets — so EncodeTail encodes the
// words from the last one back, and stops at the first that reaches n
// IDs, however much text precedes it.
func (t *Tokenizer) EncodeTail(text string, n int) []int {
	if n <= 0 {
		return nil
	}
	// The start of the first word, where strings.Fields would find it.
	first := len(text) - len(strings.TrimLeftFunc(text, unicode.IsSpace))
	// rev holds the last n tokens back to front: the words' tokens, last
	// word first, each reversed. A token covers at least a byte.
	rev := make([]int, 0, min(n, len(text)))
	var word []int
	end := len(text)
	for len(rev) < n {
		for end > first {
			r, size := utf8.DecodeLastRuneInString(text[:end])
			if !unicode.IsSpace(r) {
				break
			}
			end -= size
		}
		if end <= first {
			break
		}
		start := end
		for start > first {
			r, size := utf8.DecodeLastRuneInString(text[:start])
			if unicode.IsSpace(r) {
				break
			}
			start -= size
		}
		word = t.appendWord(word[:0], text[start:end], start > first || strings.HasPrefix(text, " "))
		for i := len(word) - 1; i >= 0 && len(rev) < n; i-- {
			rev = append(rev, word[i])
		}
		end = start
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// appendWord appends the tokens of the whitespace-free word w to out,
// led by the space token when spaced.
func (t *Tokenizer) appendWord(out []int, w string, spaced bool) []int {
	start := len(out)
	if spaced {
		out = append(out, byteID(' '))
	}
	for j := 0; j < len(w); j++ {
		out = append(out, byteID(w[j]))
	}
	return out[:start+t.mergeWord(out[start:])]
}

// EncodeSpecial encodes text wrapped in BOS/EOS markers.
func (t *Tokenizer) EncodeSpecial(text string) []int {
	ids := make([]int, 0, len(text)/3+2)
	ids = append(ids, BosID)
	ids = append(ids, t.Encode(text)...)
	return append(ids, EosID)
}

// mergeWord applies the learned merges to one word's byte tokens in
// place, lowest rank first, and returns how many tokens remain.
func (t *Tokenizer) mergeWord(ids []int) int {
	for len(ids) >= 2 && len(t.ranks) > 0 {
		// Find lowest-rank applicable merge.
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
		ids[bestAt] = t.merges[[2]int{ids[bestAt], ids[bestAt+1]}]
		ids = append(ids[:bestAt+1], ids[bestAt+2:]...)
	}
	return len(ids)
}

// Decode converts token IDs back to text. Special tokens are skipped.
// Unknown IDs yield an error.
func (t *Tokenizer) Decode(ids []int) (string, error) {
	var b strings.Builder
	for _, id := range ids {
		if id >= 0 && id < numSpecial {
			continue
		}
		s, err := t.Token(id)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return strings.TrimPrefix(b.String(), " "), nil
}

// persisted is the JSON wire form of a tokenizer.
type persisted struct {
	Vocab  []string `json:"vocab"`
	Merges [][3]int `json:"merges"` // [a, b, merged] in rank order
}

// Save writes the tokenizer as JSON.
func (t *Tokenizer) Save(w io.Writer) error {
	p := persisted{Vocab: t.vocab}
	type ranked struct {
		pair [2]int
		rank int
		id   int
	}
	rs := make([]ranked, 0, len(t.merges))
	for pair, id := range t.merges {
		rs = append(rs, ranked{pair: pair, rank: t.ranks[pair], id: id})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].rank < rs[j].rank })
	for _, r := range rs {
		p.Merges = append(p.Merges, [3]int{r.pair[0], r.pair[1], r.id})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(p)
}

// SaveFile writes the tokenizer to path, creating or truncating it.
func (t *Tokenizer) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tokenizer: save: %w", err)
	}
	defer f.Close()
	if err := t.Save(f); err != nil {
		return fmt.Errorf("tokenizer: save %s: %w", path, err)
	}
	return f.Close()
}

// Load reads a tokenizer previously written by Save.
func Load(r io.Reader) (*Tokenizer, error) {
	var p persisted
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("tokenizer: load: %w", err)
	}
	if len(p.Vocab) < numSpecial+256 {
		return nil, fmt.Errorf("tokenizer: vocab too small (%d)", len(p.Vocab))
	}
	t := &Tokenizer{
		merges: map[[2]int]int{},
		ranks:  map[[2]int]int{},
		vocab:  p.Vocab,
		lookup: map[string]int{},
	}
	for id, s := range p.Vocab {
		t.lookup[s] = id
	}
	for rank, m := range p.Merges {
		pair := [2]int{m[0], m[1]}
		if m[2] < 0 || m[2] >= len(p.Vocab) {
			return nil, fmt.Errorf("tokenizer: merge target %d out of range", m[2])
		}
		t.merges[pair] = m[2]
		t.ranks[pair] = rank
	}
	return t, nil
}

// LoadFile reads a tokenizer from path.
func LoadFile(path string) (*Tokenizer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tokenizer: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}
