package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Everything a run sends is generated here from the seed alone: the
// corpus, the request bodies and the send schedule. Two runs with the
// same seed are byte-identical; the servers only ever see these bytes
// over HTTP.

// doc is one corpus document: a single sentence (so the server's
// chunker stores it as exactly one passage with the same text) plus a
// tag the filtered queries select on.
type doc struct {
	Text       string
	Tag        string
	Collection string // "" = default
}

const (
	vocabSize = 4096
	numTags   = 10 // a one-tag filter keeps 10 % of the corpus
	docWords  = 12 // words per document of a searched corpus
	queryLen  = 8
	// queryFromDoc words of each query come from one target document,
	// so every query has a clear best hit and a tail of partial matches.
	queryFromDoc = 5
)

// vocabulary is fixed (not seeded): pronounceable three-syllable
// tokens ending in a consonant, so the stemmer leaves them alone and
// none is a stopword. Which words a document uses is what the seed
// decides.
var vocabulary = func() []string {
	const cons, vows = "bdfgklmnprtvz", "aeiou"
	var syl []string
	for _, c := range cons {
		for _, v := range vows {
			syl = append(syl, string(c)+string(v))
		}
	}
	n := len(syl)
	words := make([]string, vocabSize)
	for i := range words {
		// 7919 is coprime with n³, so j walks distinct triples.
		j := (i*7919 + 13) % (n * n * n)
		words[i] = syl[j%n] + syl[(j/n)%n] + syl[j/(n*n)] + "k"
	}
	return words
}()

// wordSource draws vocabulary words with a Zipf skew: a few words are
// in many documents, most are rare — the posting-length mix a lexical
// embedder sees on real text.
type wordSource struct {
	z *rand.Zipf
}

func newWordSource(r *rand.Rand) wordSource {
	return wordSource{z: rand.NewZipf(r, 1.1, 4, vocabSize-1)}
}

func (w wordSource) word() string { return vocabulary[w.z.Uint64()] }

// genCorpus makes n unique single-sentence documents of the given
// length. prefix keeps the serial tokens of two corpora (base and live)
// apart.
func genCorpus(r *rand.Rand, n, words int, prefix, collection string) []doc {
	ws := newWordSource(r)
	docs := make([]doc, n)
	var b strings.Builder
	for i := range docs {
		b.Reset()
		for j := 0; j < words; j++ {
			b.WriteString(ws.word())
			b.WriteByte(' ')
		}
		// The serial token makes every text unique, so a hit's text
		// identifies its document whatever ID the server assigned.
		fmt.Fprintf(&b, "%s%dq.", prefix, i)
		docs[i] = doc{Text: b.String(), Tag: fmt.Sprintf("t%d", r.Intn(numTags)), Collection: collection}
	}
	return docs
}

// searchQuery is one generated /search request.
type searchQuery struct {
	Text       string
	Tag        string // "" = unfiltered
	Collection string
}

// genQueries makes n unique queries over docs (of docWords words);
// every fourth one is filtered on one tag.
func genQueries(r *rand.Rand, docs []doc, n int, collection string) []searchQuery {
	ws := newWordSource(r)
	seen := map[string]bool{}
	out := make([]searchQuery, 0, n)
	for len(out) < n {
		words := strings.Fields(docs[r.Intn(len(docs))].Text)
		words = words[:docWords] // drop the serial token
		start := r.Intn(docWords - queryFromDoc + 1)
		q := append([]string(nil), words[start:start+queryFromDoc]...)
		for len(q) < queryLen {
			q = append(q, ws.word())
		}
		text := strings.Join(q, " ")
		if seen[text] {
			continue
		}
		seen[text] = true
		sq := searchQuery{Text: text, Collection: collection}
		if len(out)%4 == 3 {
			sq.Tag = fmt.Sprintf("t%d", r.Intn(numTags))
		}
		out = append(out, sq)
	}
	return out
}

const searchK = 5

// body renders the /search request body.
func (q searchQuery) body() []byte {
	m := map[string]interface{}{"query": q.Text, "k": searchK}
	if q.Collection != "" {
		m["collection"] = q.Collection
	}
	if q.Tag != "" {
		m["filter"] = map[string]string{"tag": q.Tag}
	}
	return mustJSON(m)
}

// ndjson renders docs as an /ingest/stream body, one object per line.
func ndjson(docs []doc) []byte {
	var b bytes.Buffer
	for _, d := range docs {
		b.Write(mustJSON(map[string]interface{}{"text": d.Text, "meta": map[string]string{"tag": d.Tag}}))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// mustJSON marshals values built from strings, numbers and maps, which
// cannot fail; a failure is a bug in the generator.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// schedule returns n send times at a fixed rate, the i-th at i/rate
// after the window opens. The arrival process is deliberately
// deterministic: at these sample counts a Poisson schedule's own
// burst pattern would move p90 from seed to seed more than any code
// change the benchmark is meant to detect.
func schedule(n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}
