package vecdb

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/textproc"
)

// Embedder turns text into a fixed-width vector. Implementations must
// be deterministic and safe for concurrent use once constructed.
type Embedder interface {
	// Dim is the width of produced vectors.
	Dim() int
	// Embed returns the vector for text. Implementations must return a
	// fresh slice the caller may retain.
	Embed(text string) ([]float32, error)
}

// HashedEmbedder is a training-free feature-hashing embedder: every
// stemmed content word and bigram is hashed into `dim` signed buckets
// (the classic "hashing trick"). It gives usable lexical-similarity
// vectors with zero fitting, which is what a production RAG stack
// falls back to before a learned embedder is available.
type HashedEmbedder struct {
	dim int
}

// NewHashedEmbedder creates a feature-hashing embedder of the given
// dimension.
func NewHashedEmbedder(dim int) (*HashedEmbedder, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vecdb: embedder dim must be positive, got %d", dim)
	}
	return &HashedEmbedder{dim: dim}, nil
}

// Dim implements Embedder.
func (e *HashedEmbedder) Dim() int { return e.dim }

// Embed implements Embedder. The output is L2-normalized.
//
// Every content word and every bigram "a b" of adjacent content words
// adds ±1 to bucket h mod dim, where h = rng.HashString(feature) and
// the sign is h's top bit. No feature string is built: the words come
// from textproc.EachContentWord, HashString is unrolled here as FNV-1a
// over a word's bytes plus the SplitMix64 finalizer, and a bigram's hash
// continues the previous word's FNV state over ' ' and the word, which
// is FNV-1a over "a b" by construction. Buckets hold small integer
// counts, exact in float32, so adding bigrams between unigrams gives
// the same bits as adding all unigrams first.
func (e *HashedEmbedder) Embed(text string) ([]float32, error) {
	v := make([]float32, e.dim)
	dim := uint64(e.dim)
	add := func(state uint64) {
		h := rng.SplitMix64(&state)
		if h>>63 == 1 {
			v[h%dim]--
		} else {
			v[h%dim]++
		}
	}
	var prev uint64 // FNV state after the previous word
	first := true
	textproc.EachContentWord(text, func(w []byte) {
		h := fnvWrite(fnvOffset, w)
		add(h)
		if !first {
			add(fnvWrite((prev^' ')*fnvPrime, w))
		}
		prev, first = h, false
	})
	NormalizeInPlace(v)
	return v, nil
}

// The 64-bit FNV-1a parameters of rng.HashString.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvWrite(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
