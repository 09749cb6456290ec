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
func (e *HashedEmbedder) Embed(text string) ([]float32, error) {
	v := make([]float32, e.dim)
	words := textproc.ContentWords(text)
	feats := append(append([]string(nil), words...), textproc.Bigrams(words)...)
	for _, f := range feats {
		h := rng.HashString(f)
		idx := int(h % uint64(e.dim))
		sign := float32(1)
		if (h>>63)&1 == 1 {
			sign = -1
		}
		v[idx] += sign
	}
	NormalizeInPlace(v)
	return v, nil
}
