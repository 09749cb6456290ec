package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/vecdb"
)

// The oracle is an independent brute-force implementation of what
// /search is specified to return: cosine similarity between the
// embedded query and every stored passage that passes the filter,
// best first, ties by ascending ID. It shares only the embedder with
// the servers (the embedder defines the vector space; it is not what
// is being checked) and scores through an inverted file over the
// sparse hashed vectors, accumulating in ascending dimension order
// exactly like a sequential dense float64 dot product — so on an
// exact index its scores agree with the server's to the last bit, and
// a reordered or vectorised kernel stays within scoreEps.

// scoreEps is how far a server score may sit from the oracle's, and
// how close two oracle scores must be to count as a tie whose order
// the check does not prescribe.
const scoreEps = 1e-9

const embedDim = 256 // ragserver's and shardnode's default -dim

type posting struct {
	doc int32
	val float32
}

type oracle struct {
	docs     []doc
	byText   map[string]int
	embed    vecdb.Embedder
	postings [embedDim][]posting
	norms    []float64
}

func newOracle(docs []doc) (*oracle, error) {
	e, err := vecdb.NewHashedEmbedder(embedDim)
	if err != nil {
		return nil, err
	}
	o := &oracle{docs: docs, byText: make(map[string]int, len(docs)), embed: e, norms: make([]float64, len(docs))}
	for i, d := range docs {
		if _, dup := o.byText[d.Text]; dup {
			return nil, fmt.Errorf("oracle: duplicate corpus text %q", d.Text)
		}
		o.byText[d.Text] = i
		v, err := e.Embed(d.Text)
		if err != nil {
			return nil, err
		}
		o.norms[i] = norm64(v)
		for dim, x := range v {
			if x != 0 {
				o.postings[dim] = append(o.postings[dim], posting{doc: int32(i), val: x})
			}
		}
	}
	return o, nil
}

func norm64(v []float32) float64 {
	var acc float64
	for _, x := range v {
		acc += float64(x) * float64(x)
	}
	return math.Sqrt(acc)
}

// scores fills out[i] with the cosine similarity of query and doc i.
func (o *oracle) scores(query string, out []float64) error {
	qv, err := o.embed.Embed(query)
	if err != nil {
		return err
	}
	for i := range out {
		out[i] = 0
	}
	for dim, x := range qv {
		if x == 0 {
			continue
		}
		qx := float64(x)
		for _, p := range o.postings[dim] {
			out[p.doc] += qx * float64(p.val)
		}
	}
	nq := norm64(qv)
	for i := range out {
		if n := o.norms[i]; n == 0 || nq == 0 {
			out[i] = 0
		} else {
			out[i] /= nq * n
		}
	}
	return nil
}

// matches reports whether doc i passes q's filter.
func (o *oracle) matches(i int, q searchQuery) bool {
	d := o.docs[i]
	if q.Collection != "" && d.Collection != q.Collection {
		return false
	}
	return q.Tag == "" || d.Tag == q.Tag
}

// hit is one entry of a /search response.
type hit struct {
	ID         int64   `json:"id"`
	Score      float64 `json:"score"`
	Text       string  `json:"text"`
	Collection string  `json:"collection"`
}

func parseHits(body []byte) ([]hit, error) {
	var r struct {
		Hits []hit `json:"hits"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("parse /search response: %w", err)
	}
	return r.Hits, nil
}

// checkSearch verifies that hits is a correct answer to q over the
// oracle's corpus. scratch must have len(o.docs).
func (o *oracle) checkSearch(q searchQuery, hits []hit, scratch []float64) error {
	if err := o.scores(q.Text, scratch); err != nil {
		return err
	}
	// The k best matching scores, best first.
	var best []float64
	matching := 0
	for i, s := range scratch {
		if !o.matches(i, q) {
			continue
		}
		matching++
		if len(best) < searchK {
			best = append(best, s)
			sort.Sort(sort.Reverse(sort.Float64Slice(best)))
		} else if s > best[searchK-1] {
			best[searchK-1] = s
			sort.Sort(sort.Reverse(sort.Float64Slice(best)))
		}
	}
	want := searchK
	if matching < want {
		want = matching
	}
	if len(hits) != want {
		return fmt.Errorf("got %d hits, want %d", len(hits), want)
	}
	seen := map[int]bool{}
	for rank, h := range hits {
		i, ok := o.byText[h.Text]
		if !ok {
			return fmt.Errorf("rank %d: text %q is not in the corpus", rank, h.Text)
		}
		if seen[i] {
			return fmt.Errorf("rank %d: document returned twice", rank)
		}
		seen[i] = true
		if !o.matches(i, q) {
			return fmt.Errorf("rank %d: document does not pass the filter", rank)
		}
		if math.Abs(h.Score-scratch[i]) > scoreEps {
			return fmt.Errorf("rank %d: score %.12f, oracle %.12f", rank, h.Score, scratch[i])
		}
		// Rank by rank the oracle's score must be matched: that pins the
		// order and the membership up to ties within scoreEps.
		if math.Abs(scratch[i]-best[rank]) > scoreEps {
			return fmt.Errorf("rank %d: oracle score of returned doc %.12f, of the true rank %.12f", rank, scratch[i], best[rank])
		}
		if rank > 0 && h.Score == hits[rank-1].Score && h.ID < hits[rank-1].ID {
			return fmt.Errorf("rank %d: equal scores not in ascending ID order", rank)
		}
	}
	return nil
}

// tieFree reports whether q's answer is unique: the searchK+1 best
// matching scores are pairwise further apart than scoreEps, so neither
// the order of the hits nor the cut after the last one depends on how
// an index breaks ties. Only such a query can serve as the recovery
// probe, whose answer must repeat byte for byte. scratch must have
// len(o.docs).
func (o *oracle) tieFree(q searchQuery, scratch []float64) (bool, error) {
	if err := o.scores(q.Text, scratch); err != nil {
		return false, err
	}
	var match []float64
	for i, s := range scratch {
		if o.matches(i, q) {
			match = append(match, s)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(match)))
	if len(match) > searchK+1 {
		match = match[:searchK+1]
	}
	for i := 1; i < len(match); i++ {
		if match[i-1]-match[i] <= scoreEps {
			return false, nil
		}
	}
	return true, nil
}

// probeQuery draws queries from r until one has a unique answer. On a
// small corpus most queries tie somewhere in their top searchK+1 (many
// documents share exactly one word with the query), hence the patience.
func (o *oracle) probeQuery(r *rand.Rand, collection string) (searchQuery, error) {
	const tries = 5000
	scratch := make([]float64, len(o.docs))
	for i := 0; i < tries; i++ {
		q := genQueries(r, o.docs, 1, collection)[0]
		ok, err := o.tieFree(q, scratch)
		if err != nil {
			return searchQuery{}, err
		}
		if ok {
			return q, nil
		}
	}
	return searchQuery{}, fmt.Errorf("oracle: none of %d queries has a tie-free answer to probe recovery with", tries)
}
