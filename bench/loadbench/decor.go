package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rag"
	"repro/internal/serve"
	"repro/internal/slm"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Timing decorators, one per injection point the program already has.
// Each forwards to the real implementation and records one span per
// call; none changes what the call returns.

// tracedEmbedder wraps the embedder handed to serve.OpenSharded.
type tracedEmbedder struct {
	vecdb.Embedder
	tr *tracer
}

func (e tracedEmbedder) Embed(text string) ([]float32, error) {
	s := e.tr.begin(spanEmbed)
	defer e.tr.end(s)
	return e.Embedder.Embed(text)
}

// indexCounts are the work counts taken at the index boundary while
// tracing is on.
type indexCounts struct {
	searches atomic.Int64
	rows     atomic.Int64 // vectors the searched indexes held, summed over searches
	adds     atomic.Int64
}

// tracedIndex wraps each shard's index (the mkIndex factory of
// serve.OpenSharded). A flat index scores every stored row per search,
// so Len at search time is the rows scanned.
type tracedIndex struct {
	vecdb.Index
	tr *tracer
	n  *indexCounts
}

func (x tracedIndex) Search(query []float32, k int) ([]vecdb.Result, error) {
	s := x.tr.begin(spanIndexSearch)
	defer x.tr.end(s)
	if s >= 0 {
		x.n.searches.Add(1)
		x.n.rows.Add(int64(x.Index.Len()))
	}
	return x.Index.Search(query, k)
}

func (x tracedIndex) Add(id int64, vec []float32) error {
	s := x.tr.begin(spanIndexAdd)
	defer x.tr.end(s)
	if s >= 0 {
		x.n.adds.Add(1)
	}
	return x.Index.Add(id, vec)
}

// ctxStore is serve.Store plus the context-aware surfaces both of its
// implementations (ShardedDB, RemoteStore) provide and serve.Server
// prefers; the decorator must expose them or the server would take a
// different code path than the real binary.
type ctxStore interface {
	serve.Store
	SearchContext(ctx context.Context, query string, k int) ([]vecdb.Hit, error)
	SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error)
	AddBulkContext(ctx context.Context, texts []string) ([]int64, error)
	AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error)
	SetTelemetry(reg *telemetry.Registry)
}

// tracedStore is the serve.Config.Store decorator.
type tracedStore struct {
	ctxStore
	tr *tracer
}

func (s tracedStore) SearchContext(ctx context.Context, query string, k int) ([]vecdb.Hit, error) {
	sp := s.tr.begin(spanStoreSearch)
	defer s.tr.end(sp)
	return s.ctxStore.SearchContext(ctx, query, k)
}

func (s tracedStore) SearchFilteredContext(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	sp := s.tr.begin(spanStoreSearch)
	defer s.tr.end(sp)
	return s.ctxStore.SearchFilteredContext(ctx, query, k, f)
}

func (s tracedStore) AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error) {
	sp := s.tr.begin(spanStoreAdd)
	defer s.tr.end(sp)
	return s.ctxStore.AddBulkDocsContext(ctx, docs)
}

func (s tracedStore) AddBulkContext(ctx context.Context, texts []string) ([]int64, error) {
	sp := s.tr.begin(spanStoreAdd)
	defer s.tr.end(sp)
	return s.ctxStore.AddBulkContext(ctx, texts)
}

// tracedModel wraps each verifier of core.Config.Models.
type tracedModel struct {
	slm.Model
	tr    *tracer
	calls *atomic.Int64
}

func (m tracedModel) YesProbability(ctx context.Context, req slm.VerifyRequest) (float64, error) {
	s := m.tr.begin(spanModel)
	defer m.tr.end(s)
	if s >= 0 {
		m.calls.Add(1)
	}
	return m.Model.YesProbability(ctx, req)
}

// tracedSplit wraps core.Config.Split.
func tracedSplit(tr *tracer) core.Splitter {
	return func(text string) []string {
		s := tr.begin(spanSplit)
		defer tr.end(s)
		return core.SentenceSplitter(text)
	}
}

// tracedGenerator wraps serve.Config.Generator.
type tracedGenerator struct {
	rag.Generator
	tr *tracer
}

func (g tracedGenerator) Generate(question, contextText string) (string, error) {
	s := g.tr.begin(spanGenerate)
	defer g.tr.end(s)
	return g.Generator.Generate(question, contextText)
}

// tracedBackend wraps each cluster.Backend handed to cluster.NewRouter.
type tracedBackend struct {
	cluster.Backend
	tr *tracer
}

func (b tracedBackend) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	s := b.tr.begin(spanRPC)
	defer b.tr.end(s)
	return b.Backend.SearchVector(ctx, vec, k, f)
}

// countingTransport is the http.RoundTripper under
// cluster.NewHTTPBackend's client: it counts the body bytes of every
// /shard/search exchange while tracing is on. Headers are left out —
// they carry a random request ID — so the count depends only on the
// queries and the corpus.
type countingTransport struct {
	base  http.RoundTripper
	tr    *tracer
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil || !t.tr.on.Load() || !strings.HasSuffix(r.URL.Path, "/shard/search") {
		return resp, err
	}
	t.bytes.Add(r.ContentLength)
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
