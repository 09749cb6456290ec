// Package serve is the traffic-ready serving layer over the paper's
// RAG + verification pipeline (Fig. 2): a shard router that spreads
// documents over N independent vector-database shards and fans queries
// out in parallel, an LRU verdict cache with singleflight
// deduplication in front of the detector, and per-tenant and global
// admission gates that shed load instead of queueing unboundedly.
//
// Request lifecycle for Ask:
//
//	admission → embed → shard fan-out → merge top-k →
//	generate → verdict cache → singleflight → detector → respond
//
// Verification is one direct detector call per distinct triple, under
// the request's own context: the paper's (sentence × SLM) calls share
// no work across requests, so there is nothing for a batch to amortize.
//
// See docs/serving.md for the architecture rationale.
package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/rag"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Config assembles a Server. Zero values take the documented defaults.
type Config struct {
	// Shards is the number of vector-database shards (default
	// GOMAXPROCS, capped at 8).
	Shards int
	// Dim is the embedding width (default 256, matching the seed
	// server).
	Dim int
	// TopK is the retrieval depth per question (default 3).
	TopK int
	// Threshold is the verification acceptance threshold on s_i.
	Threshold float64
	// Generator produces answers from retrieved context; nil means the
	// seed's extractive generator.
	Generator rag.Generator
	// Detector verifies responses; nil means core.NewProposed().
	Detector *core.Detector
	// Chunker splits ingested documents; zero value means
	// rag.DefaultChunker().
	Chunker rag.Chunker

	// MaxBatch / MaxWait are read by nothing: they bounded the verify
	// micro-batcher, which is gone. They stay only because the frozen
	// bench/loadbench/inproc.go sets them; the next [benchmark] PR
	// removes them together with that use.
	MaxBatch int
	MaxWait  time.Duration

	// StreamWorkers / StreamMaxPending / StreamMaxErrors tune the
	// streaming ingest pipeline (see ingest.Config): chunking
	// concurrency, the chunk credit pool bounding in-flight memory, and
	// the malformed-line tolerance per stream.
	StreamWorkers    int
	StreamMaxPending int
	StreamMaxErrors  int

	// TenantRate / TenantBurst / TenantMaxInFlight bound each tenant
	// (collection) independently, in front of the global gate: a
	// token-bucket rate limit in requests per second with the given
	// burst depth, plus a per-tenant in-flight cap. All zero disables
	// per-tenant admission (the prior behaviour). See TenantLimits.
	TenantRate        float64
	TenantBurst       int
	TenantMaxInFlight int

	// MaxInFlight bounds concurrently executing requests (default 64).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are shed with ErrOverloaded (default 256; negative disables
	// queueing so every request beyond MaxInFlight is shed).
	MaxQueue int
	// RequestTimeout is the per-request deadline applied on admission
	// (default 10s).
	RequestTimeout time.Duration

	// VerdictCacheSize is the verdict LRU's capacity (default 4096).
	VerdictCacheSize int

	// Index selects and tunes the per-shard vector index (kind,
	// quantization, re-rank depth, IVF/HNSW parameters). The zero value
	// keeps exact flat cosine scans. Ignored when Store is set.
	Index IndexConfig

	// DataDir, when non-empty, makes the store durable: every mutation
	// is journaled to a per-shard write-ahead log, shards checkpoint in
	// the background, and New recovers the previous state instead of
	// starting empty. Empty means memory-only (the prior behaviour).
	DataDir string
	// Persist tunes the durable layer; ignored when DataDir is empty.
	Persist PersistConfig

	// Store, when non-nil, supplies the document store directly and
	// overrides Shards/DataDir/Persist — the cluster mode, where a
	// RemoteStore routes to shard nodes instead of in-process shards.
	// The Server takes ownership and closes it with Close.
	Store Store

	// Telemetry is the metrics registry every stage reports into —
	// request counters, per-stage latency histograms, cache and
	// admission bridges — and the source /metrics is rendered from.
	// Nil means the Server creates a private registry, so /stats is
	// always backed by real (race-clean) series either way.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
	}
	if c.Dim <= 0 {
		c.Dim = 256
	}
	if c.TopK <= 0 {
		c.TopK = 3
	}
	if c.Chunker.MaxSentences <= 0 {
		c.Chunker = rag.DefaultChunker()
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	} else if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.VerdictCacheSize <= 0 {
		c.VerdictCacheSize = 4096
	}
	return c
}

// Server is the serving facade: it owns the sharded store, the caches
// and the admission gates, and exposes the same Ask/Verify/Ingest
// surface as the seed pipeline.
type Server struct {
	cfg       Config
	store     Store
	pipeline  *rag.Pipeline
	admission *Admission
	tenants   *TenantGate
	verdicts  *lruCache[string, core.Verdict]
	vflight   flightGroup[string, core.Verdict]
	// verifyExec times one detector call (stage="verify_exec").
	verifyExec *telemetry.Histogram
	// stream accumulates every ingest stream's lifetime totals.
	stream streamCounters

	// Request counters live in the telemetry registry so /stats and
	// /metrics read the same race-clean series (the pre-telemetry
	// atomics were a second, divergent set of books).
	asks     *telemetry.Counter
	verifies *telemetry.Counter
	ingests  *telemetry.Counter
	searches *telemetry.Counter
	deletes  *telemetry.Counter
	// unavailableShed counts requests shed at admission because the
	// cluster store reported no healthy backends.
	unavailableShed *telemetry.Counter
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	// Shards=0 means "auto" for a fresh store but "adopt the stored
	// count" when reopening a data directory — resolve before
	// withDefaults turns 0 into the machine default, which would reject
	// a directory created on a machine with a different core count.
	shards := cfg.Shards
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" || (shards <= 0 && !storeMetaExists(cfg.DataDir)) {
		shards = cfg.Shards
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	cfg.Persist.Telemetry = cfg.Telemetry
	det := cfg.Detector
	if det == nil {
		d, err := core.NewProposed()
		if err != nil {
			return nil, err
		}
		det = d
	}
	gen := cfg.Generator
	if gen == nil {
		gen = rag.ExtractiveGenerator{MaxSentences: 2}
	}
	if err := cfg.Index.Validate(); err != nil {
		return nil, err
	}
	var store Store
	var err error
	switch {
	case cfg.Store != nil:
		store = cfg.Store
	case cfg.DataDir != "":
		store, err = OpenShardedWithIndex(cfg.DataDir, shards, cfg.Dim, cfg.Index, cfg.Persist)
	default:
		store, err = NewShardedWithIndex(shards, cfg.Dim, cfg.Index)
	}
	if err != nil {
		return nil, err
	}
	store.SetTelemetry(cfg.Telemetry)
	pipeline, err := rag.NewPipeline(rag.PipelineConfig{
		DB:        store,
		TopK:      cfg.TopK,
		Generator: gen,
		Detector:  det,
		Threshold: cfg.Threshold,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	admission, err := NewAdmission(cfg.MaxInFlight, cfg.MaxQueue)
	if err != nil {
		store.Close()
		return nil, err
	}
	verdicts := newLRU[string, core.Verdict](cfg.VerdictCacheSize)
	tenants := NewTenantGate(TenantLimits{
		Rate:        cfg.TenantRate,
		Burst:       cfg.TenantBurst,
		MaxInFlight: cfg.TenantMaxInFlight,
	})
	tenants.SetTelemetry(cfg.Telemetry)
	reg := cfg.Telemetry
	s := &Server{
		cfg:       cfg,
		store:     store,
		pipeline:  pipeline,
		admission: admission,
		tenants:   tenants,
		verdicts:  verdicts,
		verifyExec: reg.Histogram("stage_duration_seconds", "Hot-path stage latency in seconds.", nil,
			telemetry.L("stage", "verify_exec")),
		asks:     reg.Counter("ask_requests_total", "Admitted Ask requests."),
		verifies: reg.Counter("verify_requests_total", "Admitted Verify requests."),
		ingests:  reg.Counter("ingest_docs_total", "Documents admitted for ingest (bulk counts each document)."),
		searches: reg.Counter("search_requests_total", "Admitted Search requests."),
		deletes:  reg.Counter("delete_requests_total", "Admitted Delete requests."),
		unavailableShed: reg.Counter("cluster_shed_unavailable_total",
			"Requests shed at admission because no shard had a healthy backend."),
	}
	// Bridge the pre-existing component counters into /metrics without
	// moving them: closures read the same state /stats reports.
	reg.GaugeFunc("admission_in_flight", "Requests holding an admission slot.",
		func() float64 { return float64(admission.InFlight()) })
	reg.GaugeFunc("admission_queue_depth", "Requests queued for an admission slot.",
		func() float64 { return float64(admission.QueueDepth()) })
	reg.CounterFunc("admission_shed_total", "Requests shed by the admission gate.", admission.Shed)
	reg.CounterFunc("cache_hits_total", "Verdict-cache hits.",
		func() uint64 { h, _ := verdicts.Counters(); return h }, telemetry.L("cache", "verdict"))
	reg.CounterFunc("cache_misses_total", "Verdict-cache misses.",
		func() uint64 { _, m := verdicts.Counters(); return m }, telemetry.L("cache", "verdict"))
	// Streaming-ingest lifetime totals, until now /stats-only.
	reg.CounterFunc("ingest_stream_streams_total", "NDJSON ingest streams admitted.", s.stream.streams.Load)
	reg.CounterFunc("ingest_stream_accepted_docs_total", "Documents parsed off ingest streams.", s.stream.accepted.Load)
	reg.CounterFunc("ingest_stream_indexed_docs_total", "Documents fully indexed from ingest streams.", s.stream.indexed.Load)
	reg.CounterFunc("ingest_stream_failed_lines_total", "Malformed lines rejected across ingest streams.", s.stream.failedLines.Load)
	reg.CounterFunc("ingest_stream_chunks_total", "Passages written from ingest streams.", s.stream.chunks.Load)
	reg.CounterFunc("ingest_stream_throttle_events_total", "Pipeline blocks on the ingest chunk credit gate.", s.stream.throttled.Load)
	reg.CounterFunc("ingest_stream_bytes_total", "Stream bytes read off ingest sockets.",
		func() uint64 { return uint64(s.stream.bytes.Load()) })
	return s, nil
}

// Close — on a durable store — takes a final checkpoint and closes
// the per-shard WALs, so a clean shutdown restarts from a snapshot
// with nothing to replay.
func (s *Server) Close() error { return s.store.Close() }

// Checkpoint snapshots every dirty shard and truncates its WAL — the
// operation behind POST /admin/checkpoint. It errors on a memory-only
// server.
func (s *Server) Checkpoint() error { return s.store.Save() }

// Store exposes the document store (for seeding and tests) — a
// *ShardedDB in single-process mode, a *RemoteStore in cluster mode.
func (s *Server) Store() Store { return s.store }

// Threshold returns the configured acceptance threshold.
func (s *Server) Threshold() float64 { return s.pipeline.Threshold }

// Calibrate accumulates the detector's normalization moments on the
// given triples and freezes them — the preparation step that makes
// verdicts pure functions, which both parallel scoring and the
// verdict cache rely on.
func (s *Server) Calibrate(ctx context.Context, triples []core.Triple) error {
	return s.pipeline.Detector().Calibrate(ctx, triples)
}

// admit applies admission control and the per-request deadline. The
// returned done func releases the slot and cancels the deadline. A
// cluster store with no healthy backends sheds here, before any slot
// or transport work is spent — the per-shard health state feeding
// admission control. The per-tenant gate runs before the global one,
// so a tenant over its own budget is throttled (429) without
// consuming a shared slot or pressuring anyone else's queue.
func (s *Server) admit(ctx context.Context) (context.Context, func(), error) {
	if err := s.store.Available(); err != nil {
		s.unavailableShed.Inc()
		return nil, nil, err
	}
	tenantRelease, err := s.tenants.Acquire(ctx)
	if err != nil {
		return nil, nil, err
	}
	release, err := s.admission.Acquire(ctx)
	if err != nil {
		tenantRelease()
		return nil, nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	return rctx, func() { cancel(); release(); tenantRelease() }, nil
}

// Ask answers one question through the full serving path. Under
// overload it fails fast with ErrOverloaded.
func (s *Server) Ask(ctx context.Context, question string) (rag.Answer, error) {
	return s.AskIn(ctx, "", question)
}

// AskIn is Ask scoped to one collection: retrieval draws context only
// from that collection's documents (empty means unscoped, the default
// collection plus everything else — the pre-collection behaviour).
// The verdict cache reads the tenant off ctx (WithTenant), which HTTP
// handlers set alongside the collection.
func (s *Server) AskIn(ctx context.Context, collection, question string) (rag.Answer, error) {
	if question == "" {
		return rag.Answer{}, errors.New("serve: empty question")
	}
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return rag.Answer{}, err
	}
	defer done()
	s.asks.Inc()
	// Retrieval runs under the request context so the request ID and
	// deadline reach the store (and, in cluster mode, the shard RPC
	// headers); generation is fast local compute, and the deadline is
	// re-checked at the stage boundary and throughout verification.
	draft, err := s.pipeline.Draft(rctx, question, vecdb.Filter{Collection: collection})
	if err != nil {
		return rag.Answer{}, err
	}
	if err := rctx.Err(); err != nil {
		return rag.Answer{}, err
	}
	verdict, err := s.verdict(rctx, core.Triple{
		Question: question, Context: draft.Context, Response: draft.Response,
	})
	if err != nil {
		return rag.Answer{}, err
	}
	return s.pipeline.Finalize(draft, verdict), nil
}

// Verify scores one (question, context, response) triple through the
// verdict cache, calling the detector on a miss.
func (s *Server) Verify(ctx context.Context, question, contextText, response string) (core.Verdict, error) {
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return core.Verdict{}, err
	}
	defer done()
	s.verifies.Inc()
	return s.verdict(rctx, core.Triple{Question: question, Context: contextText, Response: response})
}

// Ingest chunks and indexes one document: IngestDocs of a single
// text-only document.
func (s *Server) Ingest(ctx context.Context, text string) (int, error) {
	return s.IngestDocs(ctx, []vecdb.Document{{Text: text}})
}

// IngestBulk is IngestDocs of text-only documents.
func (s *Server) IngestBulk(ctx context.Context, texts []string) (int, error) {
	return s.IngestDocs(ctx, textDocs(texts))
}

// IngestDocs chunks and indexes a batch of documents: chunking runs
// concurrently across documents, then all chunks are written through
// one Store.AddBulkDocsContext, which embeds on all cores and groups
// index writes (and WAL appends or shard RPCs) per shard. Every chunk
// of a document is written under the document's collection with the
// document's metadata, so filtered search over either dimension sees
// exactly the passages that came from matching documents. It returns
// the total chunk count. The batch costs one admission slot — bulk
// ingest competes with queries as one request, not len(docs) of them.
// Chunk embedding is not cancellable mid-batch; the deadline is checked
// on admission.
func (s *Server) IngestDocs(ctx context.Context, docs []vecdb.Document) (int, error) {
	if len(docs) == 0 {
		return 0, errors.New("serve: empty bulk ingest")
	}
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return 0, err
	}
	defer done()
	if err := rctx.Err(); err != nil {
		return 0, err
	}
	s.ingests.Add(uint64(len(docs)))

	chunked := make([][]string, len(docs))
	errs := make([]error, len(docs))
	parallel.For(len(docs), func(i int) {
		chunked[i], errs[i] = s.cfg.Chunker.Chunk(docs[i].Text)
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var chunks []vecdb.Document
	for i, cs := range chunked {
		for _, c := range cs {
			chunks = append(chunks, vecdb.Document{
				Collection: docs[i].Collection,
				Text:       c,
				Meta:       docs[i].Meta,
			})
		}
	}
	if _, err := s.store.AddBulkDocsContext(rctx, chunks); err != nil {
		return 0, err
	}
	return len(chunks), nil
}

// Search is SearchFiltered with the zero filter.
func (s *Server) Search(ctx context.Context, query string, k int) ([]vecdb.Hit, error) {
	return s.SearchFiltered(ctx, query, k, vecdb.Filter{})
}

// SearchFiltered retrieves the top-k passages for query through
// admission control — retrieval-only traffic pays an embedding plus a
// fan-out over every shard, so it must not bypass the load-shedding
// gate the other endpoints respect. The collection/metadata predicate
// is pushed down to every shard before the per-shard top-k is taken, so
// the merged result is exactly what an unfiltered search over a store
// holding only the matching documents would return; the zero filter
// matches everything.
func (s *Server) SearchFiltered(ctx context.Context, query string, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	if query == "" {
		return nil, errors.New("serve: empty query")
	}
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer done()
	if err := rctx.Err(); err != nil {
		return nil, err
	}
	s.searches.Inc()
	return s.store.SearchFilteredContext(rctx, query, k, f)
}

// GetDocument fetches one stored document through admission control.
// Absent IDs report ErrNotFound.
func (s *Server) GetDocument(ctx context.Context, id int64) (vecdb.Document, error) {
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return vecdb.Document{}, err
	}
	defer done()
	if err := rctx.Err(); err != nil {
		return vecdb.Document{}, err
	}
	return s.store.GetContext(rctx, id)
}

// DeleteDocument is DeleteDocumentIn with no collection scope.
func (s *Server) DeleteDocument(ctx context.Context, id int64) error {
	return s.DeleteDocumentIn(ctx, "", id)
}

// DeleteDocumentIn removes one document through admission control,
// journaling the removal on a durable store. Absent IDs report
// ErrNotFound. A non-empty collection scopes the delete: a document
// that exists under a different collection reports ErrNotFound and is
// left untouched, so one tenant can never delete another's data by
// guessing IDs.
func (s *Server) DeleteDocumentIn(ctx context.Context, collection string, id int64) error {
	rctx, done, err := s.admit(ctx)
	if err != nil {
		return err
	}
	defer done()
	if err := rctx.Err(); err != nil {
		return err
	}
	s.deletes.Inc()
	return s.store.DeleteContext(rctx, collection, id)
}

// verdictKey separates fields with unit separators so distinct triples
// never collide. The tenant leads the key: identical triples arriving
// for two collections get independent cache entries and independent
// singleflight leaders, so one tenant's traffic can never warm — or
// evict — another's verdicts.
func verdictKey(tenant string, t core.Triple) string {
	return tenant + "\x1f" + t.Question + "\x1f" + t.Context + "\x1f" + t.Response
}

// verdict resolves one triple via LRU cache → singleflight → detector.
// Identical concurrent claims are verified once; errors are never
// cached. Caching and deduplication require a calibrated (frozen)
// detector — before calibration, verdicts are order-dependent online
// functions, so every request is scored, sequentially, and the seed's
// online-normalization semantics are preserved.
func (s *Server) verdict(ctx context.Context, t core.Triple) (core.Verdict, error) {
	if !s.pipeline.Detector().Calibrated() {
		return s.score(ctx, t, 1)
	}
	key := verdictKey(TenantFrom(ctx), t)
	for {
		if v, ok := s.verdicts.Get(key); ok {
			return v, nil
		}
		v, err, shared := s.vflight.Do(ctx, key, func() (core.Verdict, error) {
			v, err := s.score(ctx, t, runtime.GOMAXPROCS(0))
			if err != nil {
				return core.Verdict{}, err
			}
			s.verdicts.Put(key, v)
			return v, nil
		})
		if err == nil {
			return v, nil
		}
		// A follower that inherited the leader's context error retries
		// while its own context is still live (the next round either
		// finds the cache warm or elects a new leader).
		if shared && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return core.Verdict{}, err
	}
}

// score is the one detector call of the serving path, under the
// request's context: a cancelled or timed-out request stops calling
// models.
func (s *Server) score(ctx context.Context, t core.Triple, workers int) (core.Verdict, error) {
	defer s.verifyExec.ObserveSince(time.Now())
	return s.pipeline.Detector().ScoreWorkers(ctx, t.Question, t.Context, t.Response, workers)
}

// Stats assembles the current Snapshot.
func (s *Server) Stats() Snapshot {
	vh, vm := s.verdicts.Counters()
	// One ShardSizes pass feeds both fields: on a cluster store each
	// call is a shard fan-out, so Docs is derived rather than fetched
	// again.
	sizes := s.store.ShardSizes()
	docs := 0
	for _, n := range sizes {
		docs += n
	}
	colls := s.store.CollectionCounts()
	if len(colls) == 0 {
		colls = nil
	}
	snap := Snapshot{
		Docs:        docs,
		ShardSizes:  sizes,
		Collections: colls,
		Tenants:     s.tenants.Stats(),
		Requests: RequestStats{
			Asks:     s.asks.Value(),
			Verifies: s.verifies.Value(),
			Ingests:  s.ingests.Value(),
			Searches: s.searches.Value(),
			Deletes:  s.deletes.Value(),
		},
		VerdictCache: cacheStats(s.verdicts.Len(), vh, vm),
		Admission: AdmissionStats{
			InFlight:   s.admission.InFlight(),
			QueueDepth: s.admission.QueueDepth(),
			Shed:       s.admission.Shed(),
		},
		IngestStream: s.stream.stats(),
		Persist:      s.store.PersistStats(),
		Stages:       stageStats(s.cfg.Telemetry),
	}
	if is, ok := s.store.(interface{ IndexStats() IndexStats }); ok {
		snap.Index = is.IndexStats()
	}
	if rs, ok := s.store.(*RemoteStore); ok {
		r := rs.Router()
		snap.Cluster = ClusterStats{
			Enabled:         true,
			Shards:          r.Health(),
			Router:          r.Stats(),
			Resync:          r.ResyncStats(),
			ShedUnavailable: s.unavailableShed.Value(),
			Migrations:      r.Migrations(),
		}
	}
	return snap
}

// stageStats summarizes the stage_duration_seconds histograms into the
// Stages section of the snapshot: one count + p50/p95/p99 row per
// instrumented hot-path stage that has observed at least one event.
func stageStats(reg *telemetry.Registry) map[string]StageStats {
	snaps := reg.HistogramSnapshots("stage_duration_seconds")
	if len(snaps) == 0 {
		return nil
	}
	out := make(map[string]StageStats, len(snaps))
	for key, hs := range snaps {
		if hs.Count == 0 {
			continue
		}
		// Keys are canonical label strings ("stage=embed").
		name := strings.TrimPrefix(key, "stage=")
		out[name] = StageStats{
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Telemetry exposes the server's metrics registry — the one /metrics
// renders and the middleware chain records into.
func (s *Server) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// ErrNoCluster reports a cluster-only operation on a single-process
// server, so HTTP handlers can map it to a client error rather than a
// server fault.
var ErrNoCluster = errors.New("serve: server is not in cluster mode")

// Resync runs one synchronous anti-entropy sweep across the cluster —
// the operation behind POST /admin/resync, for operators who want a
// just-recovered replica repaired now rather than on the next
// background sweep.
func (s *Server) Resync(ctx context.Context) error {
	rs, ok := s.store.(*RemoteStore)
	if !ok {
		return ErrNoCluster
	}
	return rs.Router().ResyncNow(ctx)
}

// Rebalance moves shard si onto the node at targetURL — the operation
// behind POST /admin/rebalance. With wait=true it blocks until the
// migration finishes (the returned status then carries the outcome);
// otherwise it returns as soon as the migration is underway and
// /stats tracks its progress. The error is non-nil only when the
// migration could not start.
func (s *Server) Rebalance(ctx context.Context, si int, targetURL string, wait bool) (cluster.MigrationStatus, error) {
	rs, ok := s.store.(*RemoteStore)
	if !ok {
		return cluster.MigrationStatus{}, ErrNoCluster
	}
	target, err := cluster.NewHTTPBackend(targetURL, nil)
	if err != nil {
		return cluster.MigrationStatus{}, err
	}
	if wait {
		return rs.Router().Rebalance(ctx, si, target)
	}
	return rs.Router().StartRebalance(si, target)
}

// PlanRebalance runs the dry-run rebalance planner: per-shard doc
// counts and routed-operation counters plus the move it would make,
// with nothing mutated.
func (s *Server) PlanRebalance(ctx context.Context) (cluster.RebalancePlan, error) {
	rs, ok := s.store.(*RemoteStore)
	if !ok {
		return cluster.RebalancePlan{}, ErrNoCluster
	}
	return rs.Router().Plan(ctx), nil
}
