// Command ragserver runs the end-to-end system of Fig. 2 as an HTTP
// service on the internal/serve layer: documents are sharded across
// parallel vector-database shards, questions are answered with
// retrieval-augmented generation, and every answer is verified by the
// multi-SLM framework — with a verdict cache, and per-tenant and
// global admission control in front of the hot path.
//
// Endpoints (JSON):
//
//	POST /ingest           {"text": "...", "collection": "...", "meta": {...}} → {"chunks": n}
//	POST /ingest/bulk      {"texts": ["...", ...], "collection": "..."}        → {"docs": n, "chunks": m}
//	POST /ingest/stream    NDJSON body (one doc/line) [?collection=t]          → NDJSON progress frames + final {"done":true,...}
//	POST /ask              {"question": "...", "collection": "..."}            → answer + verdict
//	POST /verify           {"question","context","response"[,"collection"]}    → verdict
//	POST /search           {"query","k","collection","filter":{tag:...}}       → {"hits": [...]}
//	GET  /documents/{id}                                                       → stored document
//	DELETE /documents/{id} [?collection=t]                                     → {"deleted": id}
//
// Collections scope documents to tenants: ingest writes land under the
// named collection ("default" when omitted), search/ask retrieval is
// restricted to it, and metadata filters restrict further by exact
// key=value match. When per-tenant limits are configured
// (-tenant-rate / -tenant-burst / -tenant-inflight), each collection
// is admitted through its own token bucket and in-flight quota before
// the global gate — a saturating tenant gets 429s while everyone else
// is untouched — and /stats grows a "tenants" block with per-tenant
// admitted/throttled/in-flight counts. See docs/serving.md.
//
//	POST /admin/checkpoint                            → persistence counters
//	POST /admin/resync                                → cluster stats after one anti-entropy sweep
//	POST /admin/rebalance                             → move a shard to a new node (or dry-run plan)
//	GET  /healthz                                     → {"status":"ok","ready":b}  (liveness)
//	GET  /readyz                                      → 200 | 503                  (recovery + seeding complete)
//	GET  /stats                                       → serving-layer snapshot
//	GET  /metrics                                     → Prometheus text exposition
//	GET  /debug/traces                                → captured span trees + histogram exemplars
//
// /ingest/stream reads NDJSON (one document per line — an object
// {"text":"...","meta":{...}} or a bare string), indexes it through a
// bounded pipeline with credit-based backpressure (an overwhelmed
// server slows the upload via TCP flow control instead of buffering
// unboundedly), and streams progress heartbeat frames back while the
// upload runs. Each index batch is whatever is queued when the store
// is free: an idle stream writes at once, a busy one in larger batches,
// with no timer to tune. See docs/ingest.md.
//
// Overloaded requests are shed with 429 Too Many Requests; operations
// on absent document IDs return 404. The listener comes up before
// recovery finishes: /healthz answers immediately, data endpoints
// return 503 until /readyz flips — which also makes /readyz the probe
// target a cluster router uses to route around a recovering node.
//
// With -data-dir the store is durable: every mutation is journaled to
// a per-shard write-ahead log, shards checkpoint in the background and
// on shutdown, and a restarted server recovers its index without
// re-ingesting (see docs/persistence.md).
//
// With -cluster nodes.json the shards live on remote shardnode
// processes instead: documents are hash-routed over HTTP to the nodes
// listed in the topology file, with health-checked fan-out, replica
// failover, and anti-entropy replica resync — a replica that missed
// writes while ejected is streamed the gap from its peers' WALs
// (every -resync-interval, or on POST /admin/resync) before it is
// re-admitted to reads (see docs/cluster.md). -shards and -data-dir
// are ignored in this mode; durability is each node's own WAL.
//
// Every request flows through the telemetry middleware chain: an
// X-Request-ID is adopted (or generated) and echoed, per-route
// counters and latency histograms are recorded, and panics recover to
// 500. GET /metrics renders the registry — request counters, hot-path
// stage histograms (embed, shard fan-out, merge, verify, WAL,
// checkpoint, ingest), per-backend RPC timings in cluster mode — in
// Prometheus text format. GET /debug/traces holds the span trees of
// every 5xx and every request slower than -slo-latency, plus 1 in
// -trace-sample of the rest; the probes /healthz and /readyz are only
// sampled. Burn-rate alerting is PromQL over the /metrics series.
// -log-requests emits one line per completed request; -debug-addr
// serves net/http/pprof on a separate listener. See
// docs/observability.md.
//
// The vector index behind the shards is configurable: -index selects
// flat (exact scan), ivf (clustered probes) or hnsw (graph), -quantize
// int8 switches the scan to int8 codes with an exact float32 re-rank
// of the top -rerank-k candidates, and -nprobe / -ef-search tune the
// recall/latency trade-off. Invalid combinations fail at startup; the
// active configuration (and the index's memory footprint) is echoed in
// /stats under "index". See docs/vector.md.
//
// Usage:
//
//	ragserver [-addr :8080] [-topk 3] [-threshold 3.2] [-seed-demo]
//	          [-shards 4] [-ingest-pending 1024]
//	          [-max-inflight 64] [-max-queue 256]
//	          [-tenant-rate 0] [-tenant-burst 0] [-tenant-inflight 0]
//	          [-index flat|ivf|hnsw] [-quantize none|int8] [-rerank-k 0]
//	          [-nprobe 8] [-ef-search 64]
//	          [-data-dir ""] [-fsync never|always|interval]
//	          [-checkpoint-every 30s]
//	          [-cluster nodes.json] [-probe-interval 1s]
//	          [-resync-interval 1s]
//	          [-breaker-threshold 5] [-breaker-cooldown 2s]
//	          [-read-retries 1] [-hedge-after 20ms]
//	          [-trace-capacity 256] [-trace-sample 16] [-slo-latency 500ms]
//	          [-log-requests] [-debug-addr ""]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"

	// Registers the profiling handlers on http.DefaultServeMux, which
	// only the optional -debug-addr listener serves.
	_ "net/http/pprof"
)

// clusterBootWait bounds how long a routing server waits for its
// shard nodes to become reachable at boot (the ID allocator cannot be
// restored until every shard answers).
const clusterBootWait = 60 * time.Second

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		topK        = flag.Int("topk", 3, "retrieved passages per question")
		threshold   = flag.Float64("threshold", 3.2, "verification acceptance threshold")
		seedDemo    = flag.Bool("seed-demo", false, "preload the synthetic HR handbook and calibrate on it")
		shards      = flag.Int("shards", 0, "vector DB shards (0 = auto, or the stored count when -data-dir exists)")
		ingestPend  = flag.Int("ingest-pending", 0, "chunk credit pool bounding in-flight streaming-ingest memory (0 = 1024)")
		maxInflight = flag.Int("max-inflight", 64, "max concurrently executing requests")
		maxQueue    = flag.Int("max-queue", 256, "max requests waiting for a slot before shedding (-1 disables queueing)")
		indexKind   = flag.String("index", "flat", "vector index per shard: flat, ivf, or hnsw")
		quantize    = flag.String("quantize", "none", "stored-vector representation: none (float32) or int8 (quantized scan + exact re-rank)")
		rerankK     = flag.Int("rerank-k", 0, "quantized-scan candidates re-scored exactly per query (0 = 4×k)")
		nprobe      = flag.Int("nprobe", 0, "IVF clusters probed per query (0 = default 8)")
		efSearch    = flag.Int("ef-search", 0, "HNSW query beam width (0 = default 64)")
		dataDir     = flag.String("data-dir", "", "directory for per-shard WALs and checkpoints (empty = memory-only)")
		fsync       = flag.String("fsync", "never", "WAL fsync policy: never, always, or interval")
		ckEvery     = flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint period (negative disables)")
		clusterFile = flag.String("cluster", "", "nodes.json topology: route to remote shardnodes instead of in-process shards")
		probeEvery  = flag.Duration("probe-interval", time.Second, "cluster health probe period")
		resyncEvery = flag.Duration("resync-interval", time.Second, "anti-entropy resync sweep period (negative disables background sweeps)")
		logRequests = flag.Bool("log-requests", false, "log one structured line per completed request")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		traceCap    = flag.Int("trace-capacity", 256, "captured traces retained in memory for /debug/traces")
		traceSample = flag.Int("trace-sample", 16, "keep 1 in N healthy traces (5xx and requests slower than -slo-latency are always kept; negative = only those)")
		sloLatency  = flag.Duration("slo-latency", defaultSLOLatency, "always keep the trace of a request slower than this, as reason slo_breach (0 disables)")
		breakThresh = flag.Int("breaker-threshold", 5, "consecutive live-read failures that open a backend's circuit breaker (0 disables breakers)")
		breakCool   = flag.Duration("breaker-cooldown", 2*time.Second, "open-breaker cooldown before a half-open trial request")
		readRetries = flag.Int("read-retries", 1, "retries with jittered backoff for failed idempotent reads (0 disables)")
		hedgeAfter  = flag.Duration("hedge-after", 20*time.Millisecond, "arm a hedged read against another replica after this wait (0 disables hedging)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant sustained request rate in req/s (0 disables per-tenant rate limiting)")
		tenantBurst = flag.Int("tenant-burst", 0, "per-tenant token-bucket burst depth (0 = no burst above -tenant-rate)")
		tenantInfl  = flag.Int("tenant-inflight", 0, "per-tenant concurrently-executing request cap (0 disables)")
	)
	flag.Parse()
	policy, err := storage.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ragserver:", err)
		os.Exit(1)
	}
	indexCfg := serve.IndexConfig{
		Kind:     *indexKind,
		Quantize: *quantize,
		RerankK:  *rerankK,
		NProbe:   *nprobe,
		EfSearch: *efSearch,
	}
	if err := indexCfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "ragserver:", err)
		os.Exit(1)
	}
	// The registry is created here, not by serve.New, because /metrics
	// (and the middleware recording into it) must serve from the moment
	// the listener is up — before the possibly long store recovery.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "ragserver",
		telemetry.L("index", *indexKind), telemetry.L("quantize", *quantize))
	tracer := newTracer(reg, *traceCap, *traceSample, *sloLatency)
	resilience := cluster.ResilienceConfig{
		BreakerThreshold: *breakThresh,
		BreakerCooldown:  *breakCool,
		RetryReads:       *readRetries,
		HedgeAfter:       *hedgeAfter,
	}
	cfg := serve.Config{
		Telemetry:         reg,
		Shards:            *shards,
		TopK:              *topK,
		Threshold:         *threshold,
		StreamMaxPending:  *ingestPend,
		MaxInFlight:       *maxInflight,
		MaxQueue:          *maxQueue,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		TenantMaxInFlight: *tenantInfl,
		Index:             indexCfg,
		DataDir:           *dataDir,
		Persist: serve.PersistConfig{
			Fsync:           policy,
			CheckpointEvery: *ckEvery,
		},
	}

	// The listener comes up before the (possibly long) store recovery
	// or cluster attach: /healthz answers immediately, /readyz and the
	// data endpoints flip once init completes.
	srv := &server{reg: reg, tracer: tracer, logRequests: *logRequests}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	initDone := make(chan error, 1)
	go func() {
		initDone <- srv.init(cfg, *clusterFile, *probeEvery, *resyncEvery, resilience, *seedDemo, *dataDir)
	}()
	log.Printf("ragserver listening on %s", *addr)
	if *debugAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ragserver: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "ragserver:", err)
		os.Exit(1)
	case err := <-initDone:
		if err != nil {
			fmt.Fprintln(os.Stderr, "ragserver:", err)
			os.Exit(1)
		}
		// Init finished; keep serving until a signal or listener error.
		select {
		case err := <-errCh:
			fmt.Fprintln(os.Stderr, "ragserver:", err)
			os.Exit(1)
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting traffic, then checkpoint the
	// store so the next boot replays nothing.
	log.Printf("shutting down: draining connections and checkpointing")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		log.Printf("ragserver: http shutdown: %v", err)
	}
	if c := srv.core.Load(); c != nil {
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ragserver: close:", err)
			os.Exit(1)
		}
	}
}

// server wires the serving layer behind HTTP handlers. core is nil
// until init completes; handlers 503 in the meantime.
type server struct {
	core atomic.Pointer[serve.Server]
	// reg is the process-wide metrics registry: the middleware chain
	// records into it and /metrics renders it, from before init
	// completes.
	reg *telemetry.Registry
	// tracer captures per-request span trees for /debug/traces; it
	// serves from before init completes, like the registry.
	tracer      *telemetry.Tracer
	logRequests bool
}

// init builds the serving core (local shards, durable shards, or a
// remote cluster), seeds the demo corpus if asked, and flips /readyz.
func (s *server) init(cfg serve.Config, clusterFile string, probeEvery, resyncEvery time.Duration, resilience cluster.ResilienceConfig, seedDemo bool, dataDir string) error {
	if clusterFile != "" {
		store, err := attachCluster(clusterFile, probeEvery, resyncEvery, resilience, cfg, s.reg)
		if err != nil {
			return err
		}
		cfg.Store = store
		cfg.DataDir = ""
	}
	sv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if seedDemo {
		if err := seedDemoCorpus(sv); err != nil {
			sv.Close()
			return err
		}
	}
	if dataDir != "" && clusterFile == "" {
		st := sv.Stats().Persist
		log.Printf("recovered %d docs from %s (replayed %d WAL records)",
			sv.Store().Len(), dataDir, st.ReplayedRecords)
	}
	s.core.Store(sv)
	log.Printf("ready (shards=%d topk=%d threshold=%.2f index=%s quantize=%s cluster=%v)",
		sv.Store().Shards(), cfg.TopK, cfg.Threshold,
		sv.Stats().Index.Config.Kind, sv.Stats().Index.Config.Quantize, clusterFile != "")
	return nil
}

// attachCluster loads the topology file and attaches to the shard
// nodes, retrying until every node answers (the global ID allocator
// needs the cluster-wide high-water mark) or clusterBootWait elapses.
func attachCluster(path string, probeEvery, resyncEvery time.Duration, resilience cluster.ResilienceConfig, cfg serve.Config, reg *telemetry.Registry) (*serve.RemoteStore, error) {
	shards, err := cluster.LoadNodes(path)
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(shards, cluster.HealthConfig{
		Interval:       probeEvery,
		ResyncInterval: resyncEvery,
		Telemetry:      reg,
		Resilience:     resilience,
	})
	if err != nil {
		return nil, err
	}
	// The flags leave Dim zero; serve.New applies its default only
	// after this store is built, so mirror it here.
	dim := cfg.Dim
	if dim <= 0 {
		dim = 256
	}
	deadline := time.Now().Add(clusterBootWait)
	for {
		store, err := serve.NewRemoteStore(router, dim, 0)
		if err == nil {
			log.Printf("cluster: attached to %d shards from %s (%d docs)", router.Shards(), path, store.Len())
			return store, nil
		}
		if time.Now().After(deadline) {
			router.Close()
			return nil, fmt.Errorf("cluster attach: %w", err)
		}
		log.Printf("cluster: waiting for shard nodes: %v", err)
		time.Sleep(500 * time.Millisecond)
	}
}

// newServer builds a ready server synchronously — the test and
// embedding entrypoint; main uses the async init path instead.
func newServer(cfg serve.Config, seedDemo bool) (*server, error) {
	sv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if seedDemo {
		if err := seedDemoCorpus(sv); err != nil {
			sv.Close()
			return nil, err
		}
	}
	s := &server{reg: sv.Telemetry()}
	s.tracer = newTracer(s.reg, 0, 0, defaultSLOLatency)
	s.core.Store(sv)
	return s, nil
}

// defaultSLOLatency is the -slo-latency default, which newServer
// uses too.
const defaultSLOLatency = 500 * time.Millisecond

// newTracer builds the binary's tracer and registers its counters in
// reg. It always keeps the traces of 5xx and of requests slower than
// slowerThan, except on the probe routes, and 1 in sampleEvery of the
// rest (0 for capacity or sampleEvery takes the tracer's defaults,
// which are the flags' defaults).
func newTracer(reg *telemetry.Registry, capacity, sampleEvery int, slowerThan time.Duration) *telemetry.Tracer {
	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		Capacity:    capacity,
		SampleEvery: sampleEvery,
		SlowerThan:  slowerThan,
		Exempt:      []string{"/healthz", "/readyz"},
	})
	tracer.Register(reg)
	return tracer
}

// seedDemoCorpus ingests the synthetic handbook and calibrates the
// detector's normalization moments on its responses (Eq. 4's
// "previous responses"), freezing them so parallel scoring and the
// verdict cache see a pure scoring function.
func seedDemoCorpus(sv *serve.Server) error {
	set, err := dataset.Default()
	if err != nil {
		return err
	}
	ctx := context.Background()
	// A durable store that recovered documents already holds the demo
	// corpus (or real traffic) — re-ingesting would duplicate it. The
	// calibration below is in-memory state and runs on every boot.
	if sv.Store().Len() == 0 {
		// One batch: the IDs and order 120 single adds would give, in
		// one journal batch per shard.
		var docs []vecdb.Document
		for _, ctxText := range set.Contexts() {
			docs = append(docs, vecdb.Document{Text: ctxText})
		}
		if _, err := sv.Store().AddBulkDocsContext(ctx, docs); err != nil {
			return err
		}
	}
	var triples []core.Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, core.Triple{
				Question: it.Question, Context: it.Context, Response: r.Text,
			})
		}
	}
	log.Printf("seeding demo: %d passages, calibrating on %d responses", sv.Store().Len(), len(triples))
	start := time.Now()
	if err := sv.Calibrate(ctx, triples); err != nil {
		return err
	}
	log.Printf("calibrated on %d responses in %s", len(triples), time.Since(start).Round(time.Millisecond))
	return nil
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", s.reg.Handler())
	mux.Handle("/debug/traces", s.tracer.Handler(s.reg))
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/ingest/bulk", s.handleIngestBulk)
	mux.HandleFunc("/ingest/stream", s.handleIngestStream)
	mux.HandleFunc("/ask", s.handleAsk)
	mux.HandleFunc("/verify", s.handleVerify)
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/documents/", s.handleDocument)
	mux.HandleFunc("/admin/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/admin/resync", s.handleResync)
	mux.HandleFunc("/admin/rebalance", s.handleRebalance)
	// Outermost first: the request ID exists before anything records or
	// logs; tracing wraps metrics so histogram exemplars see the trace
	// ID; metrics wrap logging so 504s from the deadline layer and 500s
	// from the recovery layer are counted per route.
	return telemetry.Chain(mux,
		telemetry.RequestID(),
		telemetry.Tracing(s.tracer, routeLabel),
		telemetry.Metrics(s.reg, routeLabel),
		telemetry.RequestLog(s.logRequests, routeLabel, s.shardCount),
		telemetry.Deadline(0),
		telemetry.Recover(s.reg),
	)
}

// routeLabel maps a request to a bounded metric label: path patterns,
// never raw paths, so label cardinality cannot grow with traffic.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/documents/") {
		return "/documents/{id}"
	}
	switch p {
	case "/healthz", "/readyz", "/stats", "/metrics",
		"/debug/traces",
		"/ingest", "/ingest/bulk", "/ingest/stream",
		"/ask", "/verify", "/search",
		"/admin/checkpoint", "/admin/resync", "/admin/rebalance":
		return p
	}
	return "other"
}

// shardCount feeds the request log; 0 while init is still running.
func (s *server) shardCount() int {
	if c := s.core.Load(); c != nil {
		return c.Store().Shards()
	}
	return 0
}

// ready returns the serving core, or answers 503 and returns nil
// while init (recovery, cluster attach, demo seeding) is still
// running.
func (s *server) ready(w http.ResponseWriter) *serve.Server {
	c := s.core.Load()
	if c == nil {
		writeError(w, http.StatusServiceUnavailable, errors.New("starting: recovery in progress"))
	}
	return c
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	// Encode before the status line: a value encoding/json refuses
	// (NaN, ±Inf) must become a 500, not the intended status with an
	// empty or cut body.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("ragserver: encode response: %v", err)
		status = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(&buf).Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// statusFor maps serving-layer errors onto HTTP statuses: shed load is
// 429, expired deadlines and an unreachable cluster are 503, absent
// documents are 404, a model answer that is not a probability is 500
// (the server's fault, not the request's), everything else is the
// fallback.
func statusFor(err error, fallback int) int {
	var bad *core.ProbabilityError
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrUnavailable), errors.Is(err, cluster.ErrShardUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrNotFound):
		return http.StatusNotFound
	case errors.As(err, &bad):
		return http.StatusInternalServerError
	default:
		return fallback
	}
}

// handleHealth is pure liveness: it answers as soon as the listener
// is up, reporting whether init has finished.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	c := s.core.Load()
	out := map[string]interface{}{"status": "ok", "ready": c != nil}
	if c != nil {
		out["docs"] = c.Store().Len()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReady is readiness: 200 only once recovery (and demo
// seeding, if any) completed — the probe target for load balancers
// and for a cluster router's health checker.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if c := s.ready(w); c != nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	writeJSON(w, http.StatusOK, c.Stats())
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Text       string            `json:"text"`
		Collection string            `json:"collection"`
		Meta       map[string]string `json:"meta"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty text"))
		return
	}
	ctx := serve.WithTenant(r.Context(), req.Collection)
	n, err := c.IngestDocs(ctx, []vecdb.Document{{Collection: req.Collection, Text: req.Text, Meta: req.Meta}})
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"chunks": n})
}

func (s *server) handleIngestBulk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Texts      []string `json:"texts"`
		Collection string   `json:"collection"`
		Docs       []struct {
			Text string            `json:"text"`
			Meta map[string]string `json:"meta"`
		} `json:"docs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Texts) == 0 && len(req.Docs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty texts array"))
		return
	}
	ctx := serve.WithTenant(r.Context(), req.Collection)
	docs := make([]vecdb.Document, 0, len(req.Texts)+len(req.Docs))
	for _, t := range req.Texts {
		docs = append(docs, vecdb.Document{Collection: req.Collection, Text: t})
	}
	for _, d := range req.Docs {
		docs = append(docs, vecdb.Document{Collection: req.Collection, Text: d.Text, Meta: d.Meta})
	}
	chunks, err := c.IngestDocs(ctx, docs)
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"docs": len(docs), "chunks": chunks})
}

// streamFrame is one NDJSON line of the /ingest/stream response:
// heartbeat frames carry the live counters; the final frame adds
// done=true and, when the stream aborted, the error.
type streamFrame struct {
	ingest.Stats
	Done  bool   `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
}

// handleIngestStream pipes the request body through the streaming
// ingest pipeline, writing NDJSON progress frames as the upload runs.
// Shedding (429) and cluster-unavailable (503) happen before the
// first frame; after that, errors arrive in the final frame because
// the 200 header is already on the wire. Backpressure needs no code
// here: when the pipeline's credit gate fills, IngestStream stops
// reading r.Body and TCP flow control slows the client.
func (s *server) handleIngestStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	// Writing a response while the request body is still uploading
	// needs full-duplex HTTP: without it, Go's HTTP/1.x server closes
	// the body on the first response write and the upload dies with
	// "invalid Read on closed Body". Where full duplex is unavailable,
	// degrade to a single final frame instead of killing the stream.
	fullDuplex := http.NewResponseController(w).EnableFullDuplex() == nil
	var (
		mu    sync.Mutex
		wrote bool
	)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeFrame := func(f streamFrame) {
		mu.Lock()
		defer mu.Unlock()
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if err := enc.Encode(f); err == nil && flusher != nil {
			flusher.Flush()
		}
	}
	var progress func(ingest.Stats)
	if fullDuplex {
		progress = func(p ingest.Stats) { writeFrame(streamFrame{Stats: p}) }
	}
	collection := r.URL.Query().Get("collection")
	ctx := serve.WithTenant(r.Context(), collection)
	st, err := c.IngestStreamIn(ctx, collection, r.Body, progress)
	mu.Lock()
	headerSent := wrote
	mu.Unlock()
	if err != nil && !headerSent {
		// Nothing on the wire yet — shed/unavailable/bad-stream errors
		// can still use a proper status code.
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	final := streamFrame{Stats: st, Done: true}
	if err != nil {
		final.Error = err.Error()
	}
	writeFrame(final)
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Query      string            `json:"query"`
		K          int               `json:"k"`
		Collection string            `json:"collection"`
		Filter     map[string]string `json:"filter"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty query"))
		return
	}
	if req.K <= 0 {
		req.K = 3
	}
	ctx := serve.WithTenant(r.Context(), req.Collection)
	f := vecdb.Filter{Collection: req.Collection, Meta: req.Filter}
	hits, err := c.SearchFiltered(ctx, req.Query, req.K, f)
	if err != nil {
		writeError(w, statusFor(err, http.StatusInternalServerError), err)
		return
	}
	type hitJSON struct {
		ID         int64   `json:"id"`
		Score      float64 `json:"score"`
		Text       string  `json:"text"`
		Collection string  `json:"collection,omitempty"`
	}
	out := make([]hitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, hitJSON{ID: h.ID, Score: h.Score, Text: h.Text, Collection: h.Collection})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"hits": out})
}

// handleDocument serves GET and DELETE on /documents/{id}. Absent IDs
// are 404 via the serving layer's typed ErrNotFound.
func (s *server) handleDocument(w http.ResponseWriter, r *http.Request) {
	c := s.ready(w)
	if c == nil {
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/documents/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad document id %q", idStr))
		return
	}
	collection := r.URL.Query().Get("collection")
	ctx := serve.WithTenant(r.Context(), collection)
	switch r.Method {
	case http.MethodGet:
		doc, err := c.GetDocument(ctx, id)
		if err != nil {
			writeError(w, statusFor(err, http.StatusInternalServerError), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]interface{}{
			"id": doc.ID, "collection": doc.Collection, "text": doc.Text, "meta": doc.Meta,
		})
	case http.MethodDelete:
		if err := c.DeleteDocumentIn(ctx, collection, id); err != nil {
			writeError(w, statusFor(err, http.StatusInternalServerError), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int64{"deleted": id})
	default:
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or DELETE required"))
	}
}

// handleCheckpoint forces a checkpoint of every dirty shard — the
// operator's knob before a planned restart or shard migration.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	if err := c.Checkpoint(); err != nil {
		// A memory-only server is the caller's mistake (400); a failing
		// checkpoint on a durable server is a server fault (500).
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrNoDataDir) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Stats().Persist)
}

// handleResync forces one synchronous anti-entropy sweep — the
// operator's knob to repair a just-restarted replica immediately
// instead of waiting for the background resync interval.
func (s *server) handleResync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	if err := c.Resync(r.Context()); err != nil {
		// Resync on a non-cluster server is the caller's mistake (400);
		// a repair that failed mid-sweep is reported as a server fault,
		// with the next sweep (or retry) picking it back up.
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrNoCluster) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Stats().Cluster)
}

// handleRebalance moves one shard onto a new node with zero downtime
// (see docs/rebalancing.md). Body:
//
//	{"shard": 1, "target": "http://10.0.0.9:9001"}        start and return
//	{"shard": 1, "target": "...", "wait": true}           block until done
//	{"dry_run": true}                                     planner only
//
// Starting errors map to the caller: 400 for a non-cluster server or
// a bad shard/target, 409 when a migration is already running. A
// migration that starts and later aborts is reported through the
// returned status ("outcome":"aborted") or /stats, not an HTTP error
// — the abort path restoring the old assignment is the operation
// working as designed.
func (s *server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Shard  *int   `json:"shard"`
		Target string `json:"target"`
		DryRun bool   `json:"dry_run"`
		Wait   bool   `json:"wait"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.DryRun {
		plan, err := c.PlanRebalance(r.Context())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, plan)
		return
	}
	if req.Shard == nil || req.Target == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard and target are required (or dry_run)"))
		return
	}
	st, err := c.Rebalance(r.Context(), *req.Shard, req.Target, req.Wait)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, cluster.ErrMigrationActive) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// verdictJSON is the wire form of a core.Verdict.
type verdictJSON struct {
	Score     float64        `json:"score"`
	Trusted   bool           `json:"trusted"`
	Sentences []sentenceJSON `json:"sentences"`
}

type sentenceJSON struct {
	Sentence string             `json:"sentence"`
	Combined float64            `json:"combined"`
	Raw      map[string]float64 `json:"raw"`
}

func toVerdictJSON(v core.Verdict, trusted bool) verdictJSON {
	out := verdictJSON{Score: v.Score, Trusted: trusted}
	for _, s := range v.Sentences {
		out.Sentences = append(out.Sentences, sentenceJSON{
			Sentence: s.Sentence, Combined: s.Combined, Raw: s.Raw,
		})
	}
	return out
}

func (s *server) handleAsk(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Question   string `json:"question"`
		Collection string `json:"collection"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Question == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty question"))
		return
	}
	ans, err := c.AskIn(serve.WithTenant(r.Context(), req.Collection), req.Collection, req.Question)
	if err != nil {
		writeError(w, statusFor(err, http.StatusInternalServerError), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"question": ans.Question,
		"context":  ans.Context,
		"response": ans.Response,
		"verdict":  toVerdictJSON(ans.Verdict, ans.Trusted),
	})
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	c := s.ready(w)
	if c == nil {
		return
	}
	var req struct {
		Question   string `json:"question"`
		Context    string `json:"context"`
		Response   string `json:"response"`
		Collection string `json:"collection"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := c.Verify(serve.WithTenant(r.Context(), req.Collection), req.Question, req.Context, req.Response)
	if err != nil {
		writeError(w, statusFor(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, toVerdictJSON(v, v.IsCorrect(c.Threshold())))
}
