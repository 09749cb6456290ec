// Command shardnode serves one shard of a multi-node cluster over the
// compact JSON-over-HTTP shard protocol (see docs/cluster.md). It is
// the unit that moves when a sharded corpus outgrows one process: the
// same per-shard durable state a single ragserver keeps under
// -data-dir — one WAL plus one checkpoint — now owned by its own
// process on its own node, with a routing ragserver (-cluster
// nodes.json) fanning queries out across many of them.
//
// Endpoints:
//
//	POST /shard/search          — vector top-k over this shard
//	POST /shard/apply           — grouped mutations (adds, deletes)
//	GET  /shard/documents/{id}  — point read
//	GET  /shard/stat            — doc count, ID high-water mark, seq, checksum
//	GET  /shard/mutations       — journaled delta since a seq (410 when truncated)
//	POST /shard/resync          — apply a delta shipped by the router's resync manager
//	GET  /shard/snapshot        — full doc set + seq (snapshot-transfer source)
//	POST /shard/snapshot        — adopt a full doc set + seq (snapshot-transfer target)
//	GET  /shard/epoch           — ring epoch + serving flag the node holds
//	POST /shard/epoch           — install a newer ring (rebalance cutover / retirement)
//	GET  /healthz               — liveness (always 200 once listening)
//	GET  /readyz                — 200 only after WAL recovery completes
//	GET  /stats                 — node snapshot: docs, seq/checksum, index config, persistence
//	GET  /metrics               — Prometheus text exposition
//	GET  /debug/traces          — captured span trees (stitched under the router's traceparent)
//
// The listener comes up before recovery: a router probing /readyz
// keeps routing around the node until its WAL is replayed, then
// half-open recovery returns it to service automatically.
//
// Requests run the same telemetry middleware chain as ragserver: the
// router's X-Request-ID hop header is adopted into the node's metrics
// and -log-requests lines (so one user query is traceable across the
// cluster), and X-Deadline-Ms becomes a context deadline so work for
// an upstream that already gave up cancels. /metrics carries the
// node-side stage histograms (shard_search, wal_append, wal_fsync,
// checkpoint). /debug/traces keeps the node half of every 5xx and of
// every request slower than -slo-latency, plus 1 in -trace-sample of
// the rest. See docs/observability.md.
//
// The node's vector index takes the same -index / -quantize /
// -rerank-k / -nprobe / -ef-search flags as ragserver (validated at
// startup, echoed in GET /stats); a cluster normally runs the same
// configuration on every node. See docs/vector.md.
//
// Usage:
//
//	shardnode [-addr :9001] [-data-dir ""] [-dim 256]
//	          [-index flat|ivf|hnsw] [-quantize none|int8] [-rerank-k 0]
//	          [-nprobe 8] [-ef-search 64]
//	          [-fsync never|always|interval] [-checkpoint-every 30s]
//	          [-trace-capacity 256] [-trace-sample 16] [-slo-latency 200ms]
//	          [-log-requests] [-debug-addr ""]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"

	// Registers the profiling handlers on http.DefaultServeMux, which
	// only the optional -debug-addr listener serves.
	_ "net/http/pprof"
)

func main() {
	var (
		addr        = flag.String("addr", ":9001", "listen address")
		dataDir     = flag.String("data-dir", "", "directory for this shard's WAL and checkpoints (empty = memory-only)")
		dim         = flag.Int("dim", 256, "embedding width (must match the routing server)")
		indexKind   = flag.String("index", "flat", "vector index: flat, ivf, or hnsw")
		quantize    = flag.String("quantize", "none", "stored-vector representation: none (float32) or int8 (quantized scan + exact re-rank)")
		rerankK     = flag.Int("rerank-k", 0, "quantized-scan candidates re-scored exactly per query (0 = 4×k)")
		nprobe      = flag.Int("nprobe", 0, "IVF clusters probed per query (0 = default 8)")
		efSearch    = flag.Int("ef-search", 0, "HNSW query beam width (0 = default 64)")
		fsync       = flag.String("fsync", "never", "WAL fsync policy: never, always, or interval")
		ckEvery     = flag.Duration("checkpoint-every", 30*time.Second, "background checkpoint period (negative disables)")
		logRequests = flag.Bool("log-requests", false, "log one structured line per completed request")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		traceCap    = flag.Int("trace-capacity", 256, "captured traces retained in memory for /debug/traces")
		traceSample = flag.Int("trace-sample", 16, "keep 1 in N healthy traces (5xx and requests slower than -slo-latency are always kept; negative = only those)")
		sloLatency  = flag.Duration("slo-latency", 200*time.Millisecond, "always keep the trace of a request slower than this, as reason slo_breach (0 disables)")
	)
	flag.Parse()
	policy, err := storage.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shardnode:", err)
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
		fmt.Fprintln(os.Stderr, "shardnode:", err)
		os.Exit(1)
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "shardnode",
		telemetry.L("index", *indexKind), telemetry.L("quantize", *quantize))
	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		Capacity:    *traceCap,
		SampleEvery: *traceSample,
		SlowerThan:  *sloLatency,
		Exempt:      []string{"/healthz", "/readyz"},
	})
	tracer.Register(reg)
	node := &nodeState{reg: reg}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           nodeRoutes(node, reg, tracer, *logRequests),
		ReadHeaderTimeout: 5 * time.Second,
	}
	initDone := make(chan error, 1)
	go func() { initDone <- node.open(*dataDir, *dim, indexCfg, policy, *ckEvery) }()
	log.Printf("shardnode listening on %s", *addr)
	if *debugAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("shardnode: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "shardnode:", err)
		os.Exit(1)
	case err := <-initDone:
		if err != nil {
			fmt.Fprintln(os.Stderr, "shardnode:", err)
			os.Exit(1)
		}
		select {
		case err := <-errCh:
			fmt.Fprintln(os.Stderr, "shardnode:", err)
			os.Exit(1)
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining connections and checkpointing")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		log.Printf("shardnode: http shutdown: %v", err)
	}
	if st := node.store.Load(); st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "shardnode: close:", err)
			os.Exit(1)
		}
	}
}

// nodeRoutes mounts /metrics beside the shard protocol handler and
// wraps everything in the telemetry middleware chain — the same order
// as ragserver, so a request ID minted at the router is adopted here
// and the router's X-Deadline-Ms hop header bounds node-side work.
func nodeRoutes(node *nodeState, reg *telemetry.Registry, tracer *telemetry.Tracer, logRequests bool) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/traces", tracer.Handler(reg))
	mux.HandleFunc("/stats", node.handleStats)
	nh := cluster.NewNodeHandler(node, node.ready)
	node.handler = nh
	mux.Handle("/", nh)
	return telemetry.Chain(mux,
		telemetry.RequestID(),
		telemetry.Tracing(tracer, nodeRouteLabel),
		telemetry.Metrics(reg, nodeRouteLabel),
		telemetry.RequestLog(logRequests, nodeRouteLabel, node.shardCount),
		telemetry.Deadline(0),
		telemetry.Recover(reg),
	)
}

// nodeRouteLabel maps shard-protocol paths to bounded metric labels.
func nodeRouteLabel(r *http.Request) string {
	p := r.URL.Path
	if strings.HasPrefix(p, "/shard/documents/") {
		return "/shard/documents/{id}"
	}
	switch p {
	case "/shard/search", "/shard/apply", "/shard/stat", "/shard/mutations",
		"/shard/resync", "/shard/snapshot", "/shard/epoch",
		"/healthz", "/readyz", "/stats", "/metrics",
		"/debug/traces":
		return p
	}
	return "other"
}

// nodeState adapts an asynchronously-opened one-shard ShardedDB to
// cluster.NodeStore. The node handler gates every data endpoint on
// ready(), so the delegating methods never observe a nil store.
type nodeState struct {
	store atomic.Pointer[serve.ShardedDB]
	reg   *telemetry.Registry
	// handler is the shard-protocol handler, kept so /stats can echo
	// the ring epoch the node currently holds (set once in nodeRoutes,
	// before the listener starts).
	handler *cluster.NodeHandler
}

func (n *nodeState) ready() bool { return n.store.Load() != nil }

// shardCount feeds the request log: one shard once recovery is done.
func (n *nodeState) shardCount() int {
	if n.ready() {
		return 1
	}
	return 0
}

// open builds the shard store: durable (checkpoint + WAL recovery)
// under dataDir, memory-only without. One shard — the routing layer
// above owns the hash ring.
func (n *nodeState) open(dataDir string, dim int, ic serve.IndexConfig, policy storage.SyncPolicy, ckEvery time.Duration) error {
	var (
		st  *serve.ShardedDB
		err error
	)
	if dataDir != "" {
		st, err = serve.OpenShardedWithIndex(dataDir, 1, dim, ic, serve.PersistConfig{
			Fsync:           policy,
			CheckpointEvery: ckEvery,
			Telemetry:       n.reg,
		})
	} else {
		st, err = serve.NewShardedWithIndex(1, dim, ic)
	}
	if err != nil {
		return err
	}
	st.SetTelemetry(n.reg)
	if dataDir != "" {
		log.Printf("recovered %d docs from %s (replayed %d WAL records)",
			st.Len(), dataDir, st.PersistStats().ReplayedRecords)
	}
	n.store.Store(st)
	ec := st.IndexStats().Config
	log.Printf("ready: serving %d docs (dim=%d index=%s quantize=%s durable=%v)",
		st.Len(), dim, ec.Kind, ec.Quantize, dataDir != "")
	return nil
}

// handleStats is the node-local snapshot: document count, replication
// position (seq + checksum), the index configuration in force, and
// durability counters — the single-node analogue of ragserver's much
// larger /stats.
func (n *nodeState) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, `{"error":"GET required"}`, http.StatusMethodNotAllowed)
		return
	}
	st := n.store.Load()
	if st == nil {
		http.Error(w, `{"error":"starting: recovery in progress"}`, http.StatusServiceUnavailable)
		return
	}
	out := struct {
		Docs        int                `json:"docs"`
		Collections map[string]int     `json:"collections,omitempty"`
		Seq         uint64             `json:"seq"`
		Checksum    string             `json:"checksum"`
		Index       serve.IndexStats   `json:"index"`
		Persist     serve.PersistStats `json:"persist"`
		// RingEpoch/Serving echo the ring update the node holds: epoch 0
		// and serving=true until a router pushes one via /shard/epoch.
		RingEpoch uint64 `json:"ring_epoch"`
		Serving   bool   `json:"serving"`
	}{
		Docs:        st.Len(),
		Collections: st.CollectionCounts(),
		Seq:         st.Seq(),
		Checksum:    fmt.Sprintf("%016x", st.Checksum()),
		Index:       st.IndexStats(),
		Persist:     st.PersistStats(),
		Serving:     true,
	}
	if up, ok := n.handler.Ring(); ok {
		out.RingEpoch = up.Epoch
		out.Serving = up.Serving
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		log.Printf("shardnode: encode stats: %v", err)
	}
}

func (n *nodeState) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	return n.store.Load().SearchVectorFiltered(vec, k, f)
}

func (n *nodeState) CollectionCounts() map[string]int {
	return n.store.Load().CollectionCounts()
}

func (n *nodeState) ApplyAll(ms []vecdb.Mutation) error {
	return n.store.Load().ApplyAll(ms)
}

func (n *nodeState) Get(id int64) (vecdb.Document, error) {
	return n.store.Load().Get(id)
}

func (n *nodeState) Len() int { return n.store.Load().Len() }

func (n *nodeState) NextID() int64 { return n.store.Load().NextID() }

func (n *nodeState) Seq() uint64 { return n.store.Load().Seq() }

func (n *nodeState) Checksum() uint64 { return n.store.Load().Checksum() }

func (n *nodeState) MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error) {
	return n.store.Load().MutationsSince(since, max)
}

func (n *nodeState) ApplyResync(ms []vecdb.SeqMutation) error {
	return n.store.Load().ApplyResync(ms)
}

func (n *nodeState) SnapshotDocs() (uint64, []vecdb.Document, error) {
	return n.store.Load().SnapshotDocs()
}

func (n *nodeState) ApplySnapshot(seq uint64, docs []vecdb.Document) error {
	return n.store.Load().ApplySnapshot(seq, docs)
}

var _ cluster.NodeStore = (*nodeState)(nil)
