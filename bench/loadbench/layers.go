package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/vecdb"
)

// serverStats is the part of ragserver's /stats the layer table reads.
type serverStats struct {
	EmbedCache   cacheCounts `json:"embed_cache"`
	VerdictCache cacheCounts `json:"verdict_cache"`
	Batch        struct {
		Batches uint64 `json:"batches"`
		Items   uint64 `json:"items"`
		Tuner   struct {
			Limit int `json:"limit"`
		} `json:"tuner"`
	} `json:"batch"`
	IngestStream struct {
		ThrottleEvents uint64 `json:"throttle_events"`
	} `json:"ingest_stream"`
	Cluster struct {
		Router cluster.RouterStats `json:"router"`
	} `json:"cluster"`
}

type cacheCounts struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

func hitRatio(before, after cacheCounts) float64 {
	h, m := after.Hits-before.Hits, after.Misses-before.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// scrape reads ragserver's /stats and sums the stage histograms of
// every process's /metrics.
func scrape(c *http.Client, st *stack) (serverStats, map[string]float64, error) {
	var s serverStats
	raw, err := get(c, st.base+"/stats")
	if err != nil {
		return s, nil, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, nil, fmt.Errorf("parse /stats: %w", err)
	}
	series := map[string]float64{}
	for _, p := range st.procs() {
		raw, err := get(c, "http://"+p.addr+"/metrics")
		if err != nil {
			return s, nil, err
		}
		addStageSeries(series, raw)
	}
	return s, series, nil
}

var stageLine = regexp.MustCompile(`^(stage_duration_seconds|backend_request_duration_seconds)_(sum|count)\{([^}]*)\} (\S+)$`)
var stageLabel = regexp.MustCompile(`(?:stage|op)="([^"]+)"`)

// addStageSeries accumulates the _sum and _count of every stage (and
// shard-RPC op) histogram in a Prometheus text exposition, keyed
// "<stage>_sum" / "<stage>_count" ("backend_<op>_…" for RPCs).
func addStageSeries(into map[string]float64, exposition []byte) {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := stageLine.FindSubmatch(sc.Bytes())
		if m == nil {
			continue
		}
		l := stageLabel.FindSubmatch(m[3])
		v, err := strconv.ParseFloat(string(m[4]), 64)
		if l == nil || err != nil {
			continue
		}
		key := string(l[1])
		if string(m[1]) == "backend_request_duration_seconds" {
			key = "backend_" + key
		}
		into[key+"_"+string(m[2])] += v
	}
}

// stageMeanMS is the mean duration of a stage over the window, from
// the histogram's sum and count deltas.
func stageMeanMS(before, after map[string]float64, stage string) float64 {
	n := after[stage+"_count"] - before[stage+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[stage+"_sum"] - before[stage+"_sum"]) / n * 1000
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanSpanMS is the mean duration of the spans with the given name.
func meanSpanMS(spans []span, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, ms(time.Duration(s.End-s.Start)))
		}
	}
	return mean(ds)
}

// runTraced is the -trace 1 run. It first drives the real binaries
// through the same window as an untraced run (after a single set-up)
// to take the end-to-end p50 and the binaries' own counters, kills and
// restarts them to time recovery, then rebuilds the stack in-process
// and replays the first half of the window through timing decorators.
func runTraced(o options, sup *supervisor) (*runReport, error) {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return nil, err
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	sc, err := newScenario(o.workload, sz, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	c := newConns(maxConns())
	defer c.close()
	st, _, _, err := setUp(o, sc, sup, c, true) // one set-up: it is not what this run measures
	if err != nil {
		return nil, err
	}
	stats0, series0, err := scrape(c[0], st)
	if err != nil {
		return nil, err
	}
	w, err := measure(sc, st, c)
	if err != nil {
		return nil, err
	}
	stats1, series1, err := scrape(c[0], st)
	if err != nil {
		return nil, err
	}
	e2e, err := judge(o, sc, st, c, w)
	if err != nil {
		return nil, err
	}
	// Recovery is timed layer by layer on a copy of what the servers
	// left on disk, then once for real to see what the processes add.
	var roots []string
	for i, p := range st.procs() {
		dir := filepath.Join(st.dir, "data")
		if p != st.front {
			dir = filepath.Join(st.dir, p.name)
		} else if len(st.nodes) > 0 {
			continue
		}
		dst := filepath.Join(o.work, fmt.Sprintf("copy-%d", i))
		if err := copyTree(dir, dst); err != nil {
			return nil, err
		}
		roots = append(roots, dst)
	}
	loadMS, replayMS, records, err := recoverTimes(roots)
	if err != nil {
		return nil, fmt.Errorf("recover copy: %w", err)
	}
	recoveries, err := recoverCycles(sc, st, c, o.smoke)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# recoveries %.3v s\n", recoveries)
	if err := st.destroy(); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	ops := float64(len(w.reqs))
	m["serve.embed_cache_hit_ratio"] = hitRatio(stats0.EmbedCache, stats1.EmbedCache)
	m["serve.verdict_cache_hit_ratio"] = hitRatio(stats0.VerdictCache, stats1.VerdictCache)
	if b := stats1.Batch.Batches - stats0.Batch.Batches; b > 0 {
		m["serve.batch_occupancy"] = float64(stats1.Batch.Items-stats0.Batch.Items) / float64(b)
	}
	m["adaptive.batch_limit"] = float64(stats1.Batch.Tuner.Limit)
	m["ingest.throttle_waits"] = float64(stats1.IngestStream.ThrottleEvents - stats0.IngestStream.ThrottleEvents)
	m["cluster.hedges"] = float64(stats1.Cluster.Router.Hedges - stats0.Cluster.Router.Hedges)
	m["cluster.retries"] = float64(stats1.Cluster.Router.ReadRetries - stats0.Cluster.Router.ReadRetries)
	m["cluster.failovers"] = float64(stats1.Cluster.Router.Failovers - stats0.Cluster.Router.Failovers)
	m["proc.ragserver_cpu_ms_per_op"] = w.cpu["ragserver"] * 1000 / ops
	m["proc.shardnode_cpu_ms_per_op"] = w.cpu["shardnode"] * 1000 / ops
	for _, stage := range []string{"embed", "shard_fanout", "shard_search", "merge", "verify_wait", "verify_exec", "wal_append", "checkpoint", "ingest_chunk", "backend_search"} {
		m["stage."+stage+"_mean_ms"] = stageMeanMS(series0, series1, stage)
	}
	// The window's timings are per-layer metrics, not end-to-end ones:
	// they do not repeat within a bound worth gating on (README).
	e2eP50 := e2e.values["latency_p50_ms"]
	for _, name := range []string{"latency_p50_ms", "latency_p90_ms", "latency_p99_ms", "cpu_ms_per_op", "rss_peak_mb"} {
		m["e2e."+name] = e2e.values[name]
	}
	m["loadgen.max_late_ms"] = ms(w.maxLate)
	m["loadgen.cpu_share"] = w.selfCPU / w.elapsed
	m["recover.load_ms"], m["recover.replay_ms"], m["recover.replayed_records"] = loadMS, replayMS, float64(records)

	if err := tracedLayers(o, sc, w.reqs, m, e2eP50); err != nil {
		return nil, err
	}
	m["recover.recovery_s"] = median(recoveries)
	m["recover.process_ms"] = median(recoveries)*1000 - loadMS - replayMS - m["recover.calibrate_ms"]

	rep := &runReport{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Attempted: e2e.Attempted,
		OK: e2e.OK, Failed: e2e.Failed, Late: e2e.Late, Samples: e2e.Samples, values: m}
	return rep, rep.report(spec.PerLayer, true)
}

// tracedLayers builds the in-process stack, replays the first half of
// the window's requests through it and fills in the metrics timed from
// outside.
func tracedLayers(o options, sc scenario, window []request, m map[string]float64, e2eP50 float64) error {
	ip, err := buildInproc(sc.spec(), filepath.Join(o.work, "inproc"))
	if err != nil {
		return err
	}
	defer ip.close()
	m["recover.calibrate_ms"] = ip.calibrateMS

	// Corpus, then the storage numbers that depend only on it.
	for _, q := range sc.corpus() {
		if _, err := ip.exec(q); err != nil {
			return err
		}
	}
	docs := ip.sv.Store().Len()
	walBytes, err := dirBytes(ip.dataDirs, "/wal/")
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := ip.checkpoint(); err != nil {
		return err
	}
	m["storage.checkpoint_ms"] = ms(time.Since(t0))
	ckBytes, err := dirBytes(ip.dataDirs, "checkpoint.snap")
	if err != nil {
		return err
	}
	// The seed-demo handbook is in the store (and its WAL) too.
	m["storage.wal_bytes_per_doc"] = float64(walBytes) / float64(docs)
	m["storage.checkpoint_bytes_per_doc"] = float64(ckBytes) / float64(docs)

	for _, q := range sc.warmup() {
		if _, err := ip.exec(q); err != nil {
			return err
		}
	}
	// The first half of the window: enough requests for stable shares,
	// and a cut that depends on the schedule alone, so the counts per
	// query repeat exactly.
	var half, rest []request
	for _, q := range window {
		switch {
		case q.path == "/admin/checkpoint":
		case q.due < time.Duration(o.seconds/2*float64(time.Second)):
			half = append(half, q)
		default:
			rest = append(rest, q)
		}
	}
	rs, err := ip.replay(half)
	if err != nil {
		return err
	}
	ip.tr.mu.Lock()
	spans := append([]span(nil), ip.tr.spans...)
	ip.tr.mu.Unlock()

	queryRoots := map[string]bool{spanSearch: true, spanAsk: true, spanVerify: true}
	qb := analyse(spans, queryRoots)
	var untraced, traced []float64
	for kind := range queryRoots {
		untraced = append(untraced, rs.untraced[kind]...)
		traced = append(traced, rs.traced[kind]...)
	}
	p50 := median(untraced)
	layer := func(names ...string) float64 { return qb.share(names...) * p50 }
	m["vecdb.index_search_ms"] = layer(spanIndexSearch)
	m["vecdb.embed_ms"] = layer(spanEmbed)
	if sc.spec().nodes == 0 {
		m["serve.fanout_self_ms"] = layer(spanStoreSearch)
	} else {
		m["cluster.router_search_ms"] = layer(spanStoreSearch)
	}
	m["cluster.rpc_ms"] = layer(spanRPC)
	m["rag.generate_ms"] = layer(spanGenerate)
	m["splitter.split_ms"] = layer(spanSplit)
	m["slm.yes_probability_ms"] = layer(spanModel)
	m["unattributed_ms"] = layer(spanSearch, spanAsk, spanVerify)
	m["http.overhead_ms"] = e2eP50 - p50
	m["serve.search_ms"] = median(rs.untraced[spanSearch])
	m["serve.ask_ms"] = median(rs.untraced[spanAsk])
	m["serve.verify_ms"] = median(rs.untraced[spanVerify])
	if mu := mean(untraced); mu > 0 {
		m["trace.overhead_ratio"] = mean(traced) / mu
	}
	if rs.queries > 0 {
		n := float64(rs.queries)
		m["vecdb.rows_scanned_per_query"] = float64(ip.idx.rows.Load()) / n
		m["vecdb.index_searches_per_query"] = float64(ip.idx.searches.Load()) / n
		if ip.rt != nil {
			m["cluster.rpc_bytes_per_query"] = float64(ip.rt.bytes.Load()) / n
		}
	}
	fmt.Printf("# in-process p50 %.3f ms = layers %.3f + unattributed %.3f; + http.overhead %.3f = end-to-end p50 %.3f ms (%d traced queries, %d spans)\n",
		p50, p50-m["unattributed_ms"], m["unattributed_ms"], m["http.overhead_ms"], e2eP50, qb.requests, len(spans))

	// The binaries time some of the same stages themselves; say where
	// the two disagree (cross-check only: the binaries' means are taken
	// under two connections' load, the replay's one request at a time).
	for _, pair := range [][2]string{{"shard_fanout", spanStoreSearch}, {"backend_search", spanRPC}} {
		own, outside := m["stage."+pair[0]+"_mean_ms"], meanSpanMS(spans, pair[1])
		if own > 0 && outside > 0 && (own > 1.2*outside || outside > 1.2*own) {
			fmt.Printf("# cross-check: the binaries' %s timer averages %.3f ms, the %s spans %.3f ms\n", pair[0], own, pair[1], outside)
		}
	}

	// The ingest request's own budget.
	ib := analyse(spans, map[string]bool{spanIngest: true})
	if ib.requests > 0 {
		m["ingest.request_ms"] = mean(rs.untraced[spanIngest])
		m["ingest.pipeline_self_ms"] = ib.perRequestMS(spanIngest)
		m["ingest.add_bulk_ms"] = ib.perRequestMS(spanStoreAdd)
		m["ingest.embed_ms"] = ib.perRequestMS(spanEmbed)
		m["vecdb.index_add_ms"] = ib.perRequestMS(spanIndexAdd)
		if calls := ib.calls[spanStoreAdd]; calls > 0 {
			m["ingest.batch_docs"] = float64(rs.ingestDocs) / float64(calls)
		}
		var ing, all float64
		for kind, ds := range rs.untraced {
			for _, d := range append(ds, rs.traced[kind]...) {
				all += d
				if kind == spanIngest {
					ing += d
				}
			}
		}
		m["ingest.time_share"] = ing / all
		for _, q := range half {
			if !q.query {
				if m["ingest.parse_chunk_ms"], err = parseChunkMS(q.body); err != nil {
					return err
				}
				break
			}
		}
	}
	if err := directTimings(o, sc, ip, half, rest, m); err != nil {
		return err
	}
	if o.traceOut != "" {
		return writeTrace(o.traceOut, o.workload, o.seed, spans)
	}
	return nil
}

// directTimings calls single layers directly, outside the server, on
// requests of the window's second half that the replay (and the
// warm-up before it) has not sent, so nothing about them is cached
// anywhere yet.
func directTimings(o options, sc scenario, ip *inproc, replayed, rest []request, m map[string]float64) error {
	ctx := context.Background()
	// Detector.Score on first-time /verify triples.
	var triples int
	var scoreMS float64
	before := ip.models.Load()
	seen := map[string]bool{}
	for _, q := range append(sc.warmup(), replayed...) {
		seen[string(q.body)] = true
	}
	for _, q := range rest {
		if q.path != "/verify" || seen[string(q.body)] || triples == 40 {
			continue
		}
		seen[string(q.body)] = true
		var b struct{ Question, Context, Response string }
		if err := json.Unmarshal(q.body, &b); err != nil {
			return err
		}
		// Spans on so the decorated models count their calls; the spans
		// themselves fall outside every request and are ignored.
		ip.tr.req.Store(-1)
		ip.tr.on.Store(true)
		t0 := time.Now()
		_, err := ip.det.Score(ctx, b.Question, b.Context, b.Response)
		scoreMS += ms(time.Since(t0))
		ip.tr.on.Store(false)
		if err != nil {
			return err
		}
		triples++
	}
	if triples > 0 {
		m["core.score_ms"] = scoreMS / float64(triples)
		m["slm.calls_per_triple"] = float64(ip.models.Load()-before) / float64(triples)
	}
	// One shard hop over HTTP against the same call in-process, and the
	// merge of the per-shard lists.
	if len(ip.remote) > 0 {
		var vecs [][]float32
		for _, q := range rest {
			if len(vecs) == 100 {
				break
			}
			var b struct{ Query string }
			if err := json.Unmarshal(q.body, &b); err != nil {
				return err
			}
			v, err := ip.sv.Store().Embedder().Embed(b.Query)
			if err != nil {
				return err
			}
			vecs = append(vecs, v)
		}
		timeAll := func(bs []cluster.Backend) (float64, [][]vecdb.Hit, error) {
			var lists [][]vecdb.Hit
			t0 := time.Now()
			for _, v := range vecs {
				for _, b := range bs {
					hits, err := b.SearchVector(ctx, v, searchK, vecdb.Filter{})
					if err != nil {
						return 0, nil, err
					}
					lists = append(lists, hits)
				}
			}
			return ms(time.Since(t0)) / float64(len(vecs)*len(bs)), lists, nil
		}
		remoteMS, lists, err := timeAll(ip.remote)
		if err != nil {
			return err
		}
		localMS, _, err := timeAll(ip.local)
		if err != nil {
			return err
		}
		m["cluster.hop_overhead_ms"] = remoteMS - localMS
		n := len(ip.remote)
		t0 := time.Now()
		for i := 0; i+n <= len(lists); i += n {
			cluster.MergeTopK(lists[i:i+n], searchK)
		}
		m["cluster.merge_ms"] = ms(time.Since(t0)) / float64(len(lists)/n)
	}
	// WAL append on the journal payloads of one ingest batch.
	if g, ok := sc.(*ingestBeside); ok {
		us, err := walAppendUS(filepath.Join(o.work, "wal-probe"), g.live[:g.sz.ingestBatch])
		if err != nil {
			return err
		}
		m["storage.wal_append_us"] = us
	}
	return nil
}
