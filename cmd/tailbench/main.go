// Command tailbench measures what hedged reads buy at the tail. It
// builds an in-process cluster — shards × (primary + replica) real
// stores behind chaos-wrapped local backends — arms a deterministic
// latency spike on every primary (every Nth search stalls, modeling
// the occasional GC pause or noisy neighbor that tail-latency
// literature hedges against), then runs the same query stream twice
// through a cluster.Router: once with resilience disabled, once with
// hedging armed. Because the spike is counter-based, both runs hit
// identical stalls, so the p50/p95/p99 delta isolates the hedging
// policy itself rather than scheduler luck.
//
// Results merge into a JSON file (-out BENCH_tail.json) under a
// "full" or "smoke" section, so the committed benchmark and the CI
// smoke gate share one artifact. -check exits non-zero unless the
// hedged p99 stays at or below the unhedged p99 — a
// machine-independent assertion (both runs share the machine), which
// is what CI gates on.
//
// Usage:
//
//	tailbench [-smoke] [-check] [-out BENCH_tail.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/serve"
	"repro/internal/vecdb"
)

const dim = 64

// params fixes one benchmark configuration. Smoke mode shrinks the
// stream and the stall so the CI gate finishes in a couple of
// seconds; the spike *rate* stays the same so the tail shape matches
// the full run.
type params struct {
	Shards       int   `json:"shards"`
	Docs         int   `json:"docs"`
	Queries      int   `json:"queries"`
	TopK         int   `json:"topk"`
	SpikeEvery   int   `json:"spike_every"`
	SpikeMs      int64 `json:"spike_ms"`
	HedgeAfterMs int64 `json:"hedge_after_ms"`
}

func fullParams() params {
	return params{Shards: 4, Docs: 400, Queries: 2000, TopK: 5, SpikeEvery: 20, SpikeMs: 40, HedgeAfterMs: 5}
}

func smokeParams() params {
	return params{Shards: 4, Docs: 120, Queries: 300, TopK: 5, SpikeEvery: 20, SpikeMs: 25, HedgeAfterMs: 5}
}

// percentiles is one run's latency summary in milliseconds.
type percentiles struct {
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// runResult is one pass over the query stream.
type runResult struct {
	Hedging   bool        `json:"hedging"`
	Queries   int         `json:"queries"`
	Errors    int         `json:"errors"`
	Latency   percentiles `json:"latency"`
	Hedges    uint64      `json:"hedges"`
	HedgeWins uint64      `json:"hedge_wins"`
	Failovers uint64      `json:"failovers"`
	SpikesHit uint64      `json:"spikes_hit"`
}

// section pairs the unhedged and hedged passes for one configuration.
type section struct {
	Params     params    `json:"params"`
	Unhedged   runResult `json:"unhedged"`
	Hedged     runResult `json:"hedged"`
	P99Speedup float64   `json:"p99_speedup"`
}

// benchFile is the merged on-disk artifact: the committed full run
// plus the CI smoke run live side by side.
type benchFile struct {
	Generated string   `json:"generated"`
	Note      string   `json:"note"`
	Full      *section `json:"full,omitempty"`
	Smoke     *section `json:"smoke,omitempty"`
}

// harness is the in-process cluster the two passes share: the stores
// and chaos wrappers persist across runs, the router is rebuilt per
// pass with a different resilience policy.
type harness struct {
	p        params
	shards   []cluster.ShardBackends
	primarys []*clustertest.ChaosBackend
	embed    vecdb.Embedder
	stores   []*serve.ShardedDB
}

func buildHarness(p params) (*harness, error) {
	h := &harness{p: p}
	inner, err := vecdb.NewHashedEmbedder(dim)
	if err != nil {
		return nil, err
	}
	h.embed = inner
	for si := 0; si < p.Shards; si++ {
		var backends []cluster.Backend
		for r := 0; r < 2; r++ {
			st, err := serve.NewShardedWithIndex(1, dim, serve.IndexConfig{})
			if err != nil {
				return nil, err
			}
			h.stores = append(h.stores, st)
			lb, err := cluster.NewLocalBackend(fmt.Sprintf("s%d-%c", si, 'a'+r), st)
			if err != nil {
				return nil, err
			}
			ch := clustertest.Wrap(lb)
			if r == 0 {
				h.primarys = append(h.primarys, ch)
			}
			backends = append(backends, ch)
		}
		h.shards = append(h.shards, cluster.ShardBackends{
			Primary:  backends[0],
			Replicas: backends[1:],
		})
	}
	return h, nil
}

func (h *harness) close() {
	for _, st := range h.stores {
		st.Close()
	}
}

// ingest routes p.Docs documents through a plain router so primaries
// and replicas hold identical corpora.
func (h *harness) ingest(ctx context.Context) error {
	router, err := cluster.NewRouter(h.shards, cluster.HealthConfig{ResyncInterval: -1})
	if err != nil {
		return err
	}
	defer router.Close()
	groups := make([][]vecdb.Mutation, h.p.Shards)
	for i := 0; i < h.p.Docs; i++ {
		id := int64(i + 1)
		si := cluster.ShardIndex(id, h.p.Shards)
		groups[si] = append(groups[si], vecdb.Mutation{
			Op: vecdb.OpAdd, ID: id,
			Text: fmt.Sprintf("document %d covers topic %d and subtopic %d", id, i%17, i%5),
		})
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := router.Apply(ctx, si, g); err != nil {
			return err
		}
	}
	return nil
}

// run replays the query stream through a fresh router. The spike
// counters reset first so both passes stall on the same query
// indexes.
func (h *harness) run(ctx context.Context, hedging bool) (runResult, error) {
	res := cluster.ResilienceConfig{}
	if hedging {
		res.HedgeAfter = time.Duration(h.p.HedgeAfterMs) * time.Millisecond
	}
	router, err := cluster.NewRouter(h.shards, cluster.HealthConfig{
		ResyncInterval: -1,
		Resilience:     res,
	})
	if err != nil {
		return runResult{}, err
	}
	defer router.Close()

	var spikesBefore uint64
	for _, ch := range h.primarys {
		spikesBefore += ch.Spikes()
		ch.SetSpike(h.p.SpikeEvery, time.Duration(h.p.SpikeMs)*time.Millisecond)
	}

	out := runResult{Hedging: hedging, Queries: h.p.Queries}
	lats := make([]time.Duration, 0, h.p.Queries)
	for i := 0; i < h.p.Queries; i++ {
		vec, err := h.embed.Embed(fmt.Sprintf("which document covers topic %d", i%17))
		if err != nil {
			return runResult{}, err
		}
		qctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		start := time.Now()
		_, err = router.SearchVector(qctx, vec, h.p.TopK, vecdb.Filter{})
		lats = append(lats, time.Since(start))
		cancel()
		if err != nil {
			out.Errors++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	out.Latency = percentiles{
		P50Ms: pct(lats, 0.50),
		P95Ms: pct(lats, 0.95),
		P99Ms: pct(lats, 0.99),
		MaxMs: pct(lats, 1.00),
	}
	st := router.Stats()
	out.Hedges, out.HedgeWins, out.Failovers = st.Hedges, st.HedgeWins, st.Failovers
	for _, ch := range h.primarys {
		out.SpikesHit += ch.Spikes()
		ch.SetSpike(0, 0)
	}
	out.SpikesHit -= spikesBefore
	return out, nil
}

// pct reads the q-quantile from an ascending latency slice, in ms.
func pct(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1000.0
}

// merge folds sec into the existing artifact at path (or a fresh one)
// and writes it back.
func merge(path string, smoke bool, sec *section) error {
	var f benchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &f); err != nil {
			return fmt.Errorf("tailbench: existing %s is not a benchFile: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.Generated = time.Now().UTC().Format(time.RFC3339)
	f.Note = "Loaded-cluster tail-latency benchmark: same deterministic spike schedule replayed with hedging off, then on. Produced by cmd/tailbench; CI re-runs the smoke section and gates on hedged p99 <= unhedged p99."
	if smoke {
		f.Smoke = sec
	} else {
		f.Full = sec
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	var (
		smoke = flag.Bool("smoke", false, "small fast configuration for CI (results land in the artifact's smoke section)")
		check = flag.Bool("check", false, "exit non-zero unless hedged p99 <= unhedged p99")
		out   = flag.String("out", "", "merge results into this JSON artifact (empty = print to stdout only)")
	)
	flag.Parse()
	p := fullParams()
	if *smoke {
		p = smokeParams()
	}
	if err := runMain(p, *smoke, *check, *out); err != nil {
		fmt.Fprintln(os.Stderr, "tailbench:", err)
		os.Exit(1)
	}
}

func runMain(p params, smoke, check bool, out string) error {
	h, err := buildHarness(p)
	if err != nil {
		return err
	}
	defer h.close()
	ctx := context.Background()
	if err := h.ingest(ctx); err != nil {
		return err
	}
	// Warm both code paths (first-touch allocations) off
	// the record; run() re-arms the spike counters afterwards.
	if _, err := h.run(ctx, false); err != nil {
		return err
	}

	unhedged, err := h.run(ctx, false)
	if err != nil {
		return err
	}
	hedged, err := h.run(ctx, true)
	if err != nil {
		return err
	}
	sec := &section{Params: p, Unhedged: unhedged, Hedged: hedged}
	if hedged.Latency.P99Ms > 0 {
		sec.P99Speedup = unhedged.Latency.P99Ms / hedged.Latency.P99Ms
	}
	fmt.Printf("shards=%d queries=%d spike=1/%d×%dms hedge_after=%dms\n",
		p.Shards, p.Queries, p.SpikeEvery, p.SpikeMs, p.HedgeAfterMs)
	fmt.Printf("unhedged  p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms (spikes=%d errors=%d)\n",
		unhedged.Latency.P50Ms, unhedged.Latency.P95Ms, unhedged.Latency.P99Ms,
		unhedged.Latency.MaxMs, unhedged.SpikesHit, unhedged.Errors)
	fmt.Printf("hedged    p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms (hedges=%d wins=%d spikes=%d errors=%d)\n",
		hedged.Latency.P50Ms, hedged.Latency.P95Ms, hedged.Latency.P99Ms,
		hedged.Latency.MaxMs, hedged.Hedges, hedged.HedgeWins, hedged.SpikesHit, hedged.Errors)
	fmt.Printf("p99 speedup: %.2fx\n", sec.P99Speedup)
	if out != "" {
		if err := merge(out, smoke, sec); err != nil {
			return err
		}
		fmt.Printf("merged %s section into %s\n", map[bool]string{true: "smoke", false: "full"}[smoke], out)
	}
	if check {
		if unhedged.Errors > 0 || hedged.Errors > 0 {
			return fmt.Errorf("check failed: queries errored (unhedged=%d hedged=%d)", unhedged.Errors, hedged.Errors)
		}
		if hedged.Latency.P99Ms > unhedged.Latency.P99Ms {
			return fmt.Errorf("check failed: hedged p99 %.2fms > unhedged p99 %.2fms",
				hedged.Latency.P99Ms, unhedged.Latency.P99Ms)
		}
		fmt.Printf("check ok: hedged p99 %.2fms <= unhedged p99 %.2fms\n",
			hedged.Latency.P99Ms, unhedged.Latency.P99Ms)
	}
	return nil
}
