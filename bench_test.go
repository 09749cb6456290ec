// Package repro's root benchmark suite regenerates every table and
// figure of the paper's evaluation (§V) as Go benchmarks, plus the
// DESIGN.md §4 ablations. Each benchmark reports the figure's headline
// numbers as custom metrics (F1×1000, precision/recall×1000) so
// `go test -bench` output doubles as the reproduction record, and
// prints the full table once per run.
//
// The expensive part — scoring every response with every approach —
// runs once per process in shared setup; the timed loop measures the
// evaluation sweep (threshold search + metric computation), which is
// the part a practitioner reruns while exploring operating points.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/rag"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// benchItems keeps full-suite benchmarks tractable while covering all
// 16 topics several times; use cmd/experiments for the full n=120 run.
const benchItems = 64

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		set, err := dataset.Generate(20250612, benchItems)
		if err != nil {
			suiteErr = err
			return
		}
		suite = experiments.NewSuite(set, experiments.DefaultWorkers)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

var printOnce sync.Map

// printTable prints a figure's table exactly once per process.
func printTable(key, table string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n== %s ==\n%s", key, table)
	}
}

// BenchmarkTable1Taxonomy exercises Table I: the three contradiction
// examples classified sentence-by-sentence by the proposed detector
// against their own prompts (no external context — the paper's table
// is illustrative, so the benchmark measures raw verification cost on
// those inputs).
func BenchmarkTable1Taxonomy(b *testing.B) {
	d, err := core.NewProposed()
	if err != nil {
		b.Fatal(err)
	}
	examples := dataset.ContradictionExamples()
	ctx := context.Background()
	var triples []core.Triple
	for _, ex := range examples {
		triples = append(triples, core.Triple{Question: ex.Prompt, Context: ex.Prompt, Response: ex.Response})
	}
	if err := d.Calibrate(ctx, triples); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range examples {
			if _, err := d.Score(ctx, ex.Prompt, ex.Prompt, ex.Response); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fig3Bench reproduces one panel of Fig. 3 (and the matching Fig. 4
// panel shares its computation).
func fig3Bench(b *testing.B, contrast dataset.Label, panel string) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.ApproachResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.Fig3(ctx, contrast)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable(panel, experiments.FormatFig3(rows))
	for _, r := range rows {
		b.ReportMetric(r.BestF1.F1()*1000, "f1e3_"+sanitize(r.Approach))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig3aBestF1Wrong: best F1 detecting correct vs wrong for
// all five approaches (paper: all high, ≈0.89–0.99).
func BenchmarkFig3aBestF1Wrong(b *testing.B) { fig3Bench(b, dataset.LabelWrong, "fig3a") }

// BenchmarkFig3bBestF1Partial: best F1 detecting correct vs partial
// (paper: proposed highest at 0.81, +11% over ChatGPT, +6.6% over
// P(yes)).
func BenchmarkFig3bBestF1Partial(b *testing.B) { fig3Bench(b, dataset.LabelPartial, "fig3b") }

// fig4Bench reproduces one panel of Fig. 4: best precision subject to
// recall ≥ 0.5.
func fig4Bench(b *testing.B, contrast dataset.Label, panel string) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.ApproachResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.Fig4(ctx, contrast)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable(panel, experiments.FormatFig4(rows))
	for _, r := range rows {
		b.ReportMetric(r.BestPrec.Precision()*1000, "pe3_"+sanitize(r.Approach))
		b.ReportMetric(r.BestPrec.Recall()*1000, "re3_"+sanitize(r.Approach))
	}
}

// BenchmarkFig4aPrecisionWrong: paper's Fig. 4(a) — singles reach high
// precision only at low recall; the proposed method keeps recall.
func BenchmarkFig4aPrecisionWrong(b *testing.B) { fig4Bench(b, dataset.LabelWrong, "fig4a") }

// BenchmarkFig4bPrecisionPartial: Fig. 4(b), the harder contrast.
func BenchmarkFig4bPrecisionPartial(b *testing.B) { fig4Bench(b, dataset.LabelPartial, "fig4b") }

// fig5Bench reproduces one panel of Fig. 5: best F1 per aggregation
// mean over the proposed two-SLM pipeline.
func fig5Bench(b *testing.B, contrast dataset.Label, panel string) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.MeanResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.Fig5(ctx, contrast)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable(panel, experiments.FormatFig5(rows))
	for _, r := range rows {
		b.ReportMetric(r.BestF1.F1()*1000, "f1e3_"+r.Mean.String())
	}
}

// BenchmarkFig5aMeansWrong: paper range 0.75–0.99 with max on top.
func BenchmarkFig5aMeansWrong(b *testing.B) { fig5Bench(b, dataset.LabelWrong, "fig5a") }

// BenchmarkFig5bMeansPartial: paper — harmonic best (0.81), max
// collapses, min worst (0.66).
func BenchmarkFig5bMeansPartial(b *testing.B) { fig5Bench(b, dataset.LabelPartial, "fig5b") }

// BenchmarkFig6Distributions regenerates the proposed-vs-P(yes) score
// histograms (Fig. 6).
func BenchmarkFig6Distributions(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var proposed, pyes *experiments.Distribution
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposed, pyes, err = s.Fig6(ctx, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("fig6", "(a) "+experiments.FormatDistribution(proposed, 40)+
		"(b) "+experiments.FormatDistribution(pyes, 40))
}

// BenchmarkFig7MeanDistributions regenerates the geometric-vs-harmonic
// histograms (Fig. 7).
func BenchmarkFig7MeanDistributions(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var geo, har *experiments.Distribution
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geo, har, err = s.Fig7(ctx, 20)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("fig7", "(a) "+experiments.FormatDistribution(geo, 40)+
		"(b) "+experiments.FormatDistribution(har, 40))
}

// --- DESIGN.md §4 ablations ---

// BenchmarkAblationEnsembleSize varies the number of SLMs (1, 2, 3).
func BenchmarkAblationEnsembleSize(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.AblationEnsembleSize(ctx, dataset.LabelPartial)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation: ensemble size (vs partial)", experiments.FormatAblation("", rows))
	for _, r := range rows {
		b.ReportMetric(r.BestF1.F1()*1000, "f1e3_"+sanitize(r.Config))
	}
}

// BenchmarkAblationGating compares Eq. 5's uniform mean with the §VI
// gating combiners.
func BenchmarkAblationGating(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.AblationGating(ctx, dataset.LabelPartial)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation: gating (vs partial)", experiments.FormatAblation("", rows))
}

// BenchmarkAblationNormalization toggles Eq. 4's z-normalization.
func BenchmarkAblationNormalization(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.AblationNormalization(ctx, dataset.LabelPartial)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation: normalization (vs partial)", experiments.FormatAblation("", rows))
}

// BenchmarkAblationSplitter toggles sentence splitting at a fixed
// two-model harmonic configuration.
func BenchmarkAblationSplitter(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.AblationSplitter(ctx, dataset.LabelPartial)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation: splitter (vs partial)", experiments.FormatAblation("", rows))
}

// BenchmarkAblationTopK swaps the gold context for top-k retrieved
// context. Retrieval noise costs accuracy; more context dilutes the
// verifier (§IV-A's motivation seen from the retrieval side).
func BenchmarkAblationTopK(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = s.AblationTopK(ctx, dataset.LabelPartial, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printTable("ablation: retrieval top-k (vs partial)", experiments.FormatAblation("", rows))
}

// BenchmarkDetectorScore measures the end-to-end cost of verifying one
// response with the proposed two-SLM pipeline (cold signature caches
// excluded by the warmup call).
func BenchmarkDetectorScore(b *testing.B) {
	d, err := core.NewProposed()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := "What are the working hours?"
	contextText := "The store operates from 9 AM to 5 PM, from Sunday to Saturday. There should be at least three shopkeepers to run a shop."
	response := "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday."
	if err := d.Calibrate(ctx, []core.Triple{{Question: q, Context: contextText, Response: response}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Score(ctx, q, contextText, response); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving-layer throughput (internal/serve vs seed path) ---

// serveCorpus builds the benchmark corpus and its question set: the
// synthetic handbook contexts plus filler passages, so retrieval does
// real work across shards.
func serveCorpus(b *testing.B) (docs, questions []string, triples []core.Triple) {
	b.Helper()
	set, err := dataset.Generate(20250612, 32)
	if err != nil {
		b.Fatal(err)
	}
	docs = set.Contexts()
	for i := 0; i < 192; i++ {
		docs = append(docs, fmt.Sprintf(
			"Filler policy %d. Clause %d applies to department %d only.", i, i*7, i%12))
	}
	for _, it := range set.Items[:8] {
		questions = append(questions, it.Question)
	}
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, core.Triple{
				Question: it.Question, Context: it.Context, Response: r.Text,
			})
		}
	}
	return docs, questions, triples
}

// calibratedProposed returns a frozen Proposed detector so both serve
// paths score with the same pure function under concurrency.
func calibratedProposed(b *testing.B, triples []core.Triple) *core.Detector {
	b.Helper()
	d, err := core.NewProposed()
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Calibrate(context.Background(), triples); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkServeSeedPathParallel is the baseline: the seed's serving
// path — one vecdb.DB behind a single RWMutex, one-question-at-a-time
// verification through rag.Pipeline.Ask — driven by RunParallel.
func BenchmarkServeSeedPathParallel(b *testing.B) {
	docs, questions, triples := serveCorpus(b)
	db, err := vecdb.NewDefault(256)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.AddAll(docs); err != nil {
		b.Fatal(err)
	}
	pipe, err := rag.NewPipeline(rag.PipelineConfig{
		DB:        db,
		TopK:      3,
		Generator: rag.ExtractiveGenerator{MaxSentences: 2},
		Detector:  calibratedProposed(b, triples),
		Threshold: 3.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var n atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := questions[n.Add(1)%uint64(len(questions))]
			if _, err := pipe.Ask(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeShardedPathParallel is the internal/serve hot path:
// sharded retrieval, verification, embedding + verdict caches and
// admission control. The acceptance bar is ≥2× the ops/sec
// of BenchmarkServeSeedPathParallel on a multi-core runner.
func BenchmarkServeShardedPathParallel(b *testing.B) {
	docs, questions, triples := serveCorpus(b)
	srv, err := serve.New(serve.Config{
		Shards:      8,
		Dim:         256,
		TopK:        3,
		Threshold:   3.2,
		Detector:    calibratedProposed(b, triples),
		MaxInFlight: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for _, d := range docs {
		if _, err := srv.Store().Add(d, nil); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	var n atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := questions[n.Add(1)%uint64(len(questions))]
			if _, err := srv.Ask(ctx, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	st := srv.Stats()
	b.ReportMetric(st.VerdictCache.HitRate*1000, "verdict_hit_e3")
}

// BenchmarkShardedSearchParallel isolates retrieval: the sharded
// fan-out versus the equivalent single flat index under concurrent
// queries (verification excluded).
func BenchmarkShardedSearchParallel(b *testing.B) {
	docs, questions, _ := serveCorpus(b)
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s, err := serve.NewShardedWithIndex(shards, 256, serve.IndexConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				if _, err := s.Add(d, nil); err != nil {
					b.Fatal(err)
				}
			}
			var n atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := questions[n.Add(1)%uint64(len(questions))]
					if _, err := s.Search(q, 3); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkTelemetryOverhead prices the instrumentation itself: the
// same concurrent in-process search path (embed → fan-out → merge)
// with the store's stage histograms detached versus bound to a live
// registry. The instrumented arm pays one time.Now() per stage and one
// atomic bucket increment per observation; the committed
// BENCH_telemetry.json pins the delta under 5%.
func BenchmarkTelemetryOverhead(b *testing.B) {
	docs, questions, _ := serveCorpus(b)
	for _, arm := range []string{"bare", "instrumented"} {
		b.Run(arm, func(b *testing.B) {
			s, err := serve.NewShardedWithIndex(4, 256, serve.IndexConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if arm == "instrumented" {
				s.SetTelemetry(telemetry.NewRegistry())
			}
			for _, d := range docs {
				if _, err := s.Add(d, nil); err != nil {
					b.Fatal(err)
				}
			}
			var n atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q := questions[n.Add(1)%uint64(len(questions))]
					if _, err := s.Search(q, 3); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkThresholdSweep isolates the metric sweep on a realistic
// score distribution — the inner loop of every figure.
func BenchmarkThresholdSweep(b *testing.B) {
	s := benchSuite(b)
	ctx := context.Background()
	rows, err := s.Fig3(ctx, dataset.LabelPartial)
	if err != nil {
		b.Fatal(err)
	}
	_ = rows
	sc, err := s.Fig3(ctx, dataset.LabelWrong)
	if err != nil {
		b.Fatal(err)
	}
	_ = sc
	// Rebuild one approach's samples for the sweep benchmark.
	d, err := core.NewProposed()
	if err != nil {
		b.Fatal(err)
	}
	scores, err := experiments.ScoreApproach(ctx, d, s.Set, experiments.DefaultWorkers)
	if err != nil {
		b.Fatal(err)
	}
	samples := scores.SamplesVs(dataset.LabelPartial)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.BestF1(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the journaling hot path: framed,
// CRC-checksummed appends of realistic mutation records, per fsync
// policy. SyncAlways pays an fsync per append; the batch variants
// write 64 records per AppendBatch, as bulk and streamed ingest do (one
// write, and under SyncAlways one fsync, per batch).
func BenchmarkWALAppend(b *testing.B) {
	payload, err := vecdb.EncodeMutation(vecdb.Mutation{
		Op: vecdb.OpAdd, ID: 123456,
		Text: "Employees are entitled to fourteen days of paid annual leave per year.",
		Meta: map[string]string{"source": "handbook"},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sync  storage.SyncPolicy
		batch int
	}{
		{"never", storage.SyncNever, 1},
		{"never_batch64", storage.SyncNever, 64},
		{"always", storage.SyncAlways, 1},
		{"always_batch64", storage.SyncAlways, 64},
	} {
		b.Run(tc.name, func(b *testing.B) {
			w, err := storage.OpenWAL(b.TempDir(), storage.WALOptions{Sync: tc.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			batch := make([][]byte, tc.batch)
			for i := range batch {
				batch[i] = payload
			}
			b.SetBytes(int64(len(payload) * tc.batch))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecover measures cold-start recovery of a durable sharded
// store — checkpoint load plus WAL replay with re-embedding — for a
// corpus living entirely in the WAL versus entirely in checkpoints.
func BenchmarkRecover(b *testing.B) {
	docs, _, _ := serveCorpus(b)
	// build seeds a data dir once per sub-benchmark; CloseNoCheckpoint
	// leaves the WAL (or the checkpoint Save produced) untouched, so
	// every iteration recovers from identical on-disk state.
	build := func(b *testing.B, checkpoint bool) string {
		dir := b.TempDir()
		s, err := serve.OpenShardedWithIndex(dir, 4, 256, serve.IndexConfig{}, serve.PersistConfig{CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.AddBulk(docs); err != nil {
			b.Fatal(err)
		}
		if checkpoint {
			if err := s.Save(); err != nil {
				b.Fatal(err)
			}
		}
		s.CloseNoCheckpoint()
		return dir
	}
	for _, tc := range []struct {
		name       string
		checkpoint bool
	}{
		{"wal_replay", false},
		{"from_checkpoint", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := build(b, tc.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := serve.OpenShardedWithIndex(dir, 0, 256, serve.IndexConfig{}, serve.PersistConfig{CheckpointEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != len(docs) {
					b.Fatalf("recovered %d docs, want %d", s.Len(), len(docs))
				}
				b.StopTimer()
				s.CloseNoCheckpoint()
				b.StartTimer()
			}
		})
	}
}

// --- streaming ingest vs bulk ingest ---

// BenchmarkStreamIngest compares the NDJSON streaming path (bounded
// pipeline, credit-gate backpressure, index batches of whatever is
// queued) against the one-shot /ingest/bulk path on the same corpus.
// The acceptance bar is streamed throughput ≥ the bulk path —
// streaming buys incremental progress and bounded memory, and must
// not give back throughput for it.
func BenchmarkStreamIngest(b *testing.B) {
	const docsPerOp = 512
	docs := make([]string, docsPerOp)
	for i := range docs {
		docs[i] = fmt.Sprintf(
			"Streamed policy document %d. Section %d covers topic %d in detail. Employees in group %d must follow rule %d at all times.",
			i, i*3, i%17, i%5, i*11)
	}
	var payload strings.Builder
	for _, d := range docs {
		fmt.Fprintf(&payload, "{\"text\":%q}\n", d)
	}
	ndjson := payload.String()
	// The bulk path's wire form — both sub-benchmarks start from bytes
	// on the wire and pay their own decode, as the HTTP handlers do.
	bulkPayload, err := json.Marshal(map[string][]string{"texts": docs})
	if err != nil {
		b.Fatal(err)
	}

	newServer := func(b *testing.B) *serve.Server {
		_, _, triples := serveCorpus(b)
		srv, err := serve.New(serve.Config{
			Shards: 8, Dim: 256, Detector: calibratedProposed(b, triples),
		})
		if err != nil {
			b.Fatal(err)
		}
		return srv
	}
	ctx := context.Background()

	b.Run("bulk", func(b *testing.B) {
		srv := newServer(b)
		defer srv.Close()
		b.SetBytes(int64(len(bulkPayload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req struct {
				Texts []string `json:"texts"`
			}
			if err := json.Unmarshal(bulkPayload, &req); err != nil {
				b.Fatal(err)
			}
			if _, err := srv.IngestBulk(ctx, req.Texts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		srv := newServer(b)
		defer srv.Close()
		b.SetBytes(int64(len(ndjson)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.IngestStream(ctx, strings.NewReader(ndjson), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := srv.Stats().IngestStream
		b.ReportMetric(float64(st.ThrottleEvents)/float64(b.N), "throttles/op")
	})
}

// --- verification under bursty load ---

// BenchmarkVerifyBursty drives Server.Verify with a bursty arrival
// pattern — short salvos of back-to-back requests from each worker,
// separated by idle gaps — and reports the mean request latency. A
// one-entry verdict cache keeps the rotating triples from ever
// hitting it, so every request pays for a detector call.
func BenchmarkVerifyBursty(b *testing.B) {
	_, _, triples := serveCorpus(b)
	srv, err := serve.New(serve.Config{
		Shards:           1,
		Detector:         calibratedProposed(b, triples),
		VerdictCacheSize: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	var latNanos, ops atomic.Int64
	var n atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// Burst boundary: an idle gap, then a salvo of back-to-back
			// requests from this worker.
			if i%8 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			i++
			t := triples[n.Add(1)%uint64(len(triples))]
			start := time.Now()
			if _, err := srv.Verify(ctx, t.Question, t.Context, t.Response); err != nil {
				b.Error(err)
				return
			}
			latNanos.Add(time.Since(start).Nanoseconds())
			ops.Add(1)
		}
	})
	b.StopTimer()
	if ops.Load() > 0 {
		b.ReportMetric(float64(latNanos.Load())/float64(ops.Load())/1e6, "ms/req")
	}
}
