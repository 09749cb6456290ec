package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/slm"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// handbook is the shared test corpus: distinct, retrievable facts.
var handbook = []string{
	"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	"There should be at least three shopkeepers to run a shop.",
	"Employees are entitled to 14 days of paid annual leave per year.",
	"Overtime work is compensated at 1.5 times the hourly rate.",
	"New employees complete a probation period of three months.",
	"Expense reports must be submitted within 30 days of purchase.",
	"Remote work requires written approval from a direct manager.",
	"The cafeteria serves lunch between noon and 2 PM on weekdays.",
	"Security badges must be visible at all times inside the building.",
	"Quarterly performance reviews happen in March, June, September and December.",
}

func calibratedDetector(t testing.TB) *core.Detector {
	t.Helper()
	d, err := core.NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(handbook, " ")
	var triples []core.Triple
	for _, s := range handbook {
		triples = append(triples, core.Triple{
			Question: "What does the handbook say?", Context: doc, Response: s,
		})
	}
	if err := d.Calibrate(context.Background(), triples); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestShardedMergeMatchesSingle: the sharded router must return
// exactly the hits (IDs, texts, scores, order) a single flat index
// returns over the same corpus — sharding is a pure performance
// transform.
func TestShardedMergeMatchesSingle(t *testing.T) {
	const dim = 64
	single, err := vecdb.NewDefault(dim)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedDefault(4, dim, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range handbook {
		if _, err := single.Add(text, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Add(text, nil); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		"What are the working hours?",
		"How many days of annual leave?",
		"When are performance reviews?",
		"overtime pay rate",
	}
	for _, q := range queries {
		for _, k := range []int{1, 3, 5, 20} {
			want, err := single.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sharded.Search(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("q=%q k=%d: got %d hits, want %d", q, k, len(got), len(want))
			}
			// Score sequences must be identical. IDs must match wherever
			// the score is unambiguous across the whole corpus; which
			// documents fill tied slots is an implementation detail of
			// top-k selection (a single index keeps ties in scan order,
			// the merge keeps lowest IDs).
			full, err := single.Search(q, len(handbook))
			if err != nil {
				t.Fatal(err)
			}
			scoreCount := map[float64]int{}
			for _, h := range full {
				scoreCount[h.Score]++
			}
			for i := range want {
				if got[i].Score != want[i].Score {
					t.Errorf("q=%q k=%d hit %d: score %v, want %v", q, k, i, got[i].Score, want[i].Score)
				}
				if scoreCount[want[i].Score] == 1 && got[i].ID != want[i].ID {
					t.Errorf("q=%q k=%d hit %d: id %d, want %d", q, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestShardedSearchTraceShape: whatever the filter, a traced search on
// a multi-shard store records the same spans and the same stage
// observations. (Filtered searches used to open no spans, so they were
// invisible to /debug/traces.)
func TestShardedSearchTraceShape(t *testing.T) {
	s, err := NewShardedDefault(2, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]vecdb.Document, len(handbook))
	for i, text := range handbook {
		docs[i] = vecdb.Document{Collection: "acme", Text: text, Meta: map[string]string{"tag": "hr"}}
	}
	if _, err := s.AddBulkDocsContext(context.Background(), docs); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	tracer := telemetry.NewTracer(telemetry.TracerConfig{SampleEvery: 1})
	stageCounts := func() map[string]uint64 {
		counts := map[string]uint64{}
		for key, hs := range reg.HistogramSnapshots("stage_duration_seconds") {
			counts[strings.TrimPrefix(key, "stage=")] = hs.Count
		}
		return counts
	}
	for _, tc := range []struct {
		name   string
		filter vecdb.Filter
	}{
		{"unfiltered", vecdb.Filter{}},
		{"collection-filtered", vecdb.Filter{Collection: "acme"}},
		{"meta-filtered", vecdb.Filter{Meta: map[string]string{"tag": "hr"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := stageCounts()
			ctx, root := tracer.StartTrace(context.Background(), "/search", "")
			hits, err := s.SearchFilteredContext(ctx, "days of annual leave", 3, tc.filter)
			root.End(err)
			tracer.Finish(telemetry.TraceFrom(ctx), 200, 0)
			if err != nil || len(hits) != 3 {
				t.Fatalf("search: %d hits, %v", len(hits), err)
			}
			var spans []string
			for _, sp := range tracer.Traces(1, "")[0].Spans {
				spans = append(spans, sp.Name)
			}
			if want := []string{"/search", "embed", "shard_fanout"}; !reflect.DeepEqual(spans, want) {
				t.Errorf("spans = %v, want %v", spans, want)
			}
			after := stageCounts()
			for _, stage := range []string{"embed", "shard_fanout", "merge"} {
				if got := after[stage] - before[stage]; got != 1 {
					t.Errorf("stage %q observed %d times, want 1", stage, got)
				}
			}
		})
	}
}

// TestShardSpreadAndRouting: documents spread across shards, and every
// ID routes back to its owning shard for Get and Delete.
func TestShardSpreadAndRouting(t *testing.T) {
	s, err := NewShardedDefault(4, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 100; i++ {
		id, err := s.Add(fmt.Sprintf("document number %d about topic %d", i, i%7), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
	sizes := s.ShardSizes()
	nonEmpty, sum := 0, 0
	for _, n := range sizes {
		sum += n
		if n > 0 {
			nonEmpty++
		}
	}
	if sum != 100 {
		t.Errorf("shard sizes sum to %d, want 100 (%v)", sum, sizes)
	}
	if nonEmpty < 2 {
		t.Errorf("hash routed everything to %d shard(s): %v", nonEmpty, sizes)
	}
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Errorf("Get(%d): %v", id, err)
		}
	}
	if err := s.DeleteContext(context.Background(), "", ids[0]); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 99 {
		t.Errorf("Len after delete = %d, want 99", s.Len())
	}
	if _, err := s.Get(ids[0]); !errors.Is(err, vecdb.ErrNotFound) {
		t.Errorf("Get deleted id: err = %v, want ErrNotFound", err)
	}
}

// TestCachedEmbedder: hits are counted, and cached vectors are equal
// to fresh ones.
func TestCachedEmbedder(t *testing.T) {
	inner, err := vecdb.NewHashedEmbedder(48)
	if err != nil {
		t.Fatal(err)
	}
	e := NewCachedEmbedder(inner, 8)
	want, err := inner.Embed("hello caching world")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := e.Embed("hello caching world")
		if err != nil {
			t.Fatal(err)
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("pass %d: vector mismatch at dim %d", i, d)
			}
		}
	}
	hits, misses := e.Counters()
	if misses != 1 || hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	// Eviction: tiny cache keeps working.
	for i := 0; i < 20; i++ {
		if _, err := e.Embed(fmt.Sprintf("query %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if e.Size() > 8 {
		t.Errorf("cache size %d exceeds capacity 8", e.Size())
	}
}

// TestAdmissionSheds: with one slot and one queue position, the third
// concurrent request is shed, and a queued request acquires the slot
// once it frees.
func TestAdmissionSheds(t *testing.T) {
	a, err := NewAdmission(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	release, err := a.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		rel, err := a.Acquire(ctx)
		if err == nil {
			rel()
		}
		queued <- err
	}()
	// Wait until the goroutine occupies the queue position.
	deadline := time.Now().Add(2 * time.Second)
	for a.QueueDepth() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire: err = %v, want ErrOverloaded", err)
	}
	if a.Shed() != 1 {
		t.Errorf("shed = %d, want 1", a.Shed())
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire failed: %v", err)
	}
}

// TestAdmissionQueueHonorsContext: a queued request unblocks with the
// context error when its deadline expires.
func TestAdmissionQueueHonorsContext(t *testing.T) {
	a, err := NewAdmission(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire: err = %v, want DeadlineExceeded", err)
	}
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Detector == nil {
		cfg.Detector = calibratedDetector(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ctx := context.Background()
	if _, err := s.Ingest(ctx, strings.Join(handbook, " ")); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestServerConcurrentAsks is the headline race test: many goroutines
// hammer a shared server with a small rotating question set; every
// answer must be complete, the shards must hold the corpus, and the
// verdict cache must absorb the repeats.
func TestServerConcurrentAsks(t *testing.T) {
	s := newTestServer(t, Config{
		Shards:   4,
		Dim:      64,
		TopK:     3,
		MaxBatch: 8,
		MaxWait:  2 * time.Millisecond,
	})
	questions := []string{
		"What are the working hours?",
		"How many days of annual leave do employees get?",
		"What is the overtime rate?",
		"How long is the probation period?",
	}
	const goroutines = 16
	const perG = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := questions[(g+i)%len(questions)]
				ans, err := s.Ask(context.Background(), q)
				if err != nil {
					errCh <- fmt.Errorf("ask %q: %w", q, err)
					return
				}
				if ans.Response == "" || len(ans.Verdict.Sentences) == 0 {
					errCh <- fmt.Errorf("incomplete answer for %q", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Docs == 0 {
		t.Error("no documents stored")
	}
	sum := 0
	for _, n := range st.ShardSizes {
		sum += n
	}
	if sum != st.Docs {
		t.Errorf("shard sizes %v sum to %d, want %d", st.ShardSizes, sum, st.Docs)
	}
	if st.Requests.Asks != goroutines*perG {
		t.Errorf("asks = %d, want %d", st.Requests.Asks, goroutines*perG)
	}
	// 96 asks over 4 distinct questions: the verdict path must
	// deduplicate nearly everything.
	if st.VerdictCache.Hits == 0 {
		t.Error("verdict cache never hit despite repeated questions")
	}
	if st.EmbedCache.Hits == 0 {
		t.Error("embed cache never hit despite repeated questions")
	}
}

// TestServerVerifyCaching: identical Verify calls are scored once.
func TestServerVerifyCaching(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Dim: 64})
	ctx := context.Background()
	doc := strings.Join(handbook, " ")
	v1, err := s.Verify(ctx, "What are the working hours?", doc, "The store operates from 9 AM to 5 PM.")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Verify(ctx, "What are the working hours?", doc, "The store operates from 9 AM to 5 PM.")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Score != v2.Score {
		t.Errorf("cached verdict %v != first verdict %v", v2.Score, v1.Score)
	}
	st := s.Stats()
	if st.VerdictCache.Hits != 1 {
		t.Errorf("verdict cache hits = %d, want 1", st.VerdictCache.Hits)
	}
	if n := st.Stages["verify_exec"].Count; n != 1 {
		t.Errorf("detector calls = %d, want 1 (second call must not reach the detector)", n)
	}
}

// TestServerUncalibratedBypassesCache: with an unfrozen normalizer,
// verdicts are order-dependent online functions, so the serving layer
// must not cache them — every request reaches the detector.
func TestServerUncalibratedBypassesCache(t *testing.T) {
	d, err := core.NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Shards: 2, Dim: 64, Detector: d})
	ctx := context.Background()
	doc := strings.Join(handbook, " ")
	for i := 0; i < 3; i++ {
		if _, err := s.Verify(ctx, "q", doc, handbook[0]); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.VerdictCache.Hits != 0 || st.VerdictCache.Size != 0 {
		t.Errorf("uncalibrated detector used the verdict cache: %+v", st.VerdictCache)
	}
	if n := st.Stages["verify_exec"].Count; n != 3 {
		t.Errorf("detector calls = %d, want 3 (every call must reach the detector)", n)
	}
}

// TestServerVerifyMatchesDetector: the serving path adds caching and
// deduplication, never arithmetic — Server.Verify returns the bits
// det.Score returns, cold and again from the verdict cache.
func TestServerVerifyMatchesDetector(t *testing.T) {
	d := calibratedDetector(t)
	s := newTestServer(t, Config{Shards: 2, Dim: 64, Detector: d})
	ctx := context.Background()
	doc := strings.Join(handbook, " ")
	for i, resp := range handbook {
		want, err := d.Score(ctx, "What does the handbook say?", doc, resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "cached"} {
			got, err := s.Verify(ctx, "What does the handbook say?", doc, resp)
			if err != nil {
				t.Fatalf("%s verify %d: %v", pass, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s verify %d: %+v != det.Score %+v", pass, i, got, want)
			}
		}
	}
	st := s.Stats()
	if n := len(handbook); st.VerdictCache.Hits != uint64(n) || st.Stages["verify_exec"].Count != uint64(n) {
		t.Errorf("cache hits %d, detector calls %d; want %d each", st.VerdictCache.Hits, st.Stages["verify_exec"].Count, n)
	}
}

// blockingModel counts the calls that arrive on a live context and
// parks each until released or until its context is cancelled.
type blockingModel struct {
	calls   atomic.Int64
	once    sync.Once
	entered chan struct{} // closed by the first parked call
	release chan struct{}
}

func (*blockingModel) Name() string { return "blocking" }
func (m *blockingModel) YesProbability(ctx context.Context, _ slm.VerifyRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.calls.Add(1)
	m.once.Do(func() { close(m.entered) })
	select {
	case <-m.release:
		return 0.5, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TestVerifyStopsOnCancel: verification runs under the request's
// context, so a cancelled Verify returns ctx.Err() and no further
// model call is made on its behalf; a singleflight follower whose own
// context is live is not failed by the leader's cancellation — it
// retries, becomes the leader and still gets a verdict.
func TestVerifyStopsOnCancel(t *testing.T) {
	m := &blockingModel{entered: make(chan struct{}), release: make(chan struct{})}
	d, err := core.NewDetector("blocking", core.Config{Models: []slm.Model{m}, Scale: core.Identity{}})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Shards: 1, Dim: 64, Detector: d})
	// More sentences than the detector call has workers, so a
	// verification that stops early is distinguishable from one that
	// ran to completion.
	workers := runtime.GOMAXPROCS(0)
	doc := strings.Repeat(strings.Join(handbook, " ")+" ", workers/len(handbook)+2)
	sentences := len(handbook) * (workers/len(handbook) + 2)

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.Verify(leaderCtx, "q", doc, doc)
		leaderErr <- err
	}()
	<-m.entered // the leader is inside the detector
	type result struct {
		v   core.Verdict
		err error
	}
	follower := make(chan result, 1)
	go func() {
		v, err := s.Verify(context.Background(), "q", doc, doc)
		follower <- result{v, err}
	}()
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Verify: err = %v, want context.Canceled", err)
	}
	close(m.release)
	r := <-follower
	if r.err != nil {
		t.Fatalf("follower with a live context: %v", r.err)
	}
	if len(r.v.Sentences) != sentences {
		t.Errorf("follower verdict has %d sentences, want %d", len(r.v.Sentences), sentences)
	}
	// The leader had at most `workers` calls parked when it was
	// cancelled and started none after; the follower's verification is
	// the only one that ran every sentence.
	if got, limit := m.calls.Load(), int64(workers+sentences); got > limit {
		t.Errorf("%d model calls, want at most %d: the cancelled Verify kept calling models", got, limit)
	}
}

// blockingGenerator parks inside Generate until released, letting the
// shed test hold a request slot deterministically.
type blockingGenerator struct {
	entered chan struct{}
	release chan struct{}
}

func (g *blockingGenerator) Generate(question, context string) (string, error) {
	g.entered <- struct{}{}
	<-g.release
	return "The store operates from 9 AM to 5 PM.", nil
}

// TestServerLoadShedding: with one slot and no queue, a second
// concurrent request is shed with ErrOverloaded while the first is
// mid-flight.
func TestServerLoadShedding(t *testing.T) {
	gen := &blockingGenerator{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := newTestServer(t, Config{
		Shards:      2,
		Dim:         64,
		MaxInFlight: 1,
		MaxQueue:    -1, // no queue: shed immediately
		Generator:   gen,
	})
	first := make(chan error, 1)
	go func() {
		_, err := s.Ask(context.Background(), "What are the working hours?")
		first <- err
	}()
	<-gen.entered // first request now holds the only slot
	_, err := s.Ask(context.Background(), "What are the working hours?")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second ask: err = %v, want ErrOverloaded", err)
	}
	close(gen.release)
	if err := <-first; err != nil {
		t.Fatalf("first ask: %v", err)
	}
	if s.Stats().Admission.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Stats().Admission.Shed)
	}
}

// TestServerEmptyQuestion: input validation happens before admission.
func TestServerEmptyQuestion(t *testing.T) {
	s := newTestServer(t, Config{Shards: 2, Dim: 64})
	if _, err := s.Ask(context.Background(), ""); err == nil {
		t.Error("empty question must fail")
	}
}

// TestServerIngestBulk: the bulk path chunks every document, lands all
// chunks in the store, and costs exactly one admitted ingest batch.
func TestServerIngestBulk(t *testing.T) {
	s := newTestServer(t, Config{Shards: 4, TopK: 2})
	before := s.Store().Len()
	chunks, err := s.IngestBulk(context.Background(), handbook)
	if err != nil {
		t.Fatal(err)
	}
	if chunks < len(handbook) {
		t.Errorf("bulk ingest produced %d chunks for %d docs", chunks, len(handbook))
	}
	if got := s.Store().Len() - before; got != chunks {
		t.Errorf("store grew by %d, response said %d", got, chunks)
	}
	// Every fact is retrievable after bulk ingest.
	hits, err := s.Store().Search("how is overtime compensated", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Error("bulk-ingested corpus not retrievable")
	}
	if _, err := s.IngestBulk(context.Background(), nil); err == nil {
		t.Error("empty bulk ingest succeeded")
	}
	// A durable server persists the bulk batch through the same WAL.
	st := s.Stats()
	if st.Persist.Enabled {
		t.Error("memory-only server reports persistence enabled")
	}
	if st.Requests.Ingests != 1+uint64(len(handbook)) {
		t.Errorf("ingest counter = %d, want %d", st.Requests.Ingests, 1+len(handbook))
	}
}

// TestServerDurableLifecycle: a Server over a data dir recovers its
// corpus across Close/New cycles and reports persistence in Stats.
func TestServerDurableLifecycle(t *testing.T) {
	dir := t.TempDir()
	det := calibratedDetector(t)
	cfg := Config{Shards: 2, TopK: 2, Detector: det, DataDir: dir,
		Persist: PersistConfig{CheckpointEvery: -1}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBulk(context.Background(), handbook); err != nil {
		t.Fatal(err)
	}
	docs := s.Store().Len()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Persist; !st.Enabled || st.Checkpoints == 0 || st.WALRecords != 0 {
		t.Errorf("after checkpoint: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if r.Store().Len() != docs {
		t.Fatalf("recovered %d docs, want %d", r.Store().Len(), docs)
	}
	ans, err := r.Ask(context.Background(), "What are the store working hours?")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Response == "" {
		t.Error("recovered server produced empty answer")
	}
}
