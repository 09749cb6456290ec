package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dataset"
	"repro/internal/slm"
)

func TestMeanAggregate(t *testing.T) {
	scores := []float64{1, 2, 4}
	cases := []struct {
		mean Mean
		want float64
	}{
		{Arithmetic, 7.0 / 3},
		{Geometric, 2},
		{Max, 4},
		{Min, 1},
		{Harmonic, 3.0 / (1 + 0.5 + 0.25)},
	}
	for _, tc := range cases {
		got, err := tc.mean.Aggregate(scores, DefaultFloor)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", tc.mean, got, tc.want)
		}
	}
}

func TestAggregateFloorsNonPositives(t *testing.T) {
	scores := []float64{-1, 2}
	h, err := Harmonic.Aggregate(scores, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 / (1/0.05 + 0.5)
	if math.Abs(h-want) > 1e-12 {
		t.Errorf("harmonic with floor = %v, want %v", h, want)
	}
	g, err := Geometric.Aggregate(scores, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(g) || g <= 0 {
		t.Errorf("geometric with negative input = %v", g)
	}
	// Min/Arithmetic keep raw values (the detector shifts before
	// calling; the aggregator itself floors only where positivity is
	// mathematically required).
	m, _ := Min.Aggregate(scores, 0.05)
	if m != -1 {
		t.Errorf("min = %v, want -1", m)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := Harmonic.Aggregate(nil, DefaultFloor); !errors.Is(err, ErrNoScores) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Harmonic.Aggregate([]float64{1}, 0); err == nil {
		t.Error("zero floor accepted")
	}
	if _, err := Mean(99).Aggregate([]float64{1}, DefaultFloor); err == nil {
		t.Error("unknown mean accepted")
	}
}

// Property: every mean lies between min and max of (floored) inputs.
func TestAggregateBoundsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			v = math.Mod(math.Abs(v), 10)
			if v == 0 || math.IsNaN(v) {
				v = 0.5
			}
			scores[i] = v
		}
		lo, hi := scores[0], scores[0]
		for _, v := range scores {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, m := range Means() {
			got, err := m.Aggregate(scores, DefaultFloor)
			if err != nil {
				return false
			}
			if got < lo-1e-9 || got > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with positive inputs, min ≤ harmonic ≤ geometric ≤
// arithmetic ≤ max (the classical mean inequality chain).
func TestMeanInequalityChain(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		scores := make([]float64, len(raw))
		for i, v := range raw {
			v = math.Mod(math.Abs(v), 5) + 0.1
			if math.IsNaN(v) {
				v = 1
			}
			scores[i] = v
		}
		h, _ := Harmonic.Aggregate(scores, DefaultFloor)
		g, _ := Geometric.Aggregate(scores, DefaultFloor)
		a, _ := Arithmetic.Aggregate(scores, DefaultFloor)
		mn, _ := Min.Aggregate(scores, DefaultFloor)
		mx, _ := Max.Aggregate(scores, DefaultFloor)
		const eps = 1e-9
		return mn <= h+eps && h <= g+eps && g <= a+eps && a <= mx+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNormalizerStandardize(t *testing.T) {
	n := NewNormalizer()
	for _, p := range []float64{0.2, 0.4, 0.6, 0.8} {
		n.Observe("m", p)
	}
	// mean 0.5, population σ = sqrt(0.05).
	got := n.Standardize("m", 0.5+math.Sqrt(0.05))
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("Standardize = %v, want 1", got)
	}
	// Unknown model: pass-through.
	if got := n.Standardize("unknown", 0.7); got != 0.7 {
		t.Errorf("unknown model = %v, want raw", got)
	}
}

func TestNormalizerFreeze(t *testing.T) {
	n := NewNormalizer()
	n.Observe("m", 0)
	n.Observe("m", 1)
	n.Freeze()
	if !n.Frozen() {
		t.Fatal("Frozen() = false")
	}
	before := n.Standardize("m", 0.75)
	n.Observe("m", 100) // must be ignored
	if after := n.Standardize("m", 0.75); after != before {
		t.Errorf("frozen normalizer drifted: %v -> %v", before, after)
	}
	n.Freeze() // idempotent
	if s, ok := n.Moments("m"); !ok || s.N != 2 {
		t.Errorf("Moments = %+v, %v", s, ok)
	}
}

func TestNormalizerSeparatesModels(t *testing.T) {
	n := NewNormalizer()
	// Model a lives around 0.2, model b around 0.8 — Eq. 4's whole
	// point is that 0.5 means something different to each.
	for _, p := range []float64{0.1, 0.2, 0.3} {
		n.Observe("a", p)
	}
	for _, p := range []float64{0.7, 0.8, 0.9} {
		n.Observe("b", p)
	}
	za := n.Standardize("a", 0.5)
	zb := n.Standardize("b", 0.5)
	if za <= 0 {
		t.Errorf("0.5 should be above a's mean: z=%v", za)
	}
	if zb >= 0 {
		t.Errorf("0.5 should be below b's mean: z=%v", zb)
	}
}

func TestIdentityScaler(t *testing.T) {
	var id Identity
	id.Observe("m", 123)
	if got := id.Standardize("m", 0.42); got != 0.42 {
		t.Errorf("Identity.Standardize = %v", got)
	}
	id.Freeze() // no-op, must not panic
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector("x", Config{}); err == nil {
		t.Error("no models accepted")
	}
	if _, err := NewDetector("x", Config{Models: []slm.Model{nil}}); err == nil {
		t.Error("nil model accepted")
	}
	dup := []slm.Model{slm.Constant{ModelName: "m", P: 0.5}, slm.Constant{ModelName: "m", P: 0.6}}
	if _, err := NewDetector("x", Config{Models: dup}); err == nil {
		t.Error("duplicate model names accepted")
	}
	if _, err := NewDetector("x", Config{Models: dup[:1], Floor: -1}); err == nil {
		t.Error("negative floor accepted")
	}
	if _, err := NewDetector("x", Config{Models: dup[:1], Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestWholeResponseSplitter(t *testing.T) {
	got := WholeResponse("  a. b.  ")
	if len(got) != 1 || got[0] != "a. b." {
		t.Errorf("WholeResponse = %#v", got)
	}
	if got := WholeResponse("  "); got != nil {
		t.Errorf("blank WholeResponse = %#v", got)
	}
}

var detCtx = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. " +
	"There should be at least three shopkeepers to run a shop."

func TestDetectorScoreOrdering(t *testing.T) {
	d, err := NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := "What are the working hours?"
	correct := "The working hours are 9 AM to 5 PM. The store is open from Sunday to Saturday."
	partial := "The working hours are 9 AM to 5 PM. The store is open from Monday to Friday."
	wrong := "The working hours are 9 AM to 9 PM. You do not need to work on weekends."

	// Calibrate on all three (the "previous responses").
	err = d.Calibrate(ctx, []Triple{
		{q, detCtx, correct}, {q, detCtx, partial}, {q, detCtx, wrong},
	})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := d.Score(ctx, q, detCtx, correct)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := d.Score(ctx, q, detCtx, partial)
	if err != nil {
		t.Fatal(err)
	}
	vw, err := d.Score(ctx, q, detCtx, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if !(vc.Score > vp.Score && vp.Score > vw.Score) {
		t.Errorf("score ordering broken: correct=%.3f partial=%.3f wrong=%.3f",
			vc.Score, vp.Score, vw.Score)
	}
	if len(vc.Sentences) != 2 {
		t.Errorf("sentence count = %d, want 2", len(vc.Sentences))
	}
	for _, ss := range vc.Sentences {
		if len(ss.Raw) != 2 {
			t.Errorf("raw scores per sentence = %d, want 2 models", len(ss.Raw))
		}
	}
	// Decision rule is strict.
	if !vc.IsCorrect(vc.Score - 0.001) {
		t.Error("IsCorrect false just below score")
	}
	if vc.IsCorrect(vc.Score) {
		t.Error("IsCorrect true at exactly the threshold (rule is strict >)")
	}
}

func TestDetectorEmptyResponse(t *testing.T) {
	d, _ := NewProposed()
	if _, err := d.Score(context.Background(), "q", detCtx, "   "); !errors.Is(err, ErrEmptyResponse) {
		t.Errorf("empty response err = %v", err)
	}
}

func TestDetectorParallelRequiresFrozen(t *testing.T) {
	d, err := NewDetector("par", Config{
		Models:  []slm.Model{slm.NewQwen2()},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Score(context.Background(), "q", detCtx, "The hours are 9 AM to 5 PM.")
	if err == nil || !strings.Contains(err.Error(), "frozen") {
		t.Errorf("parallel unfrozen err = %v", err)
	}
	if err := d.Calibrate(context.Background(), []Triple{{"q", detCtx, "The hours are 9 AM to 5 PM."}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Score(context.Background(), "q", detCtx, "The hours are 9 AM to 5 PM."); err != nil {
		t.Errorf("parallel frozen score failed: %v", err)
	}
}

// failingModel fails its first call; every later call waits for the
// context it was handed to be cancelled and counts the ones that
// never saw that happen.
type failingModel struct {
	calls       atomic.Int64
	uncancelled atomic.Int64
}

func (*failingModel) Name() string { return "failing" }
func (m *failingModel) YesProbability(ctx context.Context, _ slm.VerifyRequest) (float64, error) {
	if m.calls.Add(1) == 1 {
		return 0, errors.New("boom")
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		m.uncancelled.Add(1)
	}
	return 0, ctx.Err()
}

// TestParallelMatchesSequential: the worker count is a pure scheduling
// choice. A calibrated detector returns bit-identical verdicts — score,
// per-sentence Combined and Raw — for every response of the default
// dataset at every worker count, an empty response is ErrEmptyResponse
// at every worker count, and a failing model's error names the model
// and cancels the context the remaining calls see.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	set, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	var triples []Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, Triple{it.Question, it.Context, r.Text})
		}
	}
	d, err := NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(ctx, triples[:30]); err != nil {
		t.Fatal(err)
	}
	var want []Verdict // the workers=1 row, which every other row must equal
	ran := map[int]bool{}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 8} {
		if ran[workers] {
			continue
		}
		ran[workers] = true
		for i, tr := range triples {
			got, err := d.ScoreWorkers(ctx, tr.Question, tr.Context, tr.Response, workers)
			if err != nil {
				t.Fatalf("workers=%d triple %d: %v", workers, i, err)
			}
			if workers == 1 {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("workers=%d triple %d: verdict %+v != sequential %+v", workers, i, got, want[i])
			}
		}
		if _, err := d.ScoreWorkers(ctx, "q", detCtx, " ", workers); !errors.Is(err, ErrEmptyResponse) {
			t.Errorf("workers=%d empty response: err = %v, want ErrEmptyResponse", workers, err)
		}

		m := &failingModel{}
		fd, err := NewDetector("failing", Config{Models: []slm.Model{m, slm.NewQwen2()}, Scale: Identity{}})
		if err != nil {
			t.Fatal(err)
		}
		tr := triples[0]
		_, err = fd.ScoreWorkers(ctx, tr.Question, tr.Context, tr.Response, workers)
		if err == nil || !strings.Contains(err.Error(), "model failing: boom") {
			t.Errorf("workers=%d failing model: err = %v, want it to name the model", workers, err)
		}
		if n := m.uncancelled.Load(); n != 0 {
			t.Errorf("workers=%d failing model: %d later calls never saw the context cancelled", workers, n)
		}
	}
}

func TestBatchScorePreservesOrder(t *testing.T) {
	ctx := context.Background()
	d, err := NewDetector("batch", Config{Models: []slm.Model{slm.NewQwen2()}})
	if err != nil {
		t.Fatal(err)
	}
	triples := []Triple{
		{"q", detCtx, "The working hours are 9 AM to 5 PM."},
		{"q", detCtx, "The working hours are 9 AM to 9 PM."},
		{"q", detCtx, "The store is open from Sunday to Saturday."},
		{"q", detCtx, "You do not need to work on weekends."},
	}
	if err := d.Calibrate(ctx, triples); err != nil {
		t.Fatal(err)
	}
	seqOut, err := d.BatchScore(ctx, triples, 1)
	if err != nil {
		t.Fatal(err)
	}
	parOut, err := d.BatchScore(ctx, triples, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range triples {
		if seqOut[i].Response != triples[i].Response {
			t.Fatalf("sequential order broken at %d", i)
		}
		if parOut[i].Response != triples[i].Response {
			t.Fatalf("parallel order broken at %d", i)
		}
		if seqOut[i].Verdict.Score != parOut[i].Verdict.Score {
			t.Errorf("batch score %d differs: %v vs %v", i, seqOut[i].Verdict.Score, parOut[i].Verdict.Score)
		}
	}
}

func TestBatchScoreCancellation(t *testing.T) {
	d, err := NewDetector("cancel", Config{Models: []slm.Model{slm.NewQwen2()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = d.BatchScore(ctx, []Triple{{"q", detCtx, "The hours are 9 AM."}}, 2)
	if err == nil {
		t.Error("cancelled batch succeeded")
	}
}

func TestApproachesLineup(t *testing.T) {
	ds, err := Approaches()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Proposed", "ChatGPT", "P(yes)", "Qwen2", "MiniCPM"}
	if len(ds) != len(want) {
		t.Fatalf("%d approaches, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d.Name() != want[i] {
			t.Errorf("approach %d = %s, want %s", i, d.Name(), want[i])
		}
	}
	// Proposed uses two models; the baselines one.
	if len(ds[0].Models()) != 2 {
		t.Errorf("Proposed models = %d, want 2", len(ds[0].Models()))
	}
	for _, i := range []int{1, 2, 3, 4} {
		if len(ds[i].Models()) != 1 {
			t.Errorf("%s models = %d, want 1", ds[i].Name(), len(ds[i].Models()))
		}
	}
}

func TestConstantModelsDegenerate(t *testing.T) {
	// A constant model gives σ=0; the checker must degrade to
	// centering, not NaN.
	d, err := NewDetector("const", Config{
		Models: []slm.Model{slm.Constant{ModelName: "c", P: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := d.Calibrate(ctx, []Triple{{"q", detCtx, "The hours are 9 AM to 5 PM."}}); err != nil {
		t.Fatal(err)
	}
	v, err := d.Score(ctx, "q", detCtx, "The hours are 9 AM to 5 PM. Open Sundays.")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) {
		t.Errorf("degenerate score = %v", v.Score)
	}
}

func TestMeanStrings(t *testing.T) {
	names := map[Mean]string{
		Harmonic: "harmonic", Arithmetic: "arithmetic",
		Geometric: "geometric", Max: "max", Min: "min",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%v.String() = %s", int(m), m.String())
		}
	}
	if len(Means()) != 5 {
		t.Error("Means() must enumerate all five aggregations")
	}
}

// TestCalibrateMatchesSequential: fanning the model calls out moves no
// bit of the calibration. The reference is the plain triple → sentence
// → model loop into a fresh Normalizer; the frozen moments and what
// Standardize makes of them must be equal per model.
func TestCalibrateMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // more than one worker on any box
	ctx := context.Background()
	triples := defaultTriples(t)
	d, err := NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(ctx, triples); err != nil {
		t.Fatal(err)
	}
	if !d.Calibrated() {
		t.Fatal("Calibrate left the scaler unfrozen")
	}
	models := proposedModels()
	ref := NewNormalizer()
	for _, tr := range triples {
		for _, sentence := range SentenceSplitter(tr.Response) {
			for _, m := range models {
				p, err := m.YesProbability(ctx, slm.VerifyRequest{Question: tr.Question, Context: tr.Context, Claim: sentence})
				if err != nil {
					t.Fatal(err)
				}
				ref.Observe(m.Name(), p)
			}
		}
	}
	ref.Freeze()
	got := d.Scaler().(*Normalizer)
	for _, m := range models {
		gm, _ := got.Moments(m.Name())
		rm, _ := ref.Moments(m.Name())
		if gm != rm {
			t.Errorf("%s: moments %+v, sequential %+v", m.Name(), gm, rm)
		}
		for _, p := range []float64{1e-4, 0.25, 0.5, 0.9, 1 - 1e-4} {
			g, r := got.Standardize(m.Name(), p), ref.Standardize(m.Name(), p)
			if math.Float64bits(g) != math.Float64bits(r) {
				t.Errorf("%s: Standardize(%v) = %x, sequential %x", m.Name(), p, math.Float64bits(g), math.Float64bits(r))
			}
		}
	}
}

// parkingModel answers its first `free` calls at once and parks every
// later one until the context it was handed is cancelled. It counts
// every call, cancelled context or not.
type parkingModel struct {
	free   int64
	calls  atomic.Int64
	once   sync.Once
	parked chan struct{} // closed by the first parked call
}

func (*parkingModel) Name() string { return "parking" }
func (m *parkingModel) YesProbability(ctx context.Context, _ slm.VerifyRequest) (float64, error) {
	if m.calls.Add(1) <= m.free {
		return 0.5, nil
	}
	m.once.Do(func() { close(m.parked) })
	<-ctx.Done()
	return 0, ctx.Err()
}

// TestCalibrateStopsOnCancel: a cancelled Calibrate returns ctx's error,
// issues no model call beyond the ones its workers had in flight, and
// leaves the scaler as it found it — nothing observed, nothing frozen.
func TestCalibrateStopsOnCancel(t *testing.T) {
	const workers = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	triples := defaultTriples(t)
	m := &parkingModel{free: 100, parked: make(chan struct{})}
	d, err := NewDetector("parking", Config{Models: []slm.Model{m}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Calibrate(ctx, triples) }()
	<-m.parked
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Calibrate: err = %v, want context.Canceled", err)
	}
	if got, limit := m.calls.Load(), m.free+workers; got > limit {
		t.Errorf("%d model calls, want at most %d: the cancelled Calibrate kept calling models", got, limit)
	}
	if d.Calibrated() {
		t.Error("cancelled Calibrate froze the scaler")
	}
	if s, ok := d.Scaler().(*Normalizer).Moments(m.Name()); ok {
		t.Errorf("cancelled Calibrate observed %d probabilities", s.N)
	}
}

// TestCalibrateFailingModel: the first failing call's error comes back
// naming its model, the calls still running see their context
// cancelled, and nothing is observed or frozen.
func TestCalibrateFailingModel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := &failingModel{}
	good := slm.NewQwen2()
	d, err := NewDetector("failing", Config{Models: []slm.Model{good, m}})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Calibrate(context.Background(), defaultTriples(t)[:12])
	if err == nil || !strings.Contains(err.Error(), "model failing: boom") {
		t.Errorf("err = %v, want it to name the model", err)
	}
	if n := m.uncancelled.Load(); n != 0 {
		t.Errorf("%d later calls never saw the context cancelled", n)
	}
	if d.Calibrated() {
		t.Error("failed Calibrate froze the scaler")
	}
	if s, ok := d.Scaler().(*Normalizer).Moments(good.Name()); ok {
		t.Errorf("failed Calibrate observed %d probabilities", s.N)
	}
}
