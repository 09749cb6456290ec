package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/slm"
)

// pairModel records which (question, context) pairs have a call in
// flight, and counts the calls that find their pair in flight already.
type pairModel struct {
	mu       sync.Mutex
	inFlight map[[2]string]int
	overlaps int
}

func (*pairModel) Name() string { return "pair" }
func (m *pairModel) YesProbability(_ context.Context, req slm.VerifyRequest) (float64, error) {
	k := [2]string{req.Question, req.Context}
	m.mu.Lock()
	m.inFlight[k]++
	if m.inFlight[k] > 1 {
		m.overlaps++
	}
	m.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	m.mu.Lock()
	m.inFlight[k]--
	m.mu.Unlock()
	return 0.5, nil
}

// TestCalibrateOnePairPerWorker: the triples that share a (question,
// context) pair run on one worker, so no pair is ever in flight on two
// workers at once, and the sentence windows the pair's responses share
// can hit the models' memos instead of being computed twice.
func TestCalibrateOnePairPerWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := &pairModel{inFlight: map[[2]string]int{}}
	d, err := NewDetector("pair", Config{Models: []slm.Model{m}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(context.Background(), defaultTriples(t)[:60]); err != nil {
		t.Fatal(err)
	}
	if m.overlaps != 0 {
		t.Errorf("%d calls found their (question, context) pair already in flight on another worker", m.overlaps)
	}
}

// sentenceCalls stands in front of a model and counts its calls per
// (question, context, sentence): the unit Calibrate asks a model about.
type sentenceCalls struct {
	slm.Model
	mu    sync.Mutex
	calls map[[3]string]int
}

func (c *sentenceCalls) YesProbability(ctx context.Context, req slm.VerifyRequest) (float64, error) {
	c.mu.Lock()
	c.calls[[3]string{req.Question, req.Context, req.Claim}]++
	c.mu.Unlock()
	return c.Model.YesProbability(ctx, req)
}

// TestCalibrateComputesEachWindowOnce: calibrating the default set on
// two workers pays one forward pass per distinct sentence window per
// model, the single-worker count, where one task per triple paid ~360
// against 290. The two layers each own half of it. Calibrate asks each
// model once per distinct (question, context) pair and sentence, which
// this test counts; and a model's signature memo pays one pass per
// window, however many pairs share one and however many workers meet it
// at once (TestSignatureMemoOnePassPerWindow in internal/slm).
func TestCalibrateComputesEachWindowOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates on 360 responses")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var counted []*sentenceCalls
	var models []slm.Model
	for _, m := range proposedModels() {
		c := &sentenceCalls{Model: m, calls: map[[3]string]int{}}
		counted = append(counted, c)
		models = append(models, c)
	}
	d, err := NewDetector("windows", Config{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(context.Background(), defaultTriples(t)); err != nil {
		t.Fatal(err)
	}
	calls, distinct := 0, 0
	for _, c := range counted {
		for _, n := range c.calls {
			calls += n
		}
		distinct += len(c.calls)
	}
	t.Logf("%d model calls, %d distinct (pair, sentence) keys", calls, distinct)
	if calls != distinct {
		t.Errorf("%d model calls for %d distinct (pair, sentence) keys: a sentence of a pair was asked about twice", calls, distinct)
	}
}

// badModel answers every call with p.
type badModel struct{ p float64 }

func (badModel) Name() string { return "bad" }
func (m badModel) YesProbability(context.Context, slm.VerifyRequest) (float64, error) {
	return m.p, nil
}

// TestDetectorRejectsNonProbabilities: an answer that is NaN, infinite
// or outside [0, 1] fails the online Score and Calibrate with a
// *ProbabilityError naming the model and the value, before anything
// reaches the scaler: no moment is observed and nothing is frozen.
func TestDetectorRejectsNonProbabilities(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	triples := defaultTriples(t)[:12]
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		for _, calibrate := range []bool{false, true} {
			good := slm.NewQwen2()
			d, err := NewDetector("bad", Config{Models: []slm.Model{good, badModel{p}}})
			if err != nil {
				t.Fatal(err)
			}
			if calibrate {
				err = d.Calibrate(context.Background(), triples)
			} else {
				tr := triples[0]
				_, err = d.Score(context.Background(), tr.Question, tr.Context, tr.Response)
			}
			var pe *ProbabilityError
			if !errors.As(err, &pe) {
				t.Errorf("p=%v calibrate=%v: err = %v, want a *ProbabilityError", p, calibrate, err)
				continue
			}
			if pe.Model != "bad" || math.Float64bits(pe.P) != math.Float64bits(p) {
				t.Errorf("p=%v calibrate=%v: error names model %q, value %v", p, calibrate, pe.Model, pe.P)
			}
			if d.Calibrated() {
				t.Errorf("p=%v calibrate=%v: the scaler was frozen", p, calibrate)
			}
			for _, name := range []string{good.Name(), "bad"} {
				if s, ok := d.Scaler().(*Normalizer).Moments(name); ok {
					t.Errorf("p=%v calibrate=%v: %s observed %d probabilities", p, calibrate, name, s.N)
				}
			}
		}
	}
}
