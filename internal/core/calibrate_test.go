package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/slm"
	"repro/internal/tokenizer"
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

// signatureWindow is the length of the token window a CalibratedVerifier
// feeds its network and keys its signature memo on (the network's
// MaxSeq).
const signatureWindow = 96

// windowMemo stands in front of a model with a memo keyed the way
// CalibratedVerifier keys its signature memo: look up under the lock,
// call the model outside it, and on a miss store the key. Its misses
// are the forward passes such a memo pays for.
type windowMemo struct {
	slm.Model
	tok    *tokenizer.Tokenizer
	mu     sync.Mutex
	seen   map[string]bool
	passes int
}

func (w *windowMemo) YesProbability(ctx context.Context, req slm.VerifyRequest) (float64, error) {
	ids := w.tok.Encode(slm.VerificationPrompt(req))
	if len(ids) > signatureWindow {
		ids = ids[len(ids)-signatureWindow:]
	}
	var key []byte
	for _, id := range ids {
		key = binary.AppendUvarint(key, uint64(id))
	}
	w.mu.Lock()
	hit := w.seen[string(key)]
	w.mu.Unlock()
	p, err := w.Model.YesProbability(ctx, req)
	if err == nil && !hit {
		w.mu.Lock()
		w.passes++
		w.seen[string(key)] = true
		w.mu.Unlock()
	}
	return p, err
}

// TestCalibrateComputesEachWindowOnce: calibrating the default set on
// two workers pays one forward pass per distinct sentence window per
// model, the single-worker count, where one task per triple paid ~360
// against 290.
func TestCalibrateComputesEachWindowOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates on 360 responses")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var memos []*windowMemo
	var models []slm.Model
	for _, m := range proposedModels() {
		w := &windowMemo{Model: m, tok: tokenizer.New(), seen: map[string]bool{}}
		memos = append(memos, w)
		models = append(models, w)
	}
	d, err := NewDetector("windows", Config{Models: models})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(context.Background(), defaultTriples(t)); err != nil {
		t.Fatal(err)
	}
	passes, windows := 0, 0
	for _, w := range memos {
		passes += w.passes
		windows += len(w.seen)
	}
	t.Logf("%d forward passes, %d distinct windows", passes, windows)
	if passes != windows {
		t.Errorf("%d forward passes for %d distinct windows: a window was computed on two workers at once", passes, windows)
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
