package slm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var hoursContext = "The store operates from 9 AM to 5 PM, from Sunday to Saturday. " +
	"There should be at least three shopkeepers to run a shop."

func req(claim string) VerifyRequest {
	return VerifyRequest{
		Question: "What are the working hours?",
		Context:  hoursContext,
		Claim:    claim,
	}
}

func TestVerifyRequestValidate(t *testing.T) {
	if err := (VerifyRequest{Claim: "x"}).Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	if err := (VerifyRequest{Claim: "  "}).Validate(); err == nil {
		t.Error("blank claim accepted")
	}
}

func TestVerificationPromptShape(t *testing.T) {
	p := VerificationPrompt(req("The hours are 9 AM to 5 PM."))
	for _, want := range []string{"Question:", "Context:", "Answer:", "YES", "NO"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q:\n%s", want, p)
		}
	}
}

func TestCalibratedProbabilityRange(t *testing.T) {
	ctx := context.Background()
	for _, m := range []Model{NewQwen2(), NewMiniCPM(), NewChatGPTStyle()} {
		for _, claim := range []string{
			"The working hours are 9 AM to 5 PM.",
			"The working hours are 9 AM to 9 PM.",
			"Chocolate is a key ingredient.",
		} {
			p, err := m.YesProbability(ctx, req(claim))
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if p <= 0 || p >= 1 {
				t.Errorf("%s: probability %v not strictly inside (0,1)", m.Name(), p)
			}
		}
	}
}

func TestCalibratedDeterminism(t *testing.T) {
	ctx := context.Background()
	a, b := NewQwen2(), NewQwen2()
	r := req("The working hours are 9 AM to 5 PM.")
	pa, err := a.YesProbability(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.YesProbability(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Errorf("two instances of the same model disagree: %v vs %v", pa, pb)
	}
	// Repeated calls (cache path) agree too.
	pa2, _ := a.YesProbability(ctx, r)
	if pa != pa2 {
		t.Error("cached call diverged")
	}
}

func TestModelsDisagree(t *testing.T) {
	// Different models must produce different scores on the same
	// input — otherwise Eq. 5's ensemble would be pointless.
	ctx := context.Background()
	r := req("The working hours are 9 AM to 5 PM.")
	pq, _ := NewQwen2().YesProbability(ctx, r)
	pm, _ := NewMiniCPM().YesProbability(ctx, r)
	if pq == pm {
		t.Errorf("Qwen2 and MiniCPM agree exactly (%v); profiles not differentiated", pq)
	}
}

func TestSupportedScoresAboveContradicted(t *testing.T) {
	// Averaged over many items the supported claims must score
	// higher; individual inversions are allowed (that's the noise the
	// ensemble exists for).
	ctx := context.Background()
	m := NewQwen2()
	supported := []string{
		"The working hours are 9 AM to 5 PM.",
		"The store is open from Sunday to Saturday.",
		"At least three shopkeepers are needed to run a shop.",
	}
	contradicted := []string{
		"The working hours are 9 AM to 9 PM.",
		"The store is open from Monday to Friday.",
		"You do not need to work on weekends.",
	}
	var sumS, sumC float64
	for _, c := range supported {
		p, err := m.YesProbability(ctx, req(c))
		if err != nil {
			t.Fatal(err)
		}
		sumS += p
	}
	for _, c := range contradicted {
		p, err := m.YesProbability(ctx, req(c))
		if err != nil {
			t.Fatal(err)
		}
		sumC += p
	}
	if sumS <= sumC {
		t.Errorf("supported mean %.3f not above contradicted mean %.3f", sumS/3, sumC/3)
	}
}

func TestChatGPTQuantization(t *testing.T) {
	ctx := context.Background()
	m := NewChatGPTStyle()
	q := float64(m.Profile().Quantize)
	claims := []string{
		"The working hours are 9 AM to 5 PM.",
		"The working hours are 9 AM to 9 PM.",
		"The store is open from Monday to Friday.",
	}
	for _, c := range claims {
		p, err := m.YesProbability(ctx, req(c))
		if err != nil {
			t.Fatal(err)
		}
		scaled := p * q
		rounded := float64(int(scaled + 0.5))
		// Either exactly on the grid or clamped at the extremes.
		if diff := scaled - rounded; diff > 1e-9 || diff < -1e-9 {
			if p > 0.0001 && p < 0.9999 {
				t.Errorf("P(True)=%v is not on the %v-level grid", p, q)
			}
		}
	}
}

func TestCalibratedRejectsEmptyClaim(t *testing.T) {
	ctx := context.Background()
	if _, err := NewQwen2().YesProbability(ctx, VerifyRequest{Claim: " "}); err == nil {
		t.Error("empty claim accepted")
	}
}

// TestCalibratedRejectsNonFiniteProbability: a profile with a
// non-finite field makes P(yes) NaN or ±Inf, which must come back as an
// error, not as a NaN or a clamped bound.
func TestCalibratedRejectsNonFiniteProbability(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		edit func(*Profile)
	}{
		{"nan-scale", func(p *Profile) { p.OutputScale = math.NaN() }},
		{"inf-scale", func(p *Profile) { p.OutputScale = math.Inf(1) }},
		{"nan-shift", func(p *Profile) { p.OutputShift = math.NaN() }},
		{"nan-sharpness", func(p *Profile) { p.Sharpness = math.NaN() }},
	} {
		p := Qwen2Profile
		p.Name = c.name
		c.edit(&p)
		v, err := NewCalibrated(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := v.YesProbability(ctx, req("The working hours are 9 AM to 5 PM.")); err == nil {
			t.Errorf("%s: P(yes) = %v with no error", c.name, got)
		}
	}
}

func TestCalibratedHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewQwen2().YesProbability(ctx, req("anything")); err == nil {
		t.Error("cancelled context not honoured")
	}
}

func TestCalibratedConcurrent(t *testing.T) {
	// The verifier shares a signature cache across goroutines; hammer
	// it to catch races (run with -race).
	m := NewQwen2()
	ctx := context.Background()
	var wg sync.WaitGroup
	claims := []string{
		"The working hours are 9 AM to 5 PM.",
		"The working hours are 9 AM to 9 PM.",
		"The store is open from Monday to Friday.",
		"At least three shopkeepers are needed.",
	}
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := m.YesProbability(ctx, req(claims[i%len(claims)])); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSignatureMemoOnePassPerWindow: callers that meet one window
// while its pass runs wait for it, so eight at once pay one
// HiddenSignature between them and all get its bits, and a later
// caller pays none.
func TestSignatureMemoOnePassPerWindow(t *testing.T) {
	v := NewQwen2()
	window := windowKey(windowTok.EncodeTail(VerificationPrompt(req("At least three shopkeepers are needed.")), idiosyncrasyConfig.MaxSeq))
	want, err := v.net.HiddenSignature(windowIDs(window))
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var passes atomic.Int32
	var started, wg sync.WaitGroup
	started.Add(callers)
	pass := func(w string) (float64, error) {
		passes.Add(1)
		started.Wait() // no pass ends before every caller has set off
		return v.pass(w)
	}
	got, errs := make([]float64, callers+1), make([]error, callers+1)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			got[i], errs[i] = v.sigs.get(window, pass)
		}()
	}
	wg.Wait()
	got[callers], errs[callers] = v.sigs.get(window, pass)
	if n := passes.Load(); n != 1 {
		t.Errorf("%d callers of one window paid %d forward passes, want 1", callers+1, n)
	}
	for i, s := range got {
		if errs[i] != nil || math.Float64bits(s) != math.Float64bits(want) {
			t.Errorf("caller %d: %v, %v; the pass gives %v", i, s, errs[i], want)
		}
	}
}

// TestSignatureMemoForgetsFailures: a pass that fails or panics leaves
// no entry behind, so the next caller runs its own.
func TestSignatureMemoForgetsFailures(t *testing.T) {
	var m signatureMemo
	m.settled.L = &m.mu
	boom := errors.New("boom")
	if _, err := m.get("w", func(string) (float64, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want the pass's", err)
	}
	func() {
		defer func() { recover() }()
		m.get("w", func(string) (float64, error) { panic("pass") })
	}()
	s, err := m.get("w", func(string) (float64, error) { return 0.25, nil })
	if s != 0.25 || err != nil {
		t.Fatalf("after a failed and a panicked pass: %v, %v; want the third pass's 0.25", s, err)
	}
	if s, _ := m.get("w", func(string) (float64, error) { return 1, nil }); s != 0.25 {
		t.Fatalf("a settled window ran its pass again: %v", s)
	}
}

// TestCalibratedContextSlots: more distinct contexts than the verifier
// keeps prepared, from 8 goroutines in different orders, so slots are
// evicted and refilled while others read them (run with -race). Every
// answer equals, to the bit, the one features extracted from the two
// strings give.
func TestCalibratedContextSlots(t *testing.T) {
	m := NewQwen2()
	ctx := context.Background()
	var reqs []VerifyRequest
	for i := 0; i < 3*contextSlots/2; i++ {
		r := req("The working hours are 9 AM to 5 PM.")
		r.Context = fmt.Sprintf("%s Branch %d opens %d days a week, not on holidays.", hoursContext, i, i%7+1)
		reqs = append(reqs, r)
	}
	want := make([]float64, len(reqs))
	for i, r := range reqs {
		v := NewQwen2() // a fresh verifier: nothing prepared yet
		p, err := v.YesProbability(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*len(reqs); k++ {
				i := (k*(w+1) + w) % len(reqs)
				p, err := m.YesProbability(ctx, reqs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(p) != math.Float64bits(want[i]) {
					t.Errorf("context %d: P(yes) = %v, want %v", i, p, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestOracle(t *testing.T) {
	ctx := context.Background()
	good, err := Oracle{}.YesProbability(ctx, req("The working hours are 9 AM to 5 PM."))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Oracle{}.YesProbability(ctx, req("The working hours are 9 AM to 9 PM."))
	if err != nil {
		t.Fatal(err)
	}
	if good <= bad {
		t.Errorf("oracle good %v not above bad %v", good, bad)
	}
	if (Oracle{}).Name() != "oracle" {
		t.Error("oracle name")
	}
}

func TestConstant(t *testing.T) {
	ctx := context.Background()
	c := Constant{ModelName: "const", P: 0.42}
	p, err := c.YesProbability(ctx, req("x"))
	if err != nil || p != 0.42 {
		t.Errorf("Constant = %v, %v", p, err)
	}
	if c.Name() != "const" {
		t.Error("Constant name")
	}
}

func TestNewCalibratedProfilesDiffer(t *testing.T) {
	// Two verifiers with different names must get different jittered
	// weights and different idiosyncrasy networks.
	a := MustCalibrated(Profile{Name: "model-a", Sharpness: 2, NoiseAmp: 0.5, DilutionHalfLife: 7, OutputScale: 1})
	b := MustCalibrated(Profile{Name: "model-b", Sharpness: 2, NoiseAmp: 0.5, DilutionHalfLife: 7, OutputScale: 1})
	ctx := context.Background()
	r := req("The working hours are 9 AM to 5 PM.")
	pa, _ := a.YesProbability(ctx, r)
	pb, _ := b.YesProbability(ctx, r)
	if pa == pb {
		t.Error("differently-named profiles behave identically")
	}
}
