package slm

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/textproc"
	"repro/internal/tokenizer"
)

// Profile parameterizes a synthetic instruction-tuned verifier. Each
// field models one empirical property of real judge models that the
// paper's checker must cope with:
//
//   - Sharpness/Bias: how decisive the model is and its yes-bias;
//   - NoiseAmp: input-correlated idiosyncrasy (two models disagree on
//     the same borderline claim in model-specific ways);
//   - WeightJitter: per-model perturbation of evidence-feature weights,
//     standing in for differences in training data;
//   - DilutionHalfLife: attention dilution — a wrong detail buried in a
//     long, mostly-correct claim is penalized less than the same detail
//     alone (the paper's motivation for the splitter, §IV-A);
//   - OutputScale/OutputShift: affine mis-calibration, giving each
//     model a different score mean and variance (why Eq. 4 z-normalizes
//     per model);
//   - Quantize: when positive, probabilities are rounded to this many
//     levels, modelling P(True) estimated by sampling an API model n
//     times instead of reading logits.
type Profile struct {
	Name             string
	Sharpness        float64
	Bias             float64
	NoiseAmp         float64
	WeightJitter     float64
	DilutionHalfLife float64
	OutputScale      float64
	OutputShift      float64
	Quantize         int
	// QuantityMissRate is the per-claim probability (deterministic in
	// the model/input pair) that the model overlooks numeric/temporal
	// contradiction evidence — the "attention failure" mode of real
	// judge models. MiniCPM-class models are weaker here.
	QuantityMissRate float64
	// PolarityMissRate is the same failure for negation/antonym
	// contradictions — Qwen2-class models are weaker here. Because the
	// two models' blind spots are complementary, their errors are
	// nearly independent, which is precisely what the paper's
	// multi-SLM ensemble (Eq. 5) exploits.
	PolarityMissRate float64
	// FalseAlarmRate is the symmetric failure: a supported claim read
	// as contradicted.
	FalseAlarmRate float64
	// SubtletyBlindness scales how much a near-miss numeric conflict
	// (high ConflictProximity) escapes the model. Unlike the typed
	// miss rates, this failure is input-driven and therefore
	// CORRELATED across models: a hallucination adjacent to the truth
	// fools the whole ensemble, which is what caps best precision
	// below 1 in the paper's Fig. 4.
	SubtletyBlindness float64
}

// Predefined profiles for the models the paper evaluates. The numbers
// are not measurements of the real checkpoints; they encode the
// qualitative contrasts the paper relies on (distinct scales, distinct
// error patterns, API quantization for ChatGPT).
var (
	// Qwen2Profile simulates Qwen2-1.5B-Instruct: decisive, slightly
	// yes-biased, scores spread over most of [0, 1].
	Qwen2Profile = Profile{
		Name: "qwen2-1.5b-instruct", Sharpness: 2.4, Bias: 0.30,
		NoiseAmp: 1.10, WeightJitter: 0.15, DilutionHalfLife: 7.5,
		OutputScale: 0.92, OutputShift: 0.04,
		QuantityMissRate: 0.06, PolarityMissRate: 0.18, FalseAlarmRate: 0.25,
		SubtletyBlindness: 0.82,
	}
	// MiniCPMProfile simulates MiniCPM-2B-sft: a little blunter, a
	// compressed output range with a higher floor — a clearly
	// different scale from Qwen2, which is what makes Eq. 4 matter.
	MiniCPMProfile = Profile{
		Name: "minicpm-2b-sft", Sharpness: 2.1, Bias: -0.15,
		NoiseAmp: 1.25, WeightJitter: 0.20, DilutionHalfLife: 7.0,
		OutputScale: 0.68, OutputShift: 0.22,
		QuantityMissRate: 0.18, PolarityMissRate: 0.06, FalseAlarmRate: 0.28,
		SubtletyBlindness: 0.85,
	}
	// ChatGPTProfile simulates the paper's ChatGPT baseline: a
	// higher-quality judge (lower noise, sharper) that can only be
	// used through an API, so P(True) comes from a handful of sampled
	// yes/no answers — hence heavy quantization.
	ChatGPTProfile = Profile{
		Name: "chatgpt-3.5-p(true)", Sharpness: 3.0, Bias: 0.10,
		NoiseAmp: 0.80, WeightJitter: 0.08, DilutionHalfLife: 8.0,
		OutputScale: 1.0, OutputShift: 0.0, Quantize: 10,
		QuantityMissRate: 0.10, PolarityMissRate: 0.10, FalseAlarmRate: 0.08,
		SubtletyBlindness: 0.75,
	}
)

// featureWeights are the per-model evidence weights, jittered from the
// shared base so each model "was trained differently".
type featureWeights struct {
	uni, bi, conflict, match, antonym, negation, hedge, short float64
}

var baseWeights = featureWeights{
	uni: 1.05, bi: 0.85, conflict: 2.2, match: 0.30,
	antonym: 1.25, negation: 0.95, hedge: 0.10, short: 0.15,
}

// CalibratedVerifier is a Model whose yes-probability is a calibrated,
// noisy function of grounded evidence features. It is deterministic:
// probability = f(profile, question, context, claim). Its results depend
// on no hidden global state, though its work does: what it reads of a
// context and of a claim comes from a ring shared by every verifier in
// the process (prepared.go), computed by whichever asked first. Safe
// for concurrent use.
type CalibratedVerifier struct {
	profile Profile
	weights featureWeights
	net     *Transformer  // per-model idiosyncrasy network
	sigs    signatureMemo // token window fed to net → hidden signature
}

// idiosyncrasyConfig is the tiny network used only to derive a
// deterministic, model-specific signature of each input. Small on
// purpose: it runs once per (model, sentence) pair.
var idiosyncrasyConfig = Config{
	Dim: 32, Heads: 4, Layers: 2, FFNDim: 64, MaxSeq: 96,
}

// NewCalibrated builds a verifier from a profile. The model's
// idiosyncrasy network and feature weights are seeded from the profile
// name, so equal names mean identical behaviour.
func NewCalibrated(p Profile) (*CalibratedVerifier, error) {
	net, err := NewTransformer(idiosyncrasyConfig, tokenizer.New(), rng.HashString("slm-net:"+p.Name))
	if err != nil {
		return nil, err
	}
	// Every full window ends in the prompt's last line, each of its
	// words led by a space token.
	if err := net.keepTail(windowTok.Encode(" " + promptTail)); err != nil {
		return nil, err
	}
	src := rng.NewFromString("slm-weights:" + p.Name)
	jit := func(w float64) float64 { return w * (1 + p.WeightJitter*src.NormFloat64()) }
	v := &CalibratedVerifier{
		profile: p,
		weights: featureWeights{
			uni:      jit(baseWeights.uni),
			bi:       jit(baseWeights.bi),
			conflict: jit(baseWeights.conflict),
			match:    jit(baseWeights.match),
			antonym:  jit(baseWeights.antonym),
			negation: jit(baseWeights.negation),
			hedge:    jit(baseWeights.hedge),
			short:    jit(baseWeights.short),
		},
		net: net,
	}
	v.sigs.settled.L = &v.sigs.mu
	return v, nil
}

// MustCalibrated is NewCalibrated that panics on error; the predefined
// profiles are statically valid, so constructors for them use this.
func MustCalibrated(p Profile) *CalibratedVerifier {
	v, err := NewCalibrated(p)
	if err != nil {
		panic(err)
	}
	return v
}

// NewQwen2 returns the synthetic stand-in for Qwen2-1.5B-Instruct.
func NewQwen2() *CalibratedVerifier { return MustCalibrated(Qwen2Profile) }

// NewMiniCPM returns the synthetic stand-in for MiniCPM-2B-sft.
func NewMiniCPM() *CalibratedVerifier { return MustCalibrated(MiniCPMProfile) }

// NewChatGPTStyle returns the synthetic stand-in for the paper's
// ChatGPT P(True) baseline: good judgments, quantized probabilities.
func NewChatGPTStyle() *CalibratedVerifier { return MustCalibrated(ChatGPTProfile) }

// Name implements Model.
func (v *CalibratedVerifier) Name() string { return v.profile.Name }

// Profile returns the verifier's (immutable) profile.
func (v *CalibratedVerifier) Profile() Profile { return v.profile }

// YesProbability implements Model: the probability that the first
// generated token is "yes" for the Fig. 1 verification prompt.
func (v *CalibratedVerifier) YesProbability(ctx context.Context, req VerifyRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := req.Validate(); err != nil {
		return 0, err
	}
	c := prepared.context(req.Context)
	a := c.claim(req.Claim)
	// Hard-error draws are deterministic in (model, prompt): the same
	// model always misreads the same claim the same way, like a real
	// checkpoint, while different models fail on different claims.
	u := rng.New(misreadSeed(c, v.profile.Name, req))
	missQuantity := u.Float64() < v.profile.QuantityMissRate
	missPolarity := u.Float64() < v.profile.PolarityMissRate
	falseAlarm := u.Float64() < v.profile.FalseAlarmRate
	// Catch strength varies per (model, claim): a model that notices a
	// contradiction is not always equally sure of it. The spread makes
	// single worst-sentence statistics (Eq. 9's min) noisy while
	// averaging aggregators stay stable.
	catchStrength := 0.6 + 0.9*u.Float64()
	ev := v.evidenceScore(a.features, missQuantity, missPolarity, falseAlarm, catchStrength)
	idio, err := v.signature(promptWindow(a, req))
	if err != nil {
		return 0, err
	}
	logit := v.profile.Sharpness*ev + v.profile.Bias + v.profile.NoiseAmp*idio
	p := sigmoid(logit)
	p = v.profile.OutputShift + v.profile.OutputScale*p
	if math.IsNaN(p) || math.IsInf(p, 0) {
		// clampProb would pass NaN through and turn ±Inf into a
		// plausible-looking bound; only a non-finite profile gets here.
		return 0, fmt.Errorf("slm: %s: P(yes) is %v, not a probability", v.profile.Name, p)
	}
	p = clampProb(p, 1e-4)
	if q := v.profile.Quantize; q > 0 {
		p = math.Round(p*float64(q)) / float64(q)
		p = clampProb(p, 1e-4)
	}
	return p, nil
}

// misreadSeed is rng.HashString("slm-misread:" + model + "|" +
// VerificationPrompt(req)), hashed on from the state c, req's context,
// keeps for the model and question.
func misreadSeed(c *preparedContext, model string, req VerifyRequest) uint64 {
	h := fnv1a(fnv1a(c.seed(model, req.Question), req.Claim), promptTail)
	return rng.SplitMix64(&h)
}

// promptWindow is the windowKey of the last MaxSeq tokens of
// VerificationPrompt(req), the window the network reads, given a, the
// analysis of req's claim against its context. Only a claim too short
// to fill the window needs the prompt.
func promptWindow(a *claimAnalysis, req VerifyRequest) string {
	if a.window != "" {
		return a.window
	}
	return windowKey(windowTok.EncodeTail(VerificationPrompt(req), idiosyncrasyConfig.MaxSeq))
}

// evidenceScore folds the feature vector into a centered score,
// positive for supported claims, negative for contradicted ones.
// Contradiction penalties decay exponentially with claim length: a
// model reading a long, mostly-correct passage under-weights the one
// wrong detail buried in it (exactly why the paper splits responses
// into sentences first). missQuantity/missPolarity drop the
// corresponding contradiction evidence entirely; falseAlarm injects a
// phantom contradiction.
func (v *CalibratedVerifier) evidenceScore(f textproc.Features, missQuantity, missPolarity, falseAlarm bool, catchStrength float64) float64 {
	w := v.weights
	support := w.uni*f.UnigramSupport + w.bi*f.BigramSupport
	support /= w.uni + w.bi // normalize to [0, 1]

	dil := math.Exp(-float64(f.ClaimLength) / v.profile.DilutionHalfLife)
	var penaltyUnits float64
	matches := float64(f.QuantityMatches)
	if !missQuantity {
		// Near-miss conflicts slip past the model in proportion to
		// their proximity to the truth — and a model that glosses over
		// "day 26" vs "day 25" doesn't merely skip the conflict, it
		// reads the claimed value as corroborated.
		blindness := v.profile.SubtletyBlindness * f.ConflictProximity
		penaltyUnits += w.conflict * float64(f.QuantityConflicts) * (1 - blindness)
		// A glossed-over near-miss reads as corroboration...
		matches += float64(f.QuantityConflicts) * blindness
	}
	// ...whereas a typed attention miss simply drops the evidence:
	// the model neither penalizes nor credits the unnoticed value.
	if !missPolarity {
		penaltyUnits += w.antonym * float64(f.AntonymClashes)
		if f.NegationMismatch {
			penaltyUnits += w.negation
		}
	}
	penaltyUnits *= catchStrength
	if falseAlarm {
		// A phantom contradiction is weaker than a real one (and is
		// not amplified by catch strength): the claim still enjoys
		// full lexical support and corroborated facts, so a second,
		// clean model can outvote the mistake — the ensemble benefit
		// the paper measures.
		penaltyUnits += 0.3 * w.conflict
	}
	bonus := dil * w.match * matches
	score := (support - 0.5) + bonus - dil*penaltyUnits - w.hedge*float64(f.Hedges)
	if f.ClaimLength <= 2 {
		score -= w.short
	}
	// Long claims wash out the model's overall judgment, not just the
	// contradiction term: the noise floor stays constant while the
	// usable signal shrinks. γ controls how much of the score decays
	// with the dilution factor.
	const gamma = 0.5
	score *= (1 - gamma) + gamma*dil
	return score
}

// signature returns the hidden-state signature of a token window (a
// windowKey) under this model's private network, memoized on the
// window: the last MaxSeq tokens of the prompt, all HiddenSignature
// reads of it. Keying on the window rather than the whole prompt lets
// prompts that share it share the entry, and bounds a key at a few
// bytes per token of it.
func (v *CalibratedVerifier) signature(window string) (float64, error) {
	return v.sigs.get(window, v.pass)
}

// pass runs the network on a token window.
func (v *CalibratedVerifier) pass(window string) (float64, error) {
	return v.net.HiddenSignature(windowIDs(window))
}

// signatureMemo memoizes signatures by token window. A window's first
// caller runs its pass, and a caller that meets the window while that
// pass runs waits for it, so a window costs one pass however many
// callers meet it at once — as calibration's workers do where
// (question, context) pairs share a sentence's window.
type signatureMemo struct {
	mu      sync.Mutex
	settled sync.Cond // on mu; broadcast when a pass ends
	entries map[string]memoEntry
}

// memoEntry is a window's signature, or pending while its pass runs.
type memoEntry struct {
	s       float64
	pending bool
}

// get returns the signature of window, from the memo or from pass. A
// pass that fails or panics leaves no entry, so whoever waited on it
// runs its own.
func (m *signatureMemo) get(window string, pass func(string) (float64, error)) (s float64, err error) {
	m.mu.Lock()
	for {
		e, ok := m.entries[window]
		if !ok {
			break
		}
		if !e.pending {
			m.mu.Unlock()
			return e.s, nil
		}
		m.settled.Wait()
	}
	// Cheap bound on the memoization table; verification workloads
	// revisit the same sentences across threshold sweeps, so hit rates
	// are high, but an adversarial stream must not grow it unbounded.
	if m.entries == nil || len(m.entries) > 1<<16 {
		m.entries = map[string]memoEntry{}
	}
	m.entries[window] = memoEntry{pending: true}
	m.mu.Unlock()
	ok := false // stays false if pass panics
	defer func() {
		m.mu.Lock()
		if ok {
			m.entries[window] = memoEntry{s: s}
		} else {
			delete(m.entries, window)
		}
		m.settled.Broadcast()
		m.mu.Unlock()
	}()
	s, err = pass(window)
	ok = err == nil
	return s, err
}

// Oracle is a Model that returns the grounded support score directly,
// with no noise or miscalibration. It is the "perfect verifier" upper
// bound used in tests and ablations; the framework never needs it.
type Oracle struct{}

// Name implements Model.
func (Oracle) Name() string { return "oracle" }

// YesProbability implements Model with the noise-free support score.
func (Oracle) YesProbability(ctx context.Context, req VerifyRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := req.Validate(); err != nil {
		return 0, err
	}
	return textproc.ExtractFeatures(req.Claim, req.Context).SupportScore(), nil
}

// Constant is a Model that always answers with a fixed probability —
// degenerate on purpose, for exercising the checker's edge cases
// (σ = 0 streams, all-equal scores).
type Constant struct {
	// ModelName is returned by Name.
	ModelName string
	// P is the fixed probability returned for every request.
	P float64
}

// Name implements Model.
func (c Constant) Name() string { return c.ModelName }

// YesProbability implements Model, returning the fixed probability.
func (c Constant) YesProbability(ctx context.Context, req VerifyRequest) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := req.Validate(); err != nil {
		return 0, err
	}
	return c.P, nil
}
