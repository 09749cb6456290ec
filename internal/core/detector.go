package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/parallel"
	"repro/internal/slm"
	"repro/internal/splitter"
)

// Splitter turns a response r_i into sub-responses r_{i,j} (§IV-A).
type Splitter func(string) []string

// SentenceSplitter is the default Splitter: the rule-based sentence
// segmenter standing in for SpaCy.
func SentenceSplitter(text string) []string { return splitter.Split(text) }

// WholeResponse is the identity Splitter used by the P(yes) and
// ChatGPT baselines: the entire response is checked in one piece.
func WholeResponse(text string) []string {
	t := strings.TrimSpace(text)
	if t == "" {
		return nil
	}
	return []string{t}
}

// Config assembles a Detector. The zero value is not usable; use
// NewDetector which validates and fills defaults.
type Config struct {
	// Models are the M verifiers of Eq. 5. At least one is required.
	Models []slm.Model
	// Split maps a response to checkable units; nil means
	// SentenceSplitter.
	Split Splitter
	// Aggregate combines sentence scores (Eq. 6–10); defaults to
	// Harmonic, the paper's proposed choice.
	Aggregate Mean
	// Scale normalizes per-model scores; nil means a fresh Normalizer
	// (Eq. 4).
	Scale Scaler
	// Combine merges the standardized per-model scores of a sentence
	// (Eq. 5); nil means the uniform mean. Gating combiners implement
	// the paper's §VI future-work extension.
	Combine Combiner
	// Shift is added to every sentence score s_{i,j} before
	// aggregation, implementing the paper's positivity adjustment
	// under Eq. 6 while preserving score magnitudes (z-scores live in
	// roughly [-3, 3], so the default shift of 3 moves nearly all mass
	// above zero). 0 means DefaultShift.
	Shift float64
	// Floor replaces sentence scores that remain non-positive after
	// the shift; 0 means DefaultFloor.
	Floor float64
	// Workers bounds concurrent model calls per Score invocation.
	// 0 or 1 means sequential. Parallel scoring requires a frozen (or
	// identity) Scaler; Score reports an error otherwise, because
	// online moment updates would make results order-dependent.
	Workers int
}

// Detector is the assembled checking pipeline of Fig. 2 (b). Safe for
// concurrent use when its Scaler is frozen or stateless.
type Detector struct {
	name    string
	models  []slm.Model
	split   Splitter
	agg     Mean
	scale   Scaler
	combine Combiner
	shift   float64
	floor   float64
	workers int
}

// NewDetector validates cfg and builds a Detector. name labels the
// approach in reports ("Proposed", "P(yes)", ...).
func NewDetector(name string, cfg Config) (*Detector, error) {
	if len(cfg.Models) == 0 {
		return nil, errors.New("core: at least one model is required")
	}
	seen := map[string]struct{}{}
	for _, m := range cfg.Models {
		if m == nil {
			return nil, errors.New("core: nil model")
		}
		if _, dup := seen[m.Name()]; dup {
			return nil, fmt.Errorf("core: duplicate model name %q (normalization would conflate them)", m.Name())
		}
		seen[m.Name()] = struct{}{}
	}
	d := &Detector{
		name:    name,
		models:  append([]slm.Model(nil), cfg.Models...),
		split:   cfg.Split,
		agg:     cfg.Aggregate,
		scale:   cfg.Scale,
		combine: cfg.Combine,
		shift:   cfg.Shift,
		floor:   cfg.Floor,
		workers: cfg.Workers,
	}
	if d.split == nil {
		d.split = SentenceSplitter
	}
	if d.scale == nil {
		d.scale = NewNormalizer()
	}
	if d.combine == nil {
		d.combine = UniformCombiner{}
	}
	if d.shift == 0 {
		d.shift = DefaultShift
	}
	if d.shift < 0 {
		return nil, fmt.Errorf("core: negative shift %v", d.shift)
	}
	if d.floor == 0 {
		d.floor = DefaultFloor
	}
	if d.floor < 0 {
		return nil, fmt.Errorf("core: negative floor %v", d.floor)
	}
	if d.workers < 0 {
		return nil, fmt.Errorf("core: negative workers %v", d.workers)
	}
	return d, nil
}

// Name returns the approach label.
func (d *Detector) Name() string { return d.name }

// Models returns the detector's verifier list (shared slice copy).
func (d *Detector) Models() []slm.Model { return append([]slm.Model(nil), d.models...) }

// Scaler exposes the detector's normalization state so a harness can
// calibrate and freeze it.
func (d *Detector) Scaler() Scaler { return d.scale }

// Calibrated reports whether scoring is a pure function of its inputs:
// true unless the scaler is a Normalizer still accumulating online
// moments. Result caches and parallel scoring require this.
func (d *Detector) Calibrated() bool {
	n, ok := d.scale.(*Normalizer)
	return !ok || n.Frozen()
}

// SentenceScore records the verification of one split sentence.
type SentenceScore struct {
	// Sentence is the split unit r_{i,j}.
	Sentence string
	// Raw holds each model's P(token1 = yes), keyed by model name
	// (Eq. 3).
	Raw map[string]float64
	// Combined is s_{i,j}: the mean of the models' standardized scores
	// (Eq. 4–5).
	Combined float64
}

// Verdict is the framework's output for one response.
type Verdict struct {
	// Score is s_i, the aggregated response score (Eq. 6).
	Score float64
	// Sentences holds the per-sentence breakdown, in response order.
	Sentences []SentenceScore
}

// IsCorrect applies the paper's decision rule: the response is labeled
// correct when its score strictly exceeds the threshold.
func (v Verdict) IsCorrect(threshold float64) bool { return v.Score > threshold }

// ErrEmptyResponse is returned when the splitter yields no checkable
// sentences.
var ErrEmptyResponse = errors.New("core: response has no checkable sentences")

// Score runs the full pipeline of Fig. 2 (b) for one
// (question, context, response) triple, with the detector's configured
// Workers bounding concurrent model calls.
func (d *Detector) Score(ctx context.Context, question, contextText, response string) (Verdict, error) {
	return d.ScoreWorkers(ctx, question, contextText, response, d.workers)
}

// ScoreWorkers is Score with the bound on concurrent model calls given
// by the caller (0 or 1 means sequential) — a server sizes it to the
// machine rather than to the detector's configuration. More than one
// worker requires a calibrated detector. The verdict is bit-identical
// for every worker count: calls fill a [sentence][model] matrix by
// index and Eq. 4–6 run over it in order afterwards.
func (d *Detector) ScoreWorkers(ctx context.Context, question, contextText, response string, workers int) (Verdict, error) {
	sentences := d.split(response)
	if len(sentences) == 0 {
		return Verdict{}, fmt.Errorf("%w: %q", ErrEmptyResponse, response)
	}
	if workers > 1 && !d.Calibrated() {
		return Verdict{}, errors.New("core: parallel scoring requires a frozen normalizer (calibrate first)")
	}
	raw, err := d.yesProbabilities(ctx, question, contextText, sentences, workers)
	if err != nil {
		return Verdict{}, err
	}
	return d.assemble(sentences, raw)
}

// ProbabilityError reports a model answer that is not a probability:
// NaN, ±Inf or a value outside [0, 1]. No such value reaches the scaler,
// so one bad answer cannot poison the Eq. 4 moments.
type ProbabilityError struct {
	Model string
	P     float64
}

func (e *ProbabilityError) Error() string {
	return fmt.Sprintf("core: model %s returned P(yes) = %v, not a probability in [0, 1]", e.Model, e.P)
}

// yesProbabilities is the one place the (sentence × model) calls of
// Eq. 3 are issued: raw[si][mi] = P_mi(yes | q, c, r_si), on up to
// `workers` goroutines. The first failing call cancels the context the
// remaining calls see, and its error — naming the model — is returned;
// an answer outside [0, 1] fails its call with a *ProbabilityError.
func (d *Detector) yesProbabilities(ctx context.Context, question, contextText string, sentences []string, workers int) ([][]float64, error) {
	nm := len(d.models)
	raw := make([][]float64, len(sentences))
	for si := range raw {
		raw[si] = make([]float64, nm)
	}
	err := forEach(ctx, len(sentences)*nm, workers, func(ctx context.Context, i int) error {
		si, mi := i/nm, i%nm
		p, err := d.models[mi].YesProbability(ctx, slm.VerifyRequest{
			Question: question, Context: contextText, Claim: sentences[si],
		})
		if err != nil {
			return fmt.Errorf("core: model %s: %w", d.models[mi].Name(), err)
		}
		if !(p >= 0 && p <= 1) {
			return &ProbabilityError{Model: d.models[mi].Name(), P: p}
		}
		raw[si][mi] = p
		return nil
	})
	return raw, err
}

// forEach runs fn(ctx, i) for every i in [0, n) on up to `workers`
// goroutines (parallel.ForWorkers; 0 or 1 runs inline). The first
// error wins: it cancels the context every later call receives and is
// the one returned. Once the context is done — that error, or the
// caller giving up — the remaining indices are skipped, not called.
func forEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		first error
	)
	parallel.ForWorkers(n, workers, func(i int) {
		err := ctx.Err()
		if err == nil {
			err = fn(ctx, i)
		}
		if err != nil {
			once.Do(func() {
				first = err
				cancel()
			})
		}
	})
	return first
}

// assemble applies Eq. 4–6 to the raw probability matrix. The paper's
// positivity adjustment ("any values less than or equal to zero are
// adjusted") is applied to every sentence score s_{i,j} before
// aggregation, uniformly across all means, so the Fig. 5 comparison
// varies only the aggregation function.
func (d *Detector) assemble(sentences []string, raw [][]float64) (Verdict, error) {
	verdict := Verdict{Sentences: make([]SentenceScore, len(sentences))}
	combined := make([]float64, len(sentences))
	zbuf := make([]float64, len(d.models))
	for si, sentence := range sentences {
		ss := SentenceScore{Sentence: sentence, Raw: make(map[string]float64, len(d.models))}
		for mi, m := range d.models {
			p := raw[si][mi]
			ss.Raw[m.Name()] = p
			d.scale.Observe(m.Name(), p)
			zbuf[mi] = d.scale.Standardize(m.Name(), p)
		}
		ss.Combined = d.combine.Combine(zbuf) // Eq. 5 (or a §VI gate)
		adjusted := ss.Combined + d.shift
		if adjusted <= 0 {
			adjusted = d.floor
		}
		combined[si] = adjusted
		verdict.Sentences[si] = ss
	}
	score, err := d.agg.Aggregate(combined, d.floor) // Eq. 6
	if err != nil {
		return Verdict{}, err
	}
	verdict.Score = score
	return verdict, nil
}

// Calibrate runs the detector's models over the given triples purely to
// accumulate normalization moments (the "previous responses" of Eq. 4),
// then freezes the scaler. It is the recommended preparation step
// before batch evaluation or parallel scoring.
//
// The model calls — all of the cost — fan out over GOMAXPROCS workers,
// one (question, context) pair per task: the triples that share it run
// in order on one worker, which asks the models about each distinct
// sentence of the pair once and reuses its row of probabilities where
// a later response repeats it (a model answers equal requests equally,
// as slm.Model requires). Tasks go out in the order their pair first
// appears. The models must be safe for concurrent use, as slm.Model
// requires of every implementation. The moments do not depend on that
// schedule: Welford updates are order-dependent, so the raw
// probabilities are collected by index first and observed afterwards
// in triple → sentence → model order, the order a sequential pass
// would produce. On error (the first failing call's, naming its model,
// or ctx's) nothing is observed and nothing frozen.
func (d *Detector) Calibrate(ctx context.Context, triples []Triple) error {
	type pair struct{ question, context string }
	var groups [][]int // triple indices per pair, in first-appearance order
	group := map[pair]int{}
	for i, t := range triples {
		k := pair{t.Question, t.Context}
		g, ok := group[k]
		if !ok {
			g = len(groups)
			group[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	raw := make([][][]float64, len(triples)) // [triple][sentence][model]
	err := forEach(ctx, len(groups), runtime.GOMAXPROCS(0), func(ctx context.Context, g int) error {
		rows := map[string][]float64{} // sentence → its P(yes) row, for this pair
		var fresh []string
		for _, i := range groups[g] {
			t := triples[i]
			sentences := d.split(t.Response)
			fresh = fresh[:0]
			for _, s := range sentences {
				if _, seen := rows[s]; !seen {
					rows[s] = nil
					fresh = append(fresh, s)
				}
			}
			probs, err := d.yesProbabilities(ctx, t.Question, t.Context, fresh, 1)
			if err != nil {
				return err
			}
			for fi, s := range fresh {
				rows[s] = probs[fi]
			}
			raw[i] = make([][]float64, len(sentences))
			for si, s := range sentences {
				raw[i][si] = rows[s]
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: calibrate: %w", err)
	}
	for _, sentences := range raw {
		for _, probs := range sentences {
			for mi, m := range d.models {
				d.scale.Observe(m.Name(), probs[mi])
			}
		}
	}
	d.scale.Freeze()
	return nil
}

// Triple is one (question, context, response) unit of work.
type Triple struct {
	Question string
	Context  string
	Response string
}
