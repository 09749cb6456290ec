package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/slm"
)

// This file wires the five approaches of §V-C. Each constructor
// returns a fresh Detector with its own normalization state.

// proposedModels returns fresh instances of the paper's two SLMs. Each
// network's weights are drawn from a source of its own, so the two are
// built at once and no draw moves.
func proposedModels() []slm.Model {
	var qwen2 *slm.CalibratedVerifier
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qwen2 = slm.NewQwen2()
	}()
	miniCPM := slm.NewMiniCPM()
	wg.Wait()
	return []slm.Model{qwen2, miniCPM}
}

// NewProposed builds the paper's proposed framework: Qwen2 and MiniCPM
// as the SLMs, sentence splitting, per-model z-normalization and
// harmonic aggregation.
func NewProposed() (*Detector, error) {
	return NewDetector("Proposed", Config{
		Models:    proposedModels(),
		Aggregate: Harmonic,
	})
}

// NewProposedWithMean is NewProposed with a different sentence
// aggregation — the §V-E means study.
func NewProposedWithMean(m Mean) (*Detector, error) {
	return NewDetector(fmt.Sprintf("Proposed[%s]", m), Config{
		Models:    proposedModels(),
		Aggregate: m,
	})
}

// NewSingleSLM builds the single-model variants ("Qwen2", "MiniCPM"):
// the proposed pipeline with only one SLM.
func NewSingleSLM(name string, model slm.Model) (*Detector, error) {
	return NewDetector(name, Config{
		Models:    []slm.Model{model},
		Aggregate: Harmonic,
	})
}

// NewPYes builds the P(yes) baseline: the whole response is checked in
// one call with Qwen2's raw first-token probability — no splitter, no
// normalization.
func NewPYes() (*Detector, error) {
	return NewDetector("P(yes)", Config{
		Models:    []slm.Model{slm.NewQwen2()},
		Split:     WholeResponse,
		Aggregate: Arithmetic, // single value; any mean is identical
		Scale:     Identity{},
	})
}

// NewChatGPT builds the ChatGPT baseline: whole-response P(True)
// estimated through an API-style judge (quantized probabilities).
func NewChatGPT() (*Detector, error) {
	return NewDetector("ChatGPT", Config{
		Models:    []slm.Model{slm.NewChatGPTStyle()},
		Split:     WholeResponse,
		Aggregate: Arithmetic,
		Scale:     Identity{},
	})
}

// Approaches returns the full §V-C lineup in the paper's order:
// Proposed, ChatGPT, P(yes), Qwen2, MiniCPM. Each detector is freshly
// constructed with independent normalization state.
func Approaches() ([]*Detector, error) {
	proposed, err := NewProposed()
	if err != nil {
		return nil, err
	}
	chatgpt, err := NewChatGPT()
	if err != nil {
		return nil, err
	}
	pyes, err := NewPYes()
	if err != nil {
		return nil, err
	}
	qwen, err := NewSingleSLM("Qwen2", slm.NewQwen2())
	if err != nil {
		return nil, err
	}
	minicpm, err := NewSingleSLM("MiniCPM", slm.NewMiniCPM())
	if err != nil {
		return nil, err
	}
	return []*Detector{proposed, chatgpt, pyes, qwen, minicpm}, nil
}

// ScoredTriple pairs a Triple with its Verdict.
type ScoredTriple struct {
	Triple
	Verdict Verdict
}

// BatchScore scores many triples concurrently with `workers`
// goroutines (1 = sequential), preserving input order in the result.
// The detector's scaler must be frozen (or stateless) when workers > 1.
// It fails fast on the first error, which cancels the triples still
// running — the behaviour the experiment harness wants.
func (d *Detector) BatchScore(ctx context.Context, triples []Triple, workers int) ([]ScoredTriple, error) {
	if workers > 1 && !d.Calibrated() {
		return nil, errors.New("core: parallel batch requires a frozen normalizer (calibrate first)")
	}
	out := make([]ScoredTriple, len(triples))
	err := forEach(ctx, len(triples), workers, func(ctx context.Context, i int) error {
		t := triples[i]
		v, err := d.Score(ctx, t.Question, t.Context, t.Response)
		out[i] = ScoredTriple{Triple: t, Verdict: v}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
