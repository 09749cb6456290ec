// Package slm provides the small-language-model substrate of the
// framework: a Model interface exposing the first-token yes-probability
// P(token1 = yes | q, c, r) of paper Eq. 2–3, a pure-Go decoder-only
// transformer inference engine (tokenizer → embeddings → multi-head
// attention with KV cache → FFN → logits), and two synthetic verifier
// backends that stand in for Qwen2-1.5B-Instruct and MiniCPM-2B
// (see DESIGN.md §1 for the substitution argument).
//
// Each synthetic model is a deterministic function of its name and its
// input: the same (question, context, claim) triple always yields the
// same probability, and different models disagree in model-specific,
// input-correlated ways — the property that makes the paper's
// multi-model checker (Eq. 4–5) meaningful.
package slm

import (
	"context"
	"errors"
	"math"
	"strings"
)

// VerifyRequest carries one verification unit: the user's question q_i,
// the retrieved context c_i, and the claim to check — either a full
// response r_i or one split sentence r_{i,j}.
type VerifyRequest struct {
	Question string
	Context  string
	Claim    string
}

// Validate reports a request with an empty claim, which no backend can
// score meaningfully.
func (r VerifyRequest) Validate() error {
	if strings.TrimSpace(r.Claim) == "" {
		return errors.New("slm: empty claim")
	}
	return nil
}

// Model is a language model able to judge whether a claim is supported
// by a context. Implementations must be safe for concurrent use, and
// must answer equal requests with equal probabilities: the serving
// layer's verdict cache and core's Calibrate, which asks once per
// distinct sentence of a (question, context) pair, both rely on it.
type Model interface {
	// Name identifies the model (used for per-model normalization
	// bookkeeping in the checker).
	Name() string
	// YesProbability returns P(token1 = yes | question, context, claim)
	// in [0, 1]. The ctx allows cancellation of long verifications.
	YesProbability(ctx context.Context, req VerifyRequest) (float64, error)
}

// The pieces of the verification prompt around its three inputs, in
// order: promptLead, question, promptContext, context, promptAnswer,
// claim, promptTail. VerificationPrompt joins them, and a
// CalibratedVerifier streams its seed and window from the same
// constants, so the two cannot drift apart.
const (
	promptLead = "You are a strict verifier. Given the question, the context and a candidate answer, " +
		"reply with YES if the answer is fully supported by the context, otherwise reply NO.\n" +
		"Question: "
	promptContext = "\nContext: "
	promptAnswer  = "\nAnswer: "
	promptTail    = "\nIs the answer supported by the context? Reply YES or NO:"
)

// VerificationPrompt renders the paper's Fig. 1 prompt shape: the
// model is shown the question, the context and the claim, and is asked
// to begin its answer with YES or NO. All models share one prompt
// (the paper's Eq. 2 note: "prompt is omitted as all SLMs use the same
// prompt").
func VerificationPrompt(req VerifyRequest) string {
	return promptLead + req.Question + promptContext + req.Context + promptAnswer + req.Claim + promptTail
}

// clamp01 bounds a probability to [lo, 1-lo] so downstream log/ratio
// math never sees exact 0 or 1.
func clampProb(p, lo float64) float64 {
	if p < lo {
		return lo
	}
	if p > 1-lo {
		return 1 - lo
	}
	return p
}

// sigmoid is the logistic link used to map evidence scores to
// probabilities.
func sigmoid(x float64) float64 {
	if x >= 0 {
		e := math.Exp(-x)
		return 1 / (1 + e)
	}
	e := math.Exp(x)
	return e / (1 + e)
}
