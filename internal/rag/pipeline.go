package rag

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/vecdb"
)

// Pipeline is the end-to-end system of Fig. 2: ingest documents,
// retrieve context for a question, generate an answer, and verify it
// with the detection framework before returning it to the user.
type Pipeline struct {
	retriever *Retriever
	generator Generator
	detector  *core.Detector
	// Threshold is the paper's decision boundary on s_i: answers at or
	// below it are flagged as likely hallucinated.
	Threshold float64
}

// PipelineConfig assembles a Pipeline. DB accepts any Store — a plain
// *vecdb.DB or a sharded router from internal/serve.
type PipelineConfig struct {
	DB        Store
	TopK      int
	Generator Generator
	Detector  *core.Detector
	Threshold float64
}

// NewPipeline validates and builds the pipeline.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if cfg.Generator == nil {
		return nil, errors.New("rag: nil generator")
	}
	if cfg.Detector == nil {
		return nil, errors.New("rag: nil detector")
	}
	if cfg.TopK == 0 {
		cfg.TopK = 3
	}
	r, err := NewRetriever(cfg.DB, cfg.TopK)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		retriever: r,
		generator: cfg.Generator,
		detector:  cfg.Detector,
		Threshold: cfg.Threshold,
	}, nil
}

// Ingest chunks and indexes a document.
func (p *Pipeline) Ingest(doc string, chunker Chunker) (int, error) {
	chunks, err := chunker.Chunk(doc)
	if err != nil {
		return 0, err
	}
	for _, c := range chunks {
		if _, err := p.retriever.db.Add(c, nil); err != nil {
			return 0, err
		}
	}
	return len(chunks), nil
}

// Answer is the verified output of one Ask call.
type Answer struct {
	// Question echoes the input.
	Question string
	// Context is the concatenated retrieved passages.
	Context string
	// Response is the generated answer.
	Response string
	// Verdict carries the hallucination score and per-sentence detail.
	Verdict core.Verdict
	// Trusted applies the pipeline threshold: true when the score
	// exceeds it.
	Trusted bool
}

// Draft runs retrieve → generate for one question, returning an
// unverified Answer (zero Verdict, Trusted false). Serving layers that
// batch verification across requests call Draft, verify the response
// through their own scheduler, and fill in the verdict. Retrieval runs
// under ctx and is scoped by f (see Retriever.Retrieve); the zero
// filter retrieves unscoped.
func (p *Pipeline) Draft(ctx context.Context, question string, f vecdb.Filter) (Answer, error) {
	hits, err := p.retriever.Retrieve(ctx, question, f)
	if err != nil {
		return Answer{}, err
	}
	if len(hits) == 0 {
		return Answer{}, fmt.Errorf("rag: no context retrieved for %q", question)
	}
	contextText := Context(hits)
	response, err := p.generator.Generate(question, contextText)
	if err != nil {
		return Answer{}, fmt.Errorf("rag: generate: %w", err)
	}
	return Answer{
		Question: question,
		Context:  contextText,
		Response: response,
	}, nil
}

// Finalize applies a verdict to a drafted answer using the pipeline
// threshold.
func (p *Pipeline) Finalize(draft Answer, verdict core.Verdict) Answer {
	draft.Verdict = verdict
	draft.Trusted = verdict.IsCorrect(p.Threshold)
	return draft
}

// Detector exposes the pipeline's verifier so serving layers can route
// drafted answers through a shared batch scheduler.
func (p *Pipeline) Detector() *core.Detector { return p.detector }

// Ask runs retrieve → generate → verify for one question.
func (p *Pipeline) Ask(ctx context.Context, question string) (Answer, error) {
	draft, err := p.Draft(ctx, question, vecdb.Filter{})
	if err != nil {
		return Answer{}, err
	}
	verdict, err := p.detector.Score(ctx, question, draft.Context, draft.Response)
	if err != nil {
		return Answer{}, fmt.Errorf("rag: verify: %w", err)
	}
	return p.Finalize(draft, verdict), nil
}
