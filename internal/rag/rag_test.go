package rag

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/splitter"
	"repro/internal/textproc"
	"repro/internal/vecdb"
)

func TestChunker(t *testing.T) {
	c := Chunker{MaxSentences: 2, Overlap: 1}
	text := "One. Two. Three. Four."
	chunks, err := c.Chunk(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"One. Two.", "Two. Three.", "Three. Four."}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %#v, want %#v", chunks, want)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Errorf("chunk %d = %q, want %q", i, chunks[i], want[i])
		}
	}
}

func TestChunkerNoOverlap(t *testing.T) {
	c := Chunker{MaxSentences: 2}
	chunks, err := c.Chunk("One. Two. Three.")
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || chunks[1] != "Three." {
		t.Errorf("chunks = %#v", chunks)
	}
}

func TestChunkerValidation(t *testing.T) {
	if _, err := (Chunker{MaxSentences: 0}).Chunk("x."); err == nil {
		t.Error("zero MaxSentences accepted")
	}
	if _, err := (Chunker{MaxSentences: 2, Overlap: 2}).Chunk("x."); err == nil {
		t.Error("Overlap == MaxSentences accepted")
	}
	chunks, err := DefaultChunker().Chunk("")
	if err != nil || chunks != nil {
		t.Errorf("empty doc: %v %v", chunks, err)
	}
}

// TestChunkerCoversEverySentence: no sentence may be dropped.
func TestChunkerCoversEverySentence(t *testing.T) {
	set, err := dataset.Generate(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultChunker()
	for _, it := range set.Items {
		chunks, err := c.Chunk(it.Context)
		if err != nil {
			t.Fatal(err)
		}
		joined := strings.Join(chunks, " ")
		for _, s := range splitter.Split(it.Context) {
			if !strings.Contains(joined, s) {
				t.Errorf("sentence lost in chunking: %q", s)
			}
		}
	}
}

func buildDB(t *testing.T, docs []string) *vecdb.DB {
	t.Helper()
	db, err := vecdb.NewDefault(128)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddAll(docs); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRetrieverFindsRelevantContext(t *testing.T) {
	set, err := dataset.Generate(11, 32)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, set.Contexts())
	r, err := NewRetriever(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	// For most items the retrieved context should contain that item's
	// own context (retrieval@3 over 32 passages).
	hitCount := 0
	for _, it := range set.Items {
		hits, err := r.Retrieve(context.Background(), it.Question, vecdb.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			if h.Text == it.Context {
				hitCount++
				break
			}
		}
	}
	if ratio := float64(hitCount) / float64(len(set.Items)); ratio < 0.6 {
		t.Errorf("retrieval@3 = %.2f, want ≥0.6", ratio)
	}
	// A bare *vecdb.DB is no CollectionSearcher: the zero filter above
	// went through Search, and a scoped retrieval must refuse rather
	// than silently search everything.
	if _, err := r.Retrieve(context.Background(), set.Items[0].Question, vecdb.Filter{Collection: "acme"}); err == nil {
		t.Error("scoped retrieval on a plain Store did not error")
	}
}

func TestRetrieverValidation(t *testing.T) {
	if _, err := NewRetriever(nil, 3); err == nil {
		t.Error("nil db accepted")
	}
	db := buildDB(t, []string{"doc"})
	if _, err := NewRetriever(db, 0); err == nil {
		t.Error("topK 0 accepted")
	}
}

func TestContextAndPrompt(t *testing.T) {
	hits := []vecdb.Hit{
		{Document: vecdb.Document{Text: "A."}},
		{Document: vecdb.Document{Text: "B."}},
	}
	if got := Context(hits); got != "A. B." {
		t.Errorf("Context = %q", got)
	}
	p := AnswerPrompt("Q?", "CTX")
	for _, want := range []string{"Q?", "CTX", "Answer:"} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestExtractiveGenerator(t *testing.T) {
	g := ExtractiveGenerator{MaxSentences: 2}
	contextText := "The probation period lasts three months. The staff canteen is on the third floor. Working hours are 9 AM to 5 PM."
	out, err := g.Generate("How long is the probation period?", contextText)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "probation") {
		t.Errorf("answer misses the probation sentence: %q", out)
	}
	if n := splitter.Count(out); n > 2 {
		t.Errorf("answer has %d sentences, cap is 2", n)
	}
	if _, err := g.Generate("q", ""); err == nil {
		t.Error("empty context accepted")
	}
}

func TestCorruptSentenceAlwaysChanges(t *testing.T) {
	src := rng.New(42)
	inputs := []string{
		"Employees receive 14 days of leave.",
		"The store is open on Monday.",
		"Personal use of email is prohibited.",
		"Uniforms are mandatory on the floor.",
		"Just words here entirely.",
		"Too short.",
	}
	for _, in := range inputs {
		out := CorruptSentence(in, src)
		if out == in {
			t.Errorf("CorruptSentence left %q unchanged", in)
		}
	}
}

func TestCorruptSentenceNumericConflicts(t *testing.T) {
	src := rng.New(1)
	in := "Employees receive 14 days of leave."
	out := CorruptSentence(in, src)
	conf, _ := textproc.QuantityConflicts(
		textproc.ExtractQuantities(out),
		textproc.ExtractQuantities(in),
	)
	if conf == 0 {
		t.Errorf("numeric corruption undetectable: %q -> %q", in, out)
	}
}

func TestFaultInjectorModes(t *testing.T) {
	contextText := "Employees receive 14 days of leave. Uniforms are mandatory on the floor."
	base := ExtractiveGenerator{MaxSentences: 2}

	clean, err := NewFaultInjector(base, FaultNone, 1)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := NewFaultInjector(base, FaultPartial, 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := NewFaultInjector(base, FaultAll, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := "What are employees entitled to?"
	truth, err := base.Generate(q, contextText)
	if err != nil {
		t.Fatal(err)
	}
	cleanOut, _ := clean.Generate(q, contextText)
	if cleanOut != truth {
		t.Error("FaultNone altered the answer")
	}
	partialOut, _ := partial.Generate(q, contextText)
	allOut, _ := all.Generate(q, contextText)

	truthSents := splitter.Split(truth)
	count := func(out string) int {
		changed := 0
		for i, s := range splitter.Split(out) {
			if i < len(truthSents) && s != truthSents[i] {
				changed++
			}
		}
		return changed
	}
	if got := count(partialOut); got != 1 {
		t.Errorf("FaultPartial changed %d sentences, want 1\n%q\n%q", got, truth, partialOut)
	}
	if got := count(allOut); got != len(truthSents) {
		t.Errorf("FaultAll changed %d/%d sentences", got, len(truthSents))
	}
}

func TestFaultInjectorValidation(t *testing.T) {
	if _, err := NewFaultInjector(nil, FaultNone, 1); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := NewFaultInjector(ExtractiveGenerator{}, FaultMode(9), 1); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	set, err := dataset.Generate(17, 16)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, set.Contexts())
	detector, err := core.NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate the detector on the contexts themselves so moments
	// are not empty.
	var triples []core.Triple
	for _, it := range set.Items[:8] {
		r, _ := it.Response(dataset.LabelCorrect)
		triples = append(triples, core.Triple{Question: it.Question, Context: it.Context, Response: r.Text})
		r, _ = it.Response(dataset.LabelWrong)
		triples = append(triples, core.Triple{Question: it.Question, Context: it.Context, Response: r.Text})
	}
	if err := detector.Calibrate(context.Background(), triples); err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(PipelineConfig{
		DB:        db,
		TopK:      2,
		Generator: ExtractiveGenerator{MaxSentences: 2},
		Detector:  detector,
		Threshold: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Ask(context.Background(), set.Items[0].Question)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Response == "" || ans.Context == "" {
		t.Fatalf("incomplete answer: %+v", ans)
	}
	if len(ans.Verdict.Sentences) == 0 {
		t.Error("verdict has no sentence detail")
	}
}

func TestPipelineGroundedBeatsHallucinated(t *testing.T) {
	// The pipeline's own verification must rank grounded answers above
	// injected hallucinations for most questions.
	set, err := dataset.Generate(23, 16)
	if err != nil {
		t.Fatal(err)
	}
	db := buildDB(t, set.Contexts())
	detector, err := core.NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	var triples []core.Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, core.Triple{Question: it.Question, Context: it.Context, Response: r.Text})
		}
	}
	if err := detector.Calibrate(context.Background(), triples); err != nil {
		t.Fatal(err)
	}
	mk := func(mode FaultMode) *Pipeline {
		gen, err := NewFaultInjector(ExtractiveGenerator{MaxSentences: 2}, mode, 5)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPipeline(PipelineConfig{DB: db, TopK: 2, Generator: gen, Detector: detector})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	grounded, hallucinated := mk(FaultNone), mk(FaultAll)
	wins := 0
	n := 10
	for _, it := range set.Items[:n] {
		g, err := grounded.Ask(context.Background(), it.Question)
		if err != nil {
			t.Fatal(err)
		}
		h, err := hallucinated.Ask(context.Background(), it.Question)
		if err != nil {
			t.Fatal(err)
		}
		if g.Verdict.Score > h.Verdict.Score {
			wins++
		}
	}
	if wins < n*7/10 {
		t.Errorf("grounded answers outscored hallucinated only %d/%d times", wins, n)
	}
}

func TestPipelineValidation(t *testing.T) {
	db := buildDB(t, []string{"doc"})
	det, _ := core.NewProposed()
	if _, err := NewPipeline(PipelineConfig{DB: db, Detector: det}); err == nil {
		t.Error("nil generator accepted")
	}
	if _, err := NewPipeline(PipelineConfig{DB: db, Generator: ExtractiveGenerator{}}); err == nil {
		t.Error("nil detector accepted")
	}
}

func TestPipelineIngest(t *testing.T) {
	db, err := vecdb.NewDefault(64)
	if err != nil {
		t.Fatal(err)
	}
	det, _ := core.NewProposed()
	p, err := NewPipeline(PipelineConfig{DB: db, Generator: ExtractiveGenerator{}, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Ingest("One. Two. Three. Four. Five.", Chunker{MaxSentences: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || db.Len() != 3 {
		t.Errorf("ingested %d chunks, db has %d", n, db.Len())
	}
}
