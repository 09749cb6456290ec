package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/rag"
	"repro/internal/slm"
	"repro/internal/vecdb"
)

// AblationRow is one configuration's result in an ablation study.
type AblationRow struct {
	Config   string
	Contrast dataset.Label
	BestF1   metrics.Confusion
	AUC      float64
}

// evaluateDetector scores a detector on the suite's dataset and
// summarizes one contrast.
func (s *Suite) evaluateDetector(ctx context.Context, key string, mk func() (*core.Detector, error), contrast dataset.Label) (AblationRow, error) {
	sc, err := s.scores(ctx, key, mk)
	if err != nil {
		return AblationRow{}, err
	}
	best, err := metrics.BestF1(sc.SamplesVs(contrast))
	if err != nil {
		return AblationRow{}, err
	}
	auc, err := metrics.AUC(sc.SamplesVs(contrast))
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{Config: key, Contrast: contrast, BestF1: best, AUC: auc}, nil
}

// thirdModel is the extra ensemble member for the size ablation: a
// plausible third small checkpoint with its own scale and blind spots.
func thirdModel() *slm.CalibratedVerifier {
	return slm.MustCalibrated(slm.Profile{
		Name: "phi-style-1.3b", Sharpness: 2.2, Bias: 0.1,
		NoiseAmp: 1.15, WeightJitter: 0.18, DilutionHalfLife: 7.2,
		OutputScale: 0.8, OutputShift: 0.1,
		QuantityMissRate: 0.18, PolarityMissRate: 0.18, FalseAlarmRate: 0.2,
		SubtletyBlindness: 0.85,
	})
}

// AblationEnsembleSize varies the number of SLMs in the checker
// (DESIGN.md §4): one, two (the paper's configuration), three.
func (s *Suite) AblationEnsembleSize(ctx context.Context, contrast dataset.Label) ([]AblationRow, error) {
	cfgs := []struct {
		key string
		mk  func() (*core.Detector, error)
	}{
		{"ensemble=1 (Qwen2)", func() (*core.Detector, error) {
			return core.NewSingleSLM("ensemble-1", slm.NewQwen2())
		}},
		{"ensemble=2 (paper)", core.NewProposed},
		{"ensemble=3 (+third)", func() (*core.Detector, error) {
			return core.NewDetector("ensemble-3", core.Config{
				Models:    []slm.Model{slm.NewQwen2(), slm.NewMiniCPM(), thirdModel()},
				Aggregate: core.Harmonic,
			})
		}},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		row, err := s.evaluateDetector(ctx, c.key, c.mk, contrast)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationGating compares Eq. 5's uniform cross-model mean against the
// §VI future-work gating combiners.
func (s *Suite) AblationGating(ctx context.Context, contrast dataset.Label) ([]AblationRow, error) {
	cfgs := []struct {
		key string
		mk  func() (*core.Detector, error)
	}{
		{"uniform mean (Eq. 5)", core.NewProposed},
		{"confidence gate", func() (*core.Detector, error) {
			return core.NewGatedProposed(core.ConfidenceGate{Temperature: 1.5})
		}},
		{"agreement gate", func() (*core.Detector, error) {
			return core.NewGatedProposed(core.AgreementGate{Scale: 1.0})
		}},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		row, err := s.evaluateDetector(ctx, c.key, c.mk, contrast)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationNormalization compares Eq. 4's per-model z-normalization
// against feeding raw probabilities into the cross-model mean.
func (s *Suite) AblationNormalization(ctx context.Context, contrast dataset.Label) ([]AblationRow, error) {
	cfgs := []struct {
		key string
		mk  func() (*core.Detector, error)
	}{
		{"z-normalized (Eq. 4)", core.NewProposed},
		{"raw probabilities", func() (*core.Detector, error) {
			return core.NewDetector("raw-scale", core.Config{
				Models:    []slm.Model{slm.NewQwen2(), slm.NewMiniCPM()},
				Aggregate: core.Harmonic,
				Scale:     core.Identity{},
			})
		}},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		row, err := s.evaluateDetector(ctx, c.key, c.mk, contrast)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationSplitter compares sentence-level checking (§IV-A) against
// whole-response checking with the same two-model ensemble.
func (s *Suite) AblationSplitter(ctx context.Context, contrast dataset.Label) ([]AblationRow, error) {
	cfgs := []struct {
		key string
		mk  func() (*core.Detector, error)
	}{
		{"sentence splitter", core.NewProposed},
		{"whole response", func() (*core.Detector, error) {
			return core.NewDetector("no-splitter", core.Config{
				Models:    []slm.Model{slm.NewQwen2(), slm.NewMiniCPM()},
				Split:     core.WholeResponse,
				Aggregate: core.Harmonic,
			})
		}},
	}
	var rows []AblationRow
	for _, c := range cfgs {
		row, err := s.evaluateDetector(ctx, c.key, c.mk, contrast)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationTopK measures how retrieval depth affects verification: the
// detector sees the top-k retrieved passages instead of the gold
// context. Small k risks missing the evidence; large k dilutes it.
func (s *Suite) AblationTopK(ctx context.Context, contrast dataset.Label, ks []int) ([]AblationRow, error) {
	db, err := vecdb.NewDefault(256)
	if err != nil {
		return nil, err
	}
	if _, err := db.AddAll(s.Set.Contexts()); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, k := range ks {
		retriever, err := rag.NewRetriever(db, k)
		if err != nil {
			return nil, err
		}
		d, err := core.NewProposed()
		if err != nil {
			return nil, err
		}
		// Build retrieved-context triples for calibration and scoring.
		var triples []core.Triple
		type key struct {
			item  int
			label dataset.Label
		}
		where := map[key]int{}
		for _, it := range s.Set.Items {
			hits, err := retriever.Retrieve(ctx, it.Question, vecdb.Filter{})
			if err != nil {
				return nil, err
			}
			retrieved := rag.Context(hits)
			for _, r := range it.Responses {
				where[key{it.ID, r.Label}] = len(triples)
				triples = append(triples, core.Triple{Question: it.Question, Context: retrieved, Response: r.Text})
			}
		}
		if err := d.Calibrate(ctx, triples); err != nil {
			return nil, err
		}
		scored, err := d.BatchScore(ctx, triples, s.Workers)
		if err != nil {
			return nil, err
		}
		var samples []metrics.Sample
		for _, it := range s.Set.Items {
			for _, l := range []dataset.Label{dataset.LabelCorrect, contrast} {
				idx := where[key{it.ID, l}]
				samples = append(samples, metrics.Sample{
					Score:    scored[idx].Verdict.Score,
					Positive: l == dataset.LabelCorrect,
				})
			}
		}
		best, err := metrics.BestF1(samples)
		if err != nil {
			return nil, err
		}
		auc, err := metrics.AUC(samples)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Config: fmt.Sprintf("retrieval top-%d", k), Contrast: contrast,
			BestF1: best, AUC: auc,
		})
	}
	return rows, nil
}

// FormatAblation renders ablation rows as an aligned table.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-24s %8s %8s %8s %8s\n", title, "config", "F1", "p", "r", "AUC")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %8.3f %8.3f %8.3f %8.3f\n",
			r.Config, r.BestF1.F1(), r.BestF1.Precision(), r.BestF1.Recall(), r.AUC)
	}
	return b.String()
}
