package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/*_golden.json from the code under test")

const calibrationGoldenFile = "testdata/calibration_golden.json"

type momentBits struct {
	N      int64  `json:"n"`
	Mean   string `json:"mean"`
	StdDev string `json:"std_dev"`
}

type calibrationGolden struct {
	// Moments are the frozen Eq. 4 moments per model after calibrating
	// on all of dataset.Default().
	Moments map[string]momentBits `json:"moments"`
	// Scores are the Eq. 6 response scores of the first 60 triples.
	Scores []string `json:"scores"`
}

func hexBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// defaultTriples flattens the default dataset into item → response
// order, the order ragserver -seed-demo calibrates in.
func defaultTriples(t testing.TB) []Triple {
	t.Helper()
	set, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	var triples []Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, Triple{it.Question, it.Context, r.Text})
		}
	}
	return triples
}

// TestCalibrationGolden pins, to the bit, the moments NewProposed
// freezes after Calibrate on the 360 default triples and the scores
// that follow from them. The file was generated from the sequential
// Calibrate, so it holds the observation order (triple → sentence →
// model) as well as every model's arithmetic. `go test -run
// TestCalibrationGolden -update` rewrites it.
func TestCalibrationGolden(t *testing.T) {
	ctx := context.Background()
	triples := defaultTriples(t)
	d, err := NewProposed()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Calibrate(ctx, triples); err != nil {
		t.Fatal(err)
	}
	got := calibrationGolden{Moments: map[string]momentBits{}}
	for _, m := range d.Models() {
		s, ok := d.Scaler().(*Normalizer).Moments(m.Name())
		if !ok {
			t.Fatalf("model %s has no moments after Calibrate", m.Name())
		}
		got.Moments[m.Name()] = momentBits{N: s.N, Mean: hexBits(s.Mean), StdDev: hexBits(s.StdDev)}
	}
	for i, tr := range triples[:60] {
		v, err := d.Score(ctx, tr.Question, tr.Context, tr.Response)
		if err != nil {
			t.Fatalf("triple %d: %v", i, err)
		}
		got.Scores = append(got.Scores, hexBits(v.Score))
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.WriteFile(calibrationGoldenFile, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantRaw, err := os.ReadFile(calibrationGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, wantRaw) {
		return
	}
	var want calibrationGolden
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}
	for name, m := range got.Moments {
		if m != want.Moments[name] {
			t.Errorf("%s: moments %+v, golden %+v", name, m, want.Moments[name])
		}
	}
	for i := range got.Scores {
		if i >= len(want.Scores) || got.Scores[i] != want.Scores[i] {
			t.Errorf("triple %d: score bits %s differ from golden", i, got.Scores[i])
		}
	}
	t.Fatalf("%s differs from the regenerated calibration", calibrationGoldenFile)
}
