package slm

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
	"repro/internal/splitter"
)

var update = flag.Bool("update", false, "rewrite testdata/*_golden.json from the code under test")

const yesProbabilityGolden = "testdata/yes_probability_golden.json"

// goldenClaims returns one VerifyRequest per split sentence of the
// first n responses of the default dataset, in response → sentence
// order — the (q, c, r_{i,j}) units Eq. 3 is evaluated on.
func goldenClaims(t *testing.T, n int) []VerifyRequest {
	t.Helper()
	set, err := dataset.Default()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []VerifyRequest
	triples := 0
	for _, it := range set.Items {
		for _, r := range it.Responses {
			if triples == n {
				return reqs
			}
			triples++
			for _, s := range splitter.Split(r.Text) {
				reqs = append(reqs, VerifyRequest{Question: it.Question, Context: it.Context, Claim: s})
			}
		}
	}
	return reqs
}

// TestYesProbabilityGolden pins every bit of P(yes) for the three
// model profiles on the first 60 triples of the default dataset. The
// file was generated before the forward pass was touched, so a change
// that reorders or rewrites any arithmetic fails here. `go test -run
// TestYesProbabilityGolden -update` rewrites it.
func TestYesProbabilityGolden(t *testing.T) {
	ctx := context.Background()
	reqs := goldenClaims(t, 60)
	got := map[string][]string{}
	for _, m := range []*CalibratedVerifier{NewQwen2(), NewMiniCPM(), NewChatGPTStyle()} {
		bits := make([]string, len(reqs))
		for i, r := range reqs {
			p, err := m.YesProbability(ctx, r)
			if err != nil {
				t.Fatalf("%s claim %d: %v", m.Name(), i, err)
			}
			bits[i] = fmt.Sprintf("%016x", math.Float64bits(p))
		}
		got[m.Name()] = bits
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.WriteFile(yesProbabilityGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(yesProbabilityGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var wantBits map[string][]string
	if err := json.Unmarshal(want, &wantBits); err != nil {
		t.Fatal(err)
	}
	for name, bits := range got {
		if len(bits) != len(wantBits[name]) {
			t.Errorf("%s: %d probabilities, golden has %d", name, len(bits), len(wantBits[name]))
			continue
		}
		for i := range bits {
			if bits[i] != wantBits[name][i] {
				t.Errorf("%s claim %d (%q): bits %s, golden %s", name, i, reqs[i].Claim, bits[i], wantBits[name][i])
			}
		}
	}
	t.Fatalf("%s differs from the regenerated probabilities", yesProbabilityGolden)
}
