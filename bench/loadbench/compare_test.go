package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25] and
// statistics.quantiles([1, 2, 4, 8, 16], n=4) is [1.5, 4.0, 12.0].
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}

// testSpec is a small stand-in for BENCHMARK.json, so the verdicts
// tested here do not depend on which metrics the real file gates.
const testSpec = `{
 "workloads": [{"name": "scan"}, {"name": "verify"}],
 "end_to_end": [
  {"name": "time_ms", "unit": "ms", "better": "lower", "bound": 0.1},
  {"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.1},
  {"name": "quality", "unit": "ratio", "better": "higher", "bound": 0.1}
 ]
}`

func writeSet(t *testing.T, path string, spec *benchSpec, value func(workload, metric string, run int) float64) {
	t.Helper()
	for run := 0; run < 5; run++ {
		for _, wl := range spec.Workloads {
			rep := &runReport{Workload: wl.Name, Seed: int64(run), Metrics: map[string]metric{}}
			for _, m := range spec.EndToEnd {
				rep.Metrics[m.Name] = metric{value(wl.Name, m.Name, run), m.Unit}
			}
			rep.Metrics["recover.replayed_records"] = metric{value(wl.Name, "rows", run), "count"}
			if err := appendReport(path, rep); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	steady := func(_, m string, run int) float64 {
		if m == "quality" {
			return 0.8 + 0.01*float64(run) // differs by seed, as an F1 does
		}
		return 100 + float64(run) // spread 3 %
	}
	writeSet(t, a, spec, steady)
	writeSet(t, b, spec, func(w, m string, run int) float64 {
		switch {
		case w == "scan" && m == "time_ms":
			return 2 * steady(w, m, run) // tight and twice as slow
		case w == "scan" && m == "rate":
			return 0.5 * steady(w, m, run) // tight and half as fast
		case w == "verify" && m == "time_ms":
			return 100 + 40*float64(run) // spread far beyond the bound
		case w == "verify" && m == "quality":
			return steady(w, m, run) - 0.01 // every seed a little worse: medians within the bound
		case w == "scan" && m == "rows":
			return 7 // an exact count that differs from set A's for the same seed
		}
		return steady(w, m, run)
	})
	var out bytes.Buffer
	agree, err := compareSets(&out, specPath, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if agree {
		t.Errorf("sets that differ reported as agreeing")
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && strings.HasSuffix(f[len(f)-2], "%") { // a verdict follows the bound
			verdict[f[0]+"/"+f[1]] = f[len(f)-1]
		}
	}
	for key, want := range map[string]string{
		"scan/time_ms":   "differ",
		"scan/rate":      "differ",
		"verify/time_ms": "unresolved",
		"verify/rate":    "agree",
		"verify/quality": "agree",
	} {
		if verdict[key] != want {
			t.Errorf("%s: verdict %q, want %q\n%s", key, verdict[key], want, out.String())
		}
	}
	for _, moved := range []string{"recover.replayed_records", "quality"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, moved) && strings.Contains(line, "moved between two runs of one seed") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s moved between runs of one seed and was not reported:\n%s", moved, out.String())
		}
	}
	out.Reset()
	if agree, err := compareSets(&out, specPath, a, a); err != nil || !agree {
		t.Errorf("a set compared with itself: agree %v, err %v\n%s", agree, err, out.String())
	}
}
