package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the program reads. The names,
// units, directions and bounds of the metrics are defined there and
// nowhere else: a run reports what the file lists (runReport.report).
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// resultSet is a file of runs, as -out accumulates them.
type resultSet struct {
	Runs []*runReport `json:"runs"`
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// appendReport adds rep to the result set at path, creating it if
// absent.
func appendReport(path string, rep *runReport) error {
	set, err := loadSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		set = &resultSet{}
	} else if err != nil {
		return err
	}
	set.Runs = append(set.Runs, rep)
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// values collects one metric of one workload across a set's runs.
func (s *resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (the driver's
// method), so a spread computed here is the spread the driver sees.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside 0..4 where the clamp took hold: extrapolate, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and quartiles, how far B's median is from A's in the
// direction that is worse, the bound, and a verdict:
//
//	agree       the medians are within the bound of each other and each
//	            set's own spread (IQR / median) is within it too
//	unresolved  a set's spread is wider than the bound, so the medians
//	            cannot be told apart at that resolution
//	differ      the spreads are tight and the medians are further apart
//	            than the bound
//
// It reports whether every pair agrees.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	all := true
	fmt.Fprintf(w, "%-22s %-15s %30s %30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s/%s: missing from a set (%d and %d runs)", wl.Name, m.Name, len(va), len(vb))
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "agree"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case math.Abs(worse) > m.Bound:
				verdict = "differ"
			}
			if verdict != "agree" {
				all = false
			}
			fmt.Fprintf(w, "%-22s %-15s %30s %30s %+7.1f%% %5.3g%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3), fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*worse, 100*m.Bound, verdict)
		}
	}
	// Some numbers depend on a run's inputs and not on its timing, so two
	// runs of one seed must agree on them whatever the sets' medians say:
	// the counts marked exact in the README exactly, quality to within
	// qualityTolerance. (A bound relative to the sets' medians cannot
	// stand in for this: it would let quality fall by the bound on every
	// seed at once.)
	perSeed := map[string]float64{"quality": qualityTolerance}
	for _, name := range exactCounts {
		perSeed[name] = 0
	}
	names := make([]string, 0, len(perSeed))
	for name := range perSeed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, wl := range spec.Workloads {
			bySeed := map[int64]float64{}
			for _, set := range []*resultSet{a, b} {
				for _, r := range set.Runs {
					m, ok := r.Metrics[name]
					if !ok || r.Workload != wl.Name {
						continue
					}
					if prev, seen := bySeed[r.Seed]; seen && math.Abs(prev-m.Value) > perSeed[name] {
						fmt.Fprintf(w, "%-22s %-34s seed %d: %v and %v — moved between two runs of one seed\n", wl.Name, name, r.Seed, prev, m.Value)
						all = false
					}
					bySeed[r.Seed] = m.Value
				}
			}
		}
	}
	return all, nil
}

// qualityTolerance is how far quality may move, absolutely, between two
// runs of one seed.
const qualityTolerance = 0.005

// exactCounts are the per-layer counts that depend only on the inputs,
// not on timing, and so must repeat exactly for a given seed. The
// index and RPC counts per query are not among them: streaming ingest
// assigns document IDs in the order its concurrent workers finish, IDs
// decide the shard, and the number of filter-widening rounds depends on
// which shard holds which matching document — they move by under 1 %.
var exactCounts = []string{
	"slm.calls_per_triple",
	"storage.wal_bytes_per_doc",
	"storage.checkpoint_bytes_per_doc",
	"recover.replayed_records",
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
