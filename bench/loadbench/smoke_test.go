package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildServers compiles the real ragserver and shardnode from the
// repository this module sits in.
func buildServers(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/ragserver", "./cmd/shardnode")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	return bin
}

// childrenOf lists the command names of live processes whose parent is
// this one.
func childrenOf(t *testing.T) []string {
	t.Helper()
	self := strconv.Itoa(os.Getpid())
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range stats {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // exited while we were looking
		}
		s := string(raw)
		open, close := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if open < 0 || close < 0 {
			continue
		}
		f := strings.Fields(s[close+1:])
		if len(f) > 1 && f[1] == self && f[0] != "Z" {
			names = append(names, s[open+1:close])
		}
	}
	return names
}

// smokeFull also runs the traced half of every workload, not just of
// the one that boots fastest: LOADBENCH_SMOKE=full go test ./...
var smokeFull = os.Getenv("LOADBENCH_SMOKE") == "full"

// TestSmoke boots the real binaries for every workload at -smoke size
// and checks the contract of a run: every metric BENCHMARK.json names
// is reported once with its unit and a finite value, the counts add up,
// and no process or directory outlives it. Every workload runs
// untraced; cluster_search runs traced as well, and with
// LOADBENCH_SMOKE=full all of them do.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots server processes")
	}
	specPath := filepath.Join("..", "..", "BENCHMARK.json")
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	bin := buildServers(t)
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program has %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && !smokeFull && name != "cluster_search" {
				continue
			}
			work := filepath.Join(t.TempDir(), "work")
			rep, err := runOnce(options{workload: name, seed: 11, seconds: 1, trace: traced, smoke: true, spec: specPath, bin: bin, work: work})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics reported, BENCHMARK.json names %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s not reported", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if rep.Attempted < 1 || rep.Attempted != rep.OK+rep.Failed+rep.Late {
				t.Errorf("%s: attempted %d != ok %d + failed %d + late %d", name, rep.Attempted, rep.OK, rep.Failed, rep.Late)
			}
			if rep.Failed != 0 {
				t.Errorf("%s: %d failed operations", name, rep.Failed)
			}
			if _, err := os.Stat(work); !os.IsNotExist(err) {
				t.Errorf("%s: scratch directory %s outlives the run (stat: %v)", name, work, err)
			}
			if left := childrenOf(t); len(left) > 0 {
				t.Errorf("%s: child processes outlive the run: %v", name, left)
			}
		}
	}
}

// A run that cannot start its servers fails without leaving anything
// behind.
func TestRunFailsCleanlyWithoutBinaries(t *testing.T) {
	work := filepath.Join(t.TempDir(), "work")
	_, err := runOnce(options{workload: "search_scan", seed: 1, seconds: 1, smoke: true, spec: filepath.Join("..", "..", "BENCHMARK.json"), bin: t.TempDir(), work: work})
	if err == nil {
		t.Fatal("run without server binaries succeeded")
	}
	if _, err := os.Stat(work); !os.IsNotExist(err) {
		t.Errorf("scratch directory outlives the failed run")
	}
	if left := childrenOf(t); len(left) > 0 {
		t.Errorf("child processes outlive the failed run: %v", left)
	}
}
