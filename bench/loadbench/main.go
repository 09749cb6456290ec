// Command loadbench is the repository's end-to-end benchmark: it boots
// the real ragserver and shardnode binaries, drives one of four named
// workloads open-loop at a fixed rate over at most two connections,
// checks every answer against an in-process oracle and prints every
// metric by name and unit. With -trace 1 it additionally rebuilds the
// same stack in-process and times each layer from outside. See
// bench/README.md.
//
// Usage:
//
//	loadbench -workload NAME -seed N -seconds S -trace 0|1 [-spec BENCHMARK.json] [-bin DIR] [-work DIR] [-out FILE]
//	loadbench -compare [-spec BENCHMARK.json] A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// runTimeout is the longest a run may take before it kills its
// children and gives up; the driver's own limit is 180 s.
const runTimeout = 170 * time.Second

func main() {
	var (
		o       options
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from the real binaries; 1: per-layer metrics (adds the in-process traced run)")
		compare = flag.Bool("compare", false, "compare two result sets: loadbench -compare A.json B.json")
		out     = flag.String("out", "", "append this run's report to a result-set file")
		smoke   = flag.Bool("smoke", false, "tiny sizes and single cycles, for the self-test")
	)
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the file that names the metrics a run reports, their units and their bounds")
	flag.StringVar(&o.workload, "workload", "", "one of search_scan, ask_verify, ingest_beside_search, cluster_search")
	flag.Int64Var(&o.seed, "seed", 1, "seed for corpus, requests and schedule")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the ragserver and shardnode binaries")
	flag.StringVar(&o.work, "work", "", "scratch directory (default: a fresh one under .bench_build/work)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the in-process spans to this file")
	flag.Parse()
	o.trace, o.smoke = *trace == 1, *smoke

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result-set files"))
		}
		agree, err := compareSets(os.Stdout, o.spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !agree {
			os.Exit(1)
		}
		return
	}
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	}
	// The generator shares the box with the servers it measures and
	// must not take more of it than the connections it drives.
	runtime.GOMAXPROCS(maxConns())
	rep, err := runOnce(o)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	printReport(rep)
}

// runOnce runs one workload with children supervised: whatever way the
// run ends — return, signal, timeout — every child is killed and
// waited for and the scratch directory is removed.
func runOnce(o options) (*runReport, error) {
	if o.work == "" {
		o.work = filepath.Join(".bench_build", "work", fmt.Sprintf("run-%d", os.Getpid()))
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	sup := newSupervisor()
	sig := make(chan os.Signal, 1)
	// SIGPIPE is in the list because a reader that closes our stdout
	// would otherwise end the process before the children are reaped.
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer signal.Stop(sig)
	type outcome struct {
		rep *runReport
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var out outcome
		if o.trace {
			out.rep, out.err = runTraced(o, sup)
		} else {
			out.rep, out.err = runEndToEnd(o, sup)
		}
		done <- out
	}()
	var out outcome
	select {
	case out = <-done:
	case s := <-sig:
		out.err = fmt.Errorf("interrupted by %v", s)
	case <-time.After(runTimeout):
		out.err = fmt.Errorf("run exceeded %v", runTimeout)
	}
	sup.shutdown()
	cleanWork(o)
	return out.rep, out.err
}

// printReport writes every metric by name and unit, then the one-line
// JSON object the driver reads.
func printReport(rep *runReport) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("%-36s %14.6f %s\n", n, m.Value, m.Unit)
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics}
	b, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadbench:", err)
	os.Exit(1)
}
