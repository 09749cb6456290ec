package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	spec     string // BENCHMARK.json: names and units of the metrics to report
	bin      string // directory with ragserver and shardnode
	work     string // scratch directory; removed when the run ends
	traceOut string // with trace: file the spans are written to ("" = not kept)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is what one run measured.
type runReport struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	OK        int               `json:"ok"`
	Failed    int               `json:"failed"`
	Late      int               `json:"late"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`

	// values is everything the run measured, by name; report keeps the
	// ones BENCHMARK.json lists for this kind of run.
	values map[string]float64
}

// report fills rep.Metrics with the metrics defs names, each with the
// unit given there, so the list of what a run reports exists once, in
// BENCHMARK.json. A per-layer metric that is not part of a workload's
// stack (cluster.rpc_ms on a single process) reads 0; a measured value
// that defs does not name, or an end-to-end one the run lacks, is a
// mismatch between the program and the file.
func (rep *runReport) report(defs []specMetric, perLayer bool) error {
	rep.Metrics = map[string]metric{}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && !perLayer {
			return fmt.Errorf("BENCHMARK.json names the end-to-end metric %s, which the run does not measure", d.Name)
		}
		rep.Metrics[d.Name] = metric{v, d.Unit}
	}
	if perLayer {
		for name := range rep.values {
			if _, ok := rep.Metrics[name]; !ok {
				return fmt.Errorf("the traced run measures %s, which BENCHMARK.json's per_layer does not name", name)
			}
		}
	}
	return nil
}

// A timed phase (set-up in an untraced run, recovery in a traced one)
// is repeated at least repeatMin times and then until it has covered
// repeatSeconds of work or repeatMax cycles, and the median is
// reported: one sub-second boot is at the mercy of a single scheduling
// hiccup, the median of a dozen or more is not.
const (
	repeatMin     = 3
	repeatSeconds = 8.0
	repeatMax     = 40
)

// repeats reports whether a phase that has run done times, for total
// seconds, should run again; once limits it to a single cycle.
func repeats(once bool, total float64, done int) bool {
	if once {
		return done < 1
	}
	return done < repeatMin || (done < repeatMax && total < repeatSeconds)
}

// lateShare and lateBy bound the generator's own lateness: a run in
// which the generator, not the servers, delayed more than lateShare of
// the sends by more than lateBy measured the generator and is refused.
// The generator shares two cores with the servers, and an ingest batch
// occupies both for several milliseconds, so its wake-ups routinely
// slip by a few; the limits are set where a usable run ends and an
// overloaded box begins, an order of magnitude above that.
const (
	lateShare = 0.25
	lateBy    = 10 * time.Millisecond
)

// window is the raw material of one measured window.
type window struct {
	reqs    []request
	res     []result
	elapsed float64 // seconds from the window opening to the last response
	cpu     map[string]float64
	selfCPU float64
	rssPeak float64 // MB: sum of the processes' VmHWM when the window ends
	// Filled in by judge: the query requests' latencies in ms, sorted,
	// and the latest any send went after its due time.
	lat     []float64
	maxLate time.Duration
}

// measure runs warm-up and the measured window against a loaded stack.
func measure(sc scenario, st *stack, c conns) (*window, error) {
	// From here to the end of the run the vCPUs are kept awake. Set-up
	// before this is closed-loop and keeps them busy by itself.
	if err := st.sup.keepAwake(); err != nil {
		return nil, err
	}
	warm := sc.warmup()
	for i, r := range runWindow(st.base, warm, sc.lanes(warm, c)) {
		if !ok2xx(r) {
			return nil, fmt.Errorf("warm-up request %d (%s): status %d, err %v: %s", i, warm[i].path, r.status, r.err, bytes.TrimSpace(r.body))
		}
	}
	w := &window{reqs: sc.window(), cpu: map[string]float64{}}
	before := map[*proc]float64{}
	for _, p := range st.procs() {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return nil, err
		}
		before[p] = s
	}
	self0 := selfCPUSeconds()
	t0 := time.Now()
	w.res = runWindow(st.base, w.reqs, sc.lanes(w.reqs, c))
	w.elapsed = time.Since(t0).Seconds()
	w.selfCPU = selfCPUSeconds() - self0
	for _, p := range st.procs() {
		s, err := cpuSeconds(p.pid())
		if err != nil {
			return nil, err
		}
		kind := "shardnode"
		if p == st.front {
			kind = "ragserver"
		}
		w.cpu[kind] += s - before[p]
	}
	var err error
	w.rssPeak, err = st.rssAll("VmHWM")
	return w, err
}

// setUp boots a fresh stack and loads it, repeatedly unless once is
// set, and returns the last stack with every set-up's duration and the
// resident set (MB, summed over the stack's processes) each one held
// when its corpus was loaded.
func setUp(o options, sc scenario, sup *supervisor, c conns, once bool) (*stack, []float64, []float64, error) {
	var times, rss []float64
	var total float64
	for {
		dir := filepath.Join(o.work, fmt.Sprintf("stack-%d", len(times)))
		st, err := newStack(sup, o.bin, dir, sc.spec())
		if err != nil {
			return nil, nil, nil, err
		}
		t0 := time.Now()
		if err := st.boot(c[0]); err != nil {
			return nil, nil, nil, err
		}
		if err := loadCorpus(sc, c[0], st.base); err != nil {
			return nil, nil, nil, fmt.Errorf("load: %w", err)
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
		mb, err := st.rssAll("VmRSS")
		if err != nil {
			return nil, nil, nil, err
		}
		rss = append(rss, mb)
		if !repeats(once, total, len(times)) {
			return st, times, rss, nil
		}
		if err := st.destroy(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// recoverCycles kills every process of the stack, restarts it on the
// same directories and times how long until it is ready and answers
// the probe with the bytes it answered before the kill.
func recoverCycles(sc scenario, st *stack, c conns, once bool) ([]float64, error) {
	probe := sc.probe()
	status, want, err := post(c[0], st.base+probe.path, probe.body)
	if err != nil || status != 200 {
		return nil, fmt.Errorf("recovery probe before kill: status %d, err %v", status, err)
	}
	var times []float64
	var total float64
	for repeats(once, total, len(times)) {
		st.kill()
		t0 := time.Now()
		if err := st.boot(c[0]); err != nil {
			return nil, err
		}
		var got []byte
		same := waitUntil(time.Now().Add(bootTimeout), 2*time.Millisecond, func() bool {
			status, body, err := post(c[0], st.base+probe.path, probe.body)
			got = body
			return err == nil && status == 200 && bytes.Equal(body, want)
		})
		if !same {
			return nil, fmt.Errorf("after restart the probe answers\n%s\nbefore the kill it answered\n%s", got, want)
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
	}
	return times, nil
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func runEndToEnd(o options, sup *supervisor) (*runReport, error) {
	spec, err := loadSpec(o.spec)
	if err != nil {
		return nil, err
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	sc, err := newScenario(o.workload, sz, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	c := newConns(maxConns())
	defer c.close()
	st, setups, loaded, err := setUp(o, sc, sup, c, o.smoke)
	if err != nil {
		return nil, err
	}
	w, err := measure(sc, st, c)
	if err != nil {
		return nil, err
	}
	rep, err := judge(o, sc, st, c, w)
	if err != nil {
		return nil, err
	}
	rep.values["setup_s"] = median(setups)
	rep.values["rss_loaded_mb"] = median(loaded)
	fmt.Printf("# set-ups %.3v s, resident after each %.3v MB\n", setups, loaded)
	if err := rep.report(spec.EndToEnd, false); err != nil {
		return nil, err
	}
	return rep, st.destroy()
}

// judge checks the window's answers and derives the window's
// end-to-end metrics.
func judge(o options, sc scenario, st *stack, c conns, w *window) (*runReport, error) {
	pass, quality, err := sc.check(w.reqs, w.res, c, st.base)
	if err != nil {
		return nil, err
	}
	rep := &runReport{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Attempted: len(w.reqs)}
	var lateSends int
	for i, q := range w.reqs {
		r := w.res[i]
		if !ok2xx(r) {
			return nil, fmt.Errorf("request %d (%s): status %d, err %v: %s", i, q.path, r.status, r.err, bytes.TrimSpace(r.body))
		}
		switch {
		case !pass[i]:
			rep.Failed++
		case r.latency(q) > q.limit:
			rep.Late++
		default:
			rep.OK++
		}
		if q.query {
			w.lat = append(w.lat, ms(r.latency(q)))
		}
		if r.ownLate(q) > lateBy {
			lateSends++
		}
		if d := r.sent - q.due; d > w.maxLate {
			w.maxLate = d
		}
	}
	if float64(lateSends) > lateShare*float64(len(w.reqs)) {
		return nil, fmt.Errorf("the generator sent %d of %d requests more than %v late: the box is too busy to measure", lateSends, len(w.reqs), lateBy)
	}
	if quality < sc.floor() {
		return nil, fmt.Errorf("quality %.4f is under the workload's floor %.2f (%d of %d answers wrong)", quality, sc.floor(), rep.Failed, rep.Attempted)
	}
	sort.Float64s(w.lat)
	rep.Samples = len(w.lat)
	var cpu float64
	for _, s := range w.cpu {
		cpu += s
	}
	ops := float64(len(w.reqs))
	rep.values = map[string]float64{
		"latency_p50_ms": quantile(w.lat, 0.50),
		"latency_p90_ms": quantile(w.lat, 0.90),
		"latency_p99_ms": quantile(w.lat, 0.99),
		"cpu_ms_per_op":  cpu * 1000 / ops,
		"goodput_ops_s":  float64(rep.OK) / w.elapsed,
		"rss_peak_mb":    w.rssPeak,
		"quality":        quality,
	}
	fmt.Printf("# window %.3f s: attempted %d, ok %d, failed %d, late %d; %d latency samples; server cpu %.0f %% of %d cores; generator cpu %.0f %% of one core, latest send %.2f ms after due, %d sends delayed > %v by the generator itself\n",
		w.elapsed, rep.Attempted, rep.OK, rep.Failed, rep.Late, rep.Samples,
		100*cpu/w.elapsed/float64(maxConns()), maxConns(), 100*w.selfCPU/w.elapsed, ms(w.maxLate), lateSends, lateBy)
	fmt.Printf("# ungated timings (per-layer metrics e2e.*, reported by -trace 1): latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; server cpu %.3f ms per op\n",
		rep.values["latency_p50_ms"], rep.values["latency_p90_ms"], rep.values["latency_p99_ms"], rep.values["cpu_ms_per_op"])
	return rep, nil
}

// quantile reads the q-quantile off sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median of xs; 0 when there is none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cleanWork removes the run's scratch directory.
func cleanWork(o options) {
	if err := os.RemoveAll(o.work); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench: remove work dir:", err)
	}
}
