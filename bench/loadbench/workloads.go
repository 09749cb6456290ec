package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"repro/internal/dataset"
)

// A scenario is one workload: which processes run, what is loaded
// before the window, what the window sends, how answers are judged,
// and which request proves a restarted stack serves the same data.
type scenario interface {
	spec() stackSpec
	// corpus is the set-up's ingest requests, sent one after another
	// through the public ingest routes before the window.
	corpus() []request
	// warmup and window are the pre-built requests of the discarded
	// warm-up and of the measured window.
	warmup() []request
	window() []request
	// lanes assigns the window's (or warm-up's) requests to connections.
	lanes(reqs []request, c conns) []lane
	// check judges every result of the measured window: pass[i] says
	// whether request i was answered correctly, quality is the
	// workload's score in [0, 1]. It may read back from the stack.
	check(reqs []request, res []result, c conns, base string) (pass []bool, quality float64, err error)
	// floor is the quality below which a run is refused.
	floor() float64
	// probe is the request whose response must be byte-identical after
	// a kill and restart.
	probe() request
}

// sizes are the frozen dimensions of the four workloads. The rates
// were set once so that the servers use 20-45 % of the box's two
// cores (see README, "Measured utilisation"); -smoke shrinks them for
// the self-test.
type sizes struct {
	scanDocs    int
	scanRate    float64
	askItems    int
	askRate     float64
	askFloor    float64 // quality below which an ask_verify run is refused
	ingestBase  int
	ingestBatch int     // docs per /ingest/stream request
	ingestEvery float64 // seconds between ingest requests
	clusterDocs int
	clusterRate float64
	warmup      time.Duration
}

var fullSizes = sizes{
	scanDocs: 20000, scanRate: 60,
	// The floor is just under what the server's threshold gives on the
	// labelled set (0.826 over a 15 s window's triples, 0.819 over 20 s).
	askItems: 2000, askRate: 40, askFloor: 0.80,
	ingestBase: 20000, ingestBatch: 100, ingestEvery: 0.1,
	clusterDocs: 1500, clusterRate: 150,
	warmup: 2 * time.Second,
}

var smokeSizes = sizes{
	scanDocs: 500, scanRate: 30,
	askItems: 60, askRate: 20, // no floor: F1 over a dozen triples says nothing
	ingestBase: 300, ingestBatch: 50, ingestEvery: 0.1,
	clusterDocs: 500, clusterRate: 30,
	warmup: 300 * time.Millisecond,
}

// Latency limits: an operation answered later than its limit does not
// count toward goodput. They sit an order of magnitude above each
// workload's p90, where slow ends and broken begins. The issue's tighter
// starting values (100, 100 and 50 ms) were a few times p99, and the box
// itself stalls that long now and then — one or two operations in some
// runs went over them with nothing wrong in the program. The limits of
// ingest_beside_search are with its other constants.
const (
	searchLimit  = 200 * time.Millisecond
	askLimit     = 200 * time.Millisecond
	clusterLimit = 100 * time.Millisecond
)

// workloadNames is the order BENCHMARK.json lists them in.
var workloadNames = []string{"search_scan", "ask_verify", "ingest_beside_search", "cluster_search"}

func newScenario(name string, sz sizes, seed int64, seconds float64) (scenario, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "search_scan":
		return newSearch(r, sz.scanDocs, sz.scanRate, sz.warmup, seconds,
			stackSpec{frontArgs: []string{"-shards", "2"}}, searchLimit)
	case "cluster_search":
		return newSearch(r, sz.clusterDocs, sz.clusterRate, sz.warmup, seconds,
			stackSpec{nodes: 3}, clusterLimit)
	case "ask_verify":
		return newAskVerify(r, sz, seconds)
	case "ingest_beside_search":
		return newIngestBeside(r, sz, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// streamBatch is how many documents one set-up /ingest/stream request
// carries.
const streamBatch = 2000

// streamRequests renders docs as set-up /ingest/stream requests.
func streamRequests(collection string, docs []doc) []request {
	path := "/ingest/stream"
	if collection != "" {
		path += "?collection=" + collection
	}
	var reqs []request
	for start := 0; start < len(docs); start += streamBatch {
		end := start + streamBatch
		if end > len(docs) {
			end = len(docs)
		}
		reqs = append(reqs, request{path: path, body: ndjson(docs[start:end])})
	}
	return reqs
}

// loadCorpus sends the scenario's corpus and, on a stack that has a
// route for it, takes the set-up checkpoint. Cluster stacks have none
// (shardnode checkpoints only on a timer or a clean shutdown), so
// their recovery replays the whole WAL.
func loadCorpus(sc scenario, c *http.Client, base string) error {
	for _, q := range sc.corpus() {
		status, body, err := post(c, base+q.path, q.body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", q.path, status, bytes.TrimSpace(body))
		}
		if strings.HasPrefix(q.path, "/ingest/stream") {
			want := bytes.Count(q.body, []byte("\n"))
			if n, err := streamIndexed(status, body); err != nil || n != want {
				return fmt.Errorf("%s: indexed %d of %d docs: %v", q.path, n, want, err)
			}
		}
	}
	if sc.spec().nodes > 0 {
		return nil
	}
	status, body, err := post(c, base+"/admin/checkpoint", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("checkpoint: status %d: %s", status, bytes.TrimSpace(body))
	}
	return nil
}

// streamIndexed returns the indexed count of a completed
// /ingest/stream response: the last NDJSON frame must carry done=true
// and no error.
func streamIndexed(status int, body []byte) (int, error) {
	if status != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var last struct {
		Indexed int    `json:"indexed"`
		Failed  int    `json:"failed"`
		Done    bool   `json:"done"`
		Error   string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return 0, fmt.Errorf("parse final frame: %w", err)
	}
	if !last.Done || last.Error != "" || last.Failed != 0 {
		return last.Indexed, fmt.Errorf("stream ended done=%v failed=%d error=%q", last.Done, last.Failed, last.Error)
	}
	return last.Indexed, nil
}

// sharedLane puts every request on all connections.
func sharedLane(reqs []request, c conns) []lane {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	return []lane{{reqs: idx, conns: c}}
}

func ok2xx(r result) bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// ---- search_scan and cluster_search ---------------------------------

// searchScenario sends unique /search queries, a quarter of them
// filtered on one tag, over a static corpus.
type searchScenario struct {
	stack   stackSpec
	docs    []doc
	oracle  *oracle
	warm    []searchQuery
	queries []searchQuery
	probeQ  searchQuery
	rate    float64
	limit   time.Duration
}

func newSearch(r *rand.Rand, ndocs int, rate float64, warm time.Duration, seconds float64, spec stackSpec, limit time.Duration) (*searchScenario, error) {
	s := &searchScenario{stack: spec, rate: rate, limit: limit}
	s.docs = genCorpus(r, ndocs, docWords, "d", "")
	nwarm := int(rate * warm.Seconds())
	qs := genQueries(r, s.docs, nwarm+int(rate*seconds), "")
	s.warm, s.queries = qs[:nwarm], qs[nwarm:]
	var err error
	if s.oracle, err = newOracle(s.docs); err != nil {
		return nil, err
	}
	s.probeQ, err = s.oracle.probeQuery(rand.New(rand.NewSource(r.Int63())), "")
	return s, err
}

func (s *searchScenario) spec() stackSpec { return s.stack }
func (s *searchScenario) floor() float64  { return 1 }

func (s *searchScenario) corpus() []request { return streamRequests("", s.docs) }

func searchRequests(qs []searchQuery, rate float64, limit time.Duration) []request {
	due := schedule(len(qs), rate)
	reqs := make([]request, len(qs))
	for i, q := range qs {
		reqs[i] = request{due: due[i], path: "/search", body: q.body(), query: true, limit: limit}
	}
	return reqs
}

func (s *searchScenario) warmup() []request { return searchRequests(s.warm, s.rate, s.limit) }
func (s *searchScenario) window() []request { return searchRequests(s.queries, s.rate, s.limit) }

func (s *searchScenario) lanes(reqs []request, c conns) []lane { return sharedLane(reqs, c) }

func (s *searchScenario) probe() request {
	return request{path: "/search", body: s.probeQ.body()}
}

func (s *searchScenario) check(reqs []request, res []result, c conns, base string) ([]bool, float64, error) {
	pass, bad := checkSearches(s.oracle, s.queries, res)
	if bad != nil {
		fmt.Printf("# first wrong answer: %v\n", bad)
	}
	return pass, share(pass), nil
}

// checkSearches judges each /search result against the oracle and
// returns the first mismatch for the log.
func checkSearches(o *oracle, qs []searchQuery, res []result) (pass []bool, first error) {
	pass = make([]bool, len(qs))
	scratch := make([]float64, len(o.docs))
	for i, q := range qs {
		err := res[i].err
		if err == nil && !ok2xx(res[i]) {
			err = fmt.Errorf("status %d: %s", res[i].status, bytes.TrimSpace(res[i].body))
		}
		var hits []hit
		if err == nil {
			hits, err = parseHits(res[i].body)
		}
		if err == nil {
			err = o.checkSearch(q, hits, scratch)
		}
		pass[i] = err == nil
		if err != nil && first == nil {
			first = fmt.Errorf("query %d %q: %w", i, q.Text, err)
		}
	}
	return pass, first
}

func share(pass []bool) float64 {
	n := 0
	for _, p := range pass {
		if p {
			n++
		}
	}
	return float64(n) / float64(len(pass))
}

// ---- ask_verify ------------------------------------------------------

// askVerify drives the paper's own path: /ask (retrieve, generate,
// verify) and /verify on labelled responses, a quarter of the requests
// exact repeats of an earlier one.
type askVerify struct {
	sz       sizes
	contexts []string
	warm     []askOp
	ops      []askOp
}

// askOp is one generated /ask or /verify request. label is the
// dataset's ground truth for a /verify response ("" for /ask).
type askOp struct {
	path  string
	body  []byte
	label dataset.Label
}

const (
	askShare    = 0.30 // of first-time requests, the rest are /verify
	repeatShare = 0.25 // of all requests: exact repeats of an earlier one
	// evalSeed generates the labelled set. It is the seed of
	// dataset.Default, the set the experiment harness evaluates on, and
	// deliberately not the run's seed: quality is the detector's F1 on a
	// fixed set of triples, so it reads the same whatever the seed and
	// moves only when the detector's verdicts do. The run's seed decides
	// the order the triples arrive in, which requests repeat, and the
	// /ask questions. (With the set drawn from the run's seed, F1 over
	// ~400 triples ranged 0.76-0.86 from seed to seed.)
	evalSeed = 20250612
)

func newAskVerify(r *rand.Rand, sz sizes, seconds float64) (*askVerify, error) {
	set, err := dataset.Generate(evalSeed, sz.askItems)
	if err != nil {
		return nil, err
	}
	a := &askVerify{sz: sz, contexts: set.Contexts()}
	// The pool of first-time /verify triples: every distinct (question,
	// context, response) of the set. The generator cycles 16 topics, so
	// items repeat; a repeated triple would be a verdict-cache hit that
	// the 25 % repeat share does not account for. The pool is put in a
	// fixed shuffled order: the set's own order opens with the few
	// fact values every topic starts from, whose sentences the models
	// memoise, and a window cut from it would verify mostly warm prompts.
	var pool []askOp
	seen := map[string]bool{}
	for _, it := range set.Items {
		for _, resp := range it.Responses {
			body := mustJSON(map[string]string{"question": it.Question, "context": it.Context, "response": resp.Text})
			if seen[string(body)] {
				continue
			}
			seen[string(body)] = true
			pool = append(pool, askOp{path: "/verify", body: body, label: resp.Label})
		}
	}
	rand.New(rand.NewSource(evalSeed)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	asked := 0
	// mix returns n requests: fixed numbers of first-time /verify (the
	// first of triples, in a seeded order), first-time /ask and exact
	// repeats, the repeats at seeded positions.
	mix := func(n int, triples []askOp) ([]askOp, int, error) {
		nrep := int(repeatShare * float64(n))
		nask := int(askShare * float64(n-nrep))
		nver := n - nrep - nask
		if nver > len(triples) {
			return nil, 0, fmt.Errorf("ask_verify: %d items yield %d distinct triples, %d requests need %d", sz.askItems, len(triples), n, nver)
		}
		first := append([]askOp(nil), triples[:nver]...)
		for i := 0; i < nask; i++ {
			// The set has one question per topic; the employee reference
			// makes each /ask a first-time request (embed-cache miss, cold
			// verification) the way differently-worded questions would.
			it := set.Items[r.Intn(len(set.Items))]
			asked++
			q := fmt.Sprintf("Employee %d asks: %s", 1000+asked, it.Question)
			first = append(first, askOp{path: "/ask", body: mustJSON(map[string]string{"question": q})})
		}
		r.Shuffle(len(first), func(i, j int) { first[i], first[j] = first[j], first[i] })
		isRepeat := make([]bool, n)
		if n > 1 {
			for _, slot := range r.Perm(n - 1)[:nrep] {
				isRepeat[slot+1] = true // never the first request
			}
		}
		ops := make([]askOp, 0, n)
		for i := 0; i < n; i++ {
			if isRepeat[i] {
				ops = append(ops, ops[r.Intn(i)])
			} else {
				ops = append(ops, first[0])
				first = first[1:]
			}
		}
		return ops, nver, nil
	}
	// The window takes its triples from the front of the pool, the
	// warm-up from the back, so the window's set does not depend on how
	// long the warm-up is.
	var inWindow, inWarmup int
	if a.ops, inWindow, err = mix(int(sz.askRate*seconds), pool); err != nil {
		return nil, err
	}
	nwarm := int(sz.askRate * sz.warmup.Seconds())
	back := append([]askOp(nil), pool...)
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}
	if a.warm, inWarmup, err = mix(nwarm, back); err != nil {
		return nil, err
	}
	if inWindow+inWarmup > len(pool) {
		return nil, fmt.Errorf("ask_verify: %d distinct triples are too few for %d window and %d warm-up ones", len(pool), inWindow, inWarmup)
	}
	return a, nil
}

func (a *askVerify) spec() stackSpec {
	// -seed-demo calibrates the detector at boot, which freezes its
	// normalisation: without it verdicts depend on request order, the
	// verdict cache is bypassed and quality cannot repeat.
	return stackSpec{frontArgs: []string{"-seed-demo"}}
}

func (a *askVerify) floor() float64 { return a.sz.askFloor }

func (a *askVerify) corpus() []request {
	const batch = 500
	var reqs []request
	for start := 0; start < len(a.contexts); start += batch {
		end := start + batch
		if end > len(a.contexts) {
			end = len(a.contexts)
		}
		reqs = append(reqs, request{path: "/ingest/bulk", body: mustJSON(map[string]interface{}{"texts": a.contexts[start:end]})})
	}
	return reqs
}

func (a *askVerify) requests(ops []askOp) []request {
	due := schedule(len(ops), a.sz.askRate)
	reqs := make([]request, len(ops))
	for i, op := range ops {
		reqs[i] = request{due: due[i], path: op.path, body: op.body, query: true, limit: askLimit}
	}
	return reqs
}

func (a *askVerify) warmup() []request { return a.requests(a.warm) }
func (a *askVerify) window() []request { return a.requests(a.ops) }

func (a *askVerify) lanes(reqs []request, c conns) []lane { return sharedLane(reqs, c) }

func (a *askVerify) probe() request {
	for _, op := range a.warm {
		if op.path == "/verify" {
			return request{path: op.path, body: op.body}
		}
	}
	return request{path: a.ops[0].path, body: a.ops[0].body}
}

// verdictBody is the part of an /ask or /verify response the check
// reads.
type verdictBody struct {
	Context  string `json:"context"`
	Response string `json:"response"`
	Trusted  *bool  `json:"trusted"`
	Verdict  *struct {
		Trusted *bool `json:"trusted"`
	} `json:"verdict"`
}

// check scores /verify verdicts against the dataset labels: the
// positive class is "correct", predicted when the server trusts the
// response at its own threshold; quality is the F1 of that — the
// paper's metric. A request passes when it was answered 2xx with a
// well-formed verdict; an exact repeat must also repeat its answer
// byte for byte.
func (a *askVerify) check(reqs []request, res []result, c conns, base string) ([]bool, float64, error) {
	pass := make([]bool, len(reqs))
	firstAnswer := map[string][]byte{}
	var tp, fp, fn int
	for i, op := range a.ops {
		if !ok2xx(res[i]) {
			continue
		}
		var v verdictBody
		if err := json.Unmarshal(res[i].body, &v); err != nil {
			continue
		}
		prev, repeat := firstAnswer[string(op.body)]
		if repeat && !bytes.Equal(prev, res[i].body) {
			continue
		}
		firstAnswer[string(op.body)] = res[i].body
		if op.path == "/ask" {
			pass[i] = v.Verdict != nil && v.Verdict.Trusted != nil && v.Response != "" && v.Context != ""
			continue
		}
		if v.Trusted == nil {
			continue
		}
		pass[i] = true
		if repeat {
			continue // F1 is over the fixed set of triples, each counted once
		}
		correct := op.label == dataset.LabelCorrect
		switch {
		case *v.Trusted && correct:
			tp++
		case *v.Trusted && !correct:
			fp++
		case !*v.Trusted && correct:
			fn++
		}
	}
	if tp == 0 {
		return pass, 0, nil
	}
	p := float64(tp) / float64(tp+fp)
	rc := float64(tp) / float64(tp+fn)
	fmt.Printf("# /verify verdicts against labels: tp %d, fp %d, fn %d; precision %.3f, recall %.3f\n", tp, fp, fn, p, rc)
	return pass, 2 * p * rc / (p + rc), nil
}

// ---- ingest_beside_search ---------------------------------------------

// ingestBeside streams new documents into collection "live" on one
// connection while the other sends one search per batch to collection
// "base", whose expected answers do not depend on how far the ingest
// has got.
type ingestBeside struct {
	sz      sizes
	base    []doc
	live    []doc
	oracle  *oracle
	warm    []searchQuery
	queries []searchQuery
	probeQ  searchQuery
	seconds float64
	sampler *rand.Rand
}

const (
	// liveDocWords makes the streamed documents long: parsing, chunking
	// and embedding cost grows with the words of a document while a
	// search costs the same whatever length the stored texts have, so
	// this is what keeps ingest the larger share of the servers' work.
	liveDocWords = 128
	// searchAfter is how long after each ingest batch is sent its search
	// is: late enough that the server is indexing the batch when the
	// search arrives. Every search then reads under a write. A search
	// rate of its own would let a fifth of the searches land in a batch
	// and the rest between two, and p90 would sit on the edge between the
	// two kinds, where it moved by a third from run to run.
	searchAfter             = 5 * time.Millisecond
	searchLimitBesideIngest = 400 * time.Millisecond
	ingestLimit             = 500 * time.Millisecond
	checkpointLimit         = 5 * time.Second
	readbackSample          = 200
)

func newIngestBeside(r *rand.Rand, sz sizes, seconds float64) (*ingestBeside, error) {
	g := &ingestBeside{sz: sz, seconds: seconds}
	g.base = genCorpus(r, sz.ingestBase, docWords, "b", "base")
	nbatches := int((sz.warmup.Seconds() + seconds) / sz.ingestEvery)
	g.live = genCorpus(r, nbatches*sz.ingestBatch, liveDocWords, "l", "live")
	nwarm := g.warmBatches()
	qs := genQueries(r, g.base, nbatches, "base")
	g.warm, g.queries = qs[:nwarm], qs[nwarm:]
	g.sampler = rand.New(rand.NewSource(r.Int63()))
	var err error
	if g.oracle, err = newOracle(g.base); err != nil {
		return nil, err
	}
	g.probeQ, err = g.oracle.probeQuery(rand.New(rand.NewSource(r.Int63())), "base")
	return g, err
}

func (g *ingestBeside) spec() stackSpec { return stackSpec{frontArgs: []string{"-shards", "2"}} }
func (g *ingestBeside) floor() float64  { return 1 }

func (g *ingestBeside) corpus() []request { return streamRequests("base", g.base) }

// warmBatches is how many live batches the warm-up sends.
func (g *ingestBeside) warmBatches() int { return int(g.sz.warmup.Seconds() / g.sz.ingestEvery) }

// ingestRequests paces batches [from, to) of the live corpus.
func (g *ingestBeside) ingestRequests(from, to int) []request {
	var reqs []request
	for b := from; b < to; b++ {
		docs := g.live[b*g.sz.ingestBatch : (b+1)*g.sz.ingestBatch]
		reqs = append(reqs, request{
			due:  time.Duration(float64(b-from) * g.sz.ingestEvery * float64(time.Second)),
			path: "/ingest/stream?collection=live", body: ndjson(docs), limit: ingestLimit,
		})
	}
	return reqs
}

// searchRequests schedules one search per ingest batch, searchAfter
// behind it.
func (g *ingestBeside) searchRequests(qs []searchQuery) []request {
	reqs := searchRequests(qs, 1/g.sz.ingestEvery, searchLimitBesideIngest)
	for i := range reqs {
		reqs[i].due += searchAfter
	}
	return reqs
}

func (g *ingestBeside) warmup() []request {
	return append(g.ingestRequests(0, g.warmBatches()), g.searchRequests(g.warm)...)
}

// window is the ingest batches, one checkpoint halfway through the
// window (on the ingest connection, so it delays ingest the way an
// operator's checkpoint would), and the searches.
func (g *ingestBeside) window() []request {
	wb := g.warmBatches()
	ing := g.ingestRequests(wb, len(g.live)/g.sz.ingestBatch)
	half := time.Duration(g.seconds / 2 * float64(time.Second))
	var reqs []request
	placed := false
	for _, q := range ing {
		if !placed && q.due >= half {
			reqs = append(reqs, request{due: half, path: "/admin/checkpoint", limit: checkpointLimit})
			placed = true
		}
		reqs = append(reqs, q)
	}
	return append(reqs, g.searchRequests(g.queries)...)
}

// lanes pins ingest (and the checkpoint) to the first connection and
// the searches to the second.
func (g *ingestBeside) lanes(reqs []request, c conns) []lane {
	var ing, srch []int
	for i, q := range reqs {
		if q.query {
			srch = append(srch, i)
		} else {
			ing = append(ing, i)
		}
	}
	return []lane{{reqs: ing, conns: c[:1]}, {reqs: srch, conns: c[len(c)-1:]}}
}

func (g *ingestBeside) probe() request {
	return request{path: "/search", body: g.probeQ.body()}
}

// check is the mean of two shares: base searches equal to the oracle,
// and a sample of acknowledged live documents found again as the best
// hit for their own text — provided the server holds exactly base +
// acknowledged documents.
func (g *ingestBeside) check(reqs []request, res []result, c conns, base string) ([]bool, float64, error) {
	pass := make([]bool, len(reqs))
	var searchIdx []int
	var sres []result
	for i, q := range reqs {
		if q.query {
			searchIdx = append(searchIdx, i)
			sres = append(sres, res[i])
		}
	}
	spass, bad := checkSearches(g.oracle, g.queries, sres)
	if bad != nil {
		fmt.Printf("# first wrong answer: %v\n", bad)
	}
	for j, i := range searchIdx {
		pass[i] = spass[j]
	}
	// Acknowledged = the stream's final frame reports every doc indexed.
	// The warm-up's batches are counted as stored: if one was not, the
	// document count below is off and the readback share is zero.
	var acked []doc
	batch := g.warmBatches()
	ackedDocs := batch * g.sz.ingestBatch
	for i, q := range reqs {
		if q.query {
			continue
		}
		if q.path == "/admin/checkpoint" {
			pass[i] = ok2xx(res[i])
			continue
		}
		n, err := streamIndexed(res[i].status, res[i].body)
		if res[i].err == nil && err == nil && n == g.sz.ingestBatch {
			pass[i] = true
			acked = append(acked, g.live[batch*g.sz.ingestBatch:(batch+1)*g.sz.ingestBatch]...)
			ackedDocs += g.sz.ingestBatch
		}
		batch++
	}
	raw, err := get(c[0], base+"/stats")
	if err != nil {
		return nil, 0, err
	}
	var st struct {
		Docs int `json:"docs"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, fmt.Errorf("parse /stats: %w", err)
	}
	found := 0.0
	if want := len(g.base) + ackedDocs; st.Docs != want {
		fmt.Printf("# /stats docs = %d, want base + acknowledged = %d\n", st.Docs, want)
	} else if len(acked) > 0 {
		n := readbackSample
		if n > len(acked) {
			n = len(acked)
		}
		hitsBack := 0
		for _, j := range g.sampler.Perm(len(acked))[:n] {
			d := acked[j]
			body := mustJSON(map[string]interface{}{"query": d.Text, "k": 1, "collection": "live"})
			status, rb, err := post(c[0], base+"/search", body)
			if err != nil || status != http.StatusOK {
				continue
			}
			if hits, err := parseHits(rb); err == nil && len(hits) == 1 && hits[0].Text == d.Text {
				hitsBack++
			}
		}
		found = float64(hitsBack) / float64(n)
	}
	return pass, (share(spass) + found) / 2, nil
}
