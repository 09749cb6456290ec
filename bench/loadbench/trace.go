package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run times each layer from outside: decorators at the
// program's own injection points (see decor.go) record one span per
// call. Spans are kept in memory and written out when the run ends.
// The in-process replay sends one request at a time, so a span belongs
// to the request that was current when it started.

// span is one timed call. Parent is filled in when the trace is
// analysed: the innermost span of the same request that contains this
// one and sits at a shallower layer.
type span struct {
	Name   string
	Start  int64 // ns since the trace began
	End    int64
	Parent int // index into the trace's spans, -1 for a request's root
	Req    int64
}

type tracer struct {
	on  atomic.Bool
	req atomic.Int64
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle, or -1 while tracing is
// off (corpus loading, calibration, the untraced pass).
func (t *tracer) begin(name string) int {
	if !t.on.Load() {
		return -1
	}
	s := span{Name: name, Start: int64(time.Since(t.t0)), Parent: -1, Req: t.req.Load()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Span names and the depth of the layer each belongs to. A span's
// parent is the innermost enclosing span of smaller depth; spans of
// equal depth (two shards searched in parallel, two models scoring one
// sentence) are siblings.
const (
	spanSearch      = "serve.search" // roots: serve.Server's public methods
	spanAsk         = "serve.ask"
	spanVerify      = "serve.verify"
	spanIngest      = "serve.ingest"
	spanStoreSearch = "store.search" // serve.Store text search: embed, fan-out, merge
	spanStoreAdd    = "store.add_bulk"
	spanGenerate    = "rag.generate"
	spanSplit       = "core.split"
	spanModel       = "slm.yes_probability"
	spanParse       = "ingest.parse_chunk"
	spanEmbed       = "vecdb.embed"
	spanRPC         = "cluster.rpc"
	spanIndexSearch = "vecdb.index_search"
	spanIndexAdd    = "vecdb.index_add"
)

var spanDepth = map[string]int{
	spanSearch: 0, spanAsk: 0, spanVerify: 0, spanIngest: 0,
	spanStoreSearch: 1, spanStoreAdd: 1, spanGenerate: 1, spanSplit: 1, spanModel: 1, spanParse: 1,
	spanEmbed: 2, spanRPC: 2,
	spanIndexSearch: 3, spanIndexAdd: 3,
}

// budget is where the time of a set of requests went: for every span
// name, the time during which a span of that name was the innermost
// one on the request's blocking path.
type budget struct {
	requests int
	total    time.Duration            // sum of the root spans' durations
	self     map[string]time.Duration // blocking self time per span name
	calls    map[string]int
}

// analyse links every span to its parent and attributes each instant
// of each request to exactly one span: the deepest one covering it,
// and among parallel siblings the one that ends last — the one the
// request was actually waiting for. Summed over names the attribution
// therefore equals the roots' total duration, with nothing counted
// twice and nothing left out. roots selects which requests to include,
// by the name of their root span.
func analyse(spans []span, roots map[string]bool) budget {
	b := budget{self: map[string]time.Duration{}, calls: map[string]int{}}
	byReq := map[int64][]int{}
	for i := range spans {
		byReq[spans[i].Req] = append(byReq[spans[i].Req], i)
	}
	for _, idx := range byReq {
		root := -1
		for _, i := range idx {
			if spanDepth[spans[i].Name] == 0 {
				root = i
			}
		}
		if root < 0 || !roots[spans[root].Name] {
			continue
		}
		// Parents: innermost enclosing span of smaller depth.
		for _, i := range idx {
			s := &spans[i]
			best := -1
			for _, j := range idx {
				p := &spans[j]
				if j == i || spanDepth[p.Name] >= spanDepth[s.Name] || p.Start > s.Start || p.End < s.End {
					continue
				}
				if best < 0 || spanDepth[p.Name] > spanDepth[spans[best].Name] {
					best = j
				}
			}
			s.Parent = best
		}
		// Sweep the request's timeline between consecutive span edges.
		var edges []int64
		for _, i := range idx {
			b.calls[spans[i].Name]++
			if spans[i].Start >= spans[root].Start && spans[i].End <= spans[root].End {
				edges = append(edges, spans[i].Start, spans[i].End)
			}
		}
		sort.Slice(edges, func(x, y int) bool { return edges[x] < edges[y] })
		for e := 0; e+1 < len(edges); e++ {
			lo, hi := edges[e], edges[e+1]
			if hi == lo {
				continue
			}
			owner := -1
			for _, i := range idx {
				s := &spans[i]
				if s.Start > lo || s.End < hi {
					continue
				}
				if owner < 0 {
					owner = i
					continue
				}
				o := &spans[owner]
				if d, od := spanDepth[s.Name], spanDepth[o.Name]; d > od || (d == od && s.End > o.End) {
					owner = i
				}
			}
			b.self[spans[owner].Name] += time.Duration(hi - lo)
		}
		b.requests++
		b.total += time.Duration(spans[root].End - spans[root].Start)
	}
	return b
}

// share is the fraction of the analysed requests' time attributed to
// the named spans.
func (b budget) share(names ...string) float64 {
	if b.total == 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += b.self[n]
	}
	return float64(d) / float64(b.total)
}

// perRequestMS is the mean blocking self time of the named span per
// analysed request.
func (b budget) perRequestMS(name string) float64 {
	if b.requests == 0 {
		return 0
	}
	return ms(b.self[name]) / float64(b.requests)
}

// writeTrace stores the spans next to the other results, one array
// [name, start_ns, end_ns, parent, request] per span with the names
// factored out — an ingest workload's trace has tens of thousands.
func writeTrace(path string, workload string, seed int64, spans []span) error {
	var names []string
	index := map[string]int{}
	rows := make([][5]int64, len(spans))
	for i, s := range spans {
		n, ok := index[s.Name]
		if !ok {
			n = len(names)
			index[s.Name] = n
			names = append(names, s.Name)
		}
		rows[i] = [5]int64{int64(n), s.Start, s.End, int64(s.Parent), s.Req}
	}
	raw, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Columns  []string   `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][5]int64 `json:"spans"`
	}{workload, seed, []string{"name", "start_ns", "end_ns", "parent", "request"}, names, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
