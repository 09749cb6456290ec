package vecdb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/rng"
)

// HNSWIndex is a hierarchical navigable small world graph: vectors are
// linked to their approximate nearest neighbours on a stack of layers
// whose occupancy decays geometrically, and queries greedily descend
// from the sparse top layer to an exhaustive beam search on layer 0.
// It answers queries in roughly logarithmic time without the training
// phase IVF needs, which makes it the right index for incrementally
// built stores (e.g. ragserver's /ingest endpoint).
//
// The implementation follows Malkov & Yashunin (2016): insertion-time
// level sampling with P(level ≥ l) = exp(-l/mL), M links per node per
// layer (2M on layer 0), and efSearch/efConstruction beam widths.
//
// Vector storage is the shared rowSet: with QuantInt8 the graph
// traversal scores neighbours through the int8 kernel and the final
// candidate beam is re-ranked against the exact float32 rows.
type HNSWIndex struct {
	metric Metric
	dim    int
	m      int // max links per layer (layer 0 allows 2m)
	efCons int
	efSrch int

	entry    int64 // entry point node id; -1 when empty
	maxLevel int
	levels   map[int64]int       // node → top layer
	links    map[int64][][]int64 // node → per-layer neighbour lists
	rs       rowSet
	src      *rng.Source
	observe  func(stage string, seconds float64)
}

// NewHNSWIndex creates an HNSW index. m is the per-layer link budget
// (a typical value is 16), efConstruction the insertion beam width
// (e.g. 100), efSearch the query beam width (e.g. 50).
func NewHNSWIndex(metric Metric, dim, m, efConstruction, efSearch int) (*HNSWIndex, error) {
	return NewHNSWIndexQ(metric, dim, m, efConstruction, efSearch, QuantConfig{})
}

// NewHNSWIndexQ creates an HNSW index with the given quantization
// config (QuantConfig{} keeps exact float traversal).
func NewHNSWIndexQ(metric Metric, dim, m, efConstruction, efSearch int, q QuantConfig) (*HNSWIndex, error) {
	if err := checkIndexDim(dim); err != nil {
		return nil, err
	}
	if m < 2 {
		return nil, fmt.Errorf("vecdb: HNSW m must be ≥ 2, got %d", m)
	}
	if efConstruction < m || efSearch < 1 {
		return nil, fmt.Errorf("vecdb: need efConstruction(%d) ≥ m(%d) and efSearch(%d) ≥ 1",
			efConstruction, m, efSearch)
	}
	return &HNSWIndex{
		metric: metric, dim: dim, m: m,
		efCons: efConstruction, efSrch: efSearch,
		entry: -1, levels: map[int64]int{},
		links: map[int64][][]int64{},
		rs:    newRowSet(dim, q),
		src:   rng.NewFromString("hnsw-levels"),
	}, nil
}

// SetStageObserver implements StageObservable.
func (h *HNSWIndex) SetStageObserver(fn func(stage string, seconds float64)) { h.observe = fn }

// Memory implements MemoryReporter.
func (h *HNSWIndex) Memory() IndexMemory {
	m := h.rs.memory()
	for _, layers := range h.links {
		m.GraphBytes += 24 // slice header per node
		for _, l := range layers {
			m.GraphBytes += 24 + int64(len(l))*8
		}
	}
	return m
}

// Len implements Index.
func (h *HNSWIndex) Len() int { return h.rs.len() }

// scoreID is the traversal score between a stored node and the
// prepared query (higher is better): quantized when the rowSet carries
// codes, exact otherwise. Dangling ids (left behind by deletions as
// one-directional in-links) score -Inf so they are never selected.
func (h *HNSWIndex) scoreID(id int64, pq *preparedQuery) float64 {
	row, ok := h.rs.pos[id]
	if !ok {
		return math.Inf(-1)
	}
	return h.rs.scoreRow(h.metric, row, pq)
}

// randomLevel samples the insertion level with the standard geometric
// distribution (mL = 1/ln(2·m) keeps expected layer occupancy right).
func (h *HNSWIndex) randomLevel() int {
	ml := 1 / math.Log(float64(2*h.m))
	return int(-math.Log(h.src.Float64()+1e-12) * ml)
}

// capacity returns the link budget for a layer.
func (h *HNSWIndex) capacity(layer int) int {
	if layer == 0 {
		return 2 * h.m
	}
	return h.m
}

// Add implements Index. Adding an existing id replaces its vector by
// delete-and-reinsert.
func (h *HNSWIndex) Add(id int64, vec []float32) error {
	if len(vec) != h.dim {
		return fmt.Errorf("%w: index dim %d, vector dim %d", ErrDimMismatch, h.dim, len(vec))
	}
	if _, exists := h.rs.pos[id]; exists {
		h.Remove(id)
	}
	level := h.randomLevel()
	h.rs.add(id, vec)
	h.levels[id] = level
	h.links[id] = make([][]int64, level+1)

	if h.entry == -1 {
		h.entry = id
		h.maxLevel = level
		return nil
	}
	pq := h.rs.prepare(h.metric, vec)
	// Greedy descent from the global entry to the insertion level.
	cur := h.entry
	for l := h.maxLevel; l > level; l-- {
		cur = h.greedyStep(cur, &pq, l)
	}
	// Beam search + link on each layer from min(level, maxLevel) down.
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		candidates := h.searchLayer(cur, &pq, h.efCons, l)
		neighbours := h.selectNeighbours(candidates, &pq, h.capacity(l))
		h.links[id][l] = append([]int64(nil), neighbours...)
		for _, n := range neighbours {
			h.links[n][l] = append(h.links[n][l], id)
			if cap := h.capacity(l); len(h.links[n][l]) > cap {
				npq := h.rs.prepare(h.metric, h.rs.vector(h.rs.pos[n]))
				h.links[n][l] = h.selectNeighbours(h.links[n][l], &npq, cap)
			}
		}
		if len(candidates) > 0 {
			cur = candidates[0]
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = id
	}
	return nil
}

// greedyStep moves to the best-scoring neighbour until no neighbour
// improves, returning the local optimum on the layer.
func (h *HNSWIndex) greedyStep(start int64, pq *preparedQuery, layer int) int64 {
	cur := start
	curScore := h.scoreID(cur, pq)
	for {
		improved := false
		if layer < len(h.links[cur]) {
			for _, n := range h.links[cur][layer] {
				if _, ok := h.rs.pos[n]; !ok {
					continue // dangling in-link from a deletion
				}
				if s := h.scoreID(n, pq); s > curScore {
					cur, curScore = n, s
					improved = true
				}
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer runs a best-first beam search of width ef on one layer,
// returning up to ef node ids ordered by descending score.
func (h *HNSWIndex) searchLayer(start int64, pq *preparedQuery, ef, layer int) []int64 {
	visited := map[int64]bool{start: true}
	// candidates: max-heap by score (explore best first); results:
	// bounded min-heap of the best ef.
	cand := resultHeap{{ID: start, Score: -h.scoreID(start, pq)}} // negated: container/heap min == best
	results := resultHeap{{ID: start, Score: h.scoreID(start, pq)}}
	for len(cand) > 0 {
		// Pop the best unexplored candidate.
		best := cand[0]
		last := len(cand) - 1
		cand[0] = cand[last]
		cand = cand[:last]
		siftDown(cand)
		bestScore := -best.Score
		if len(results) == ef && bestScore < results[0].Score {
			break // no candidate can improve the result set
		}
		if int(best.ID) >= 0 {
			for _, n := range h.neighboursAt(best.ID, layer) {
				if visited[n] {
					continue
				}
				visited[n] = true
				if _, ok := h.rs.pos[n]; !ok {
					continue // dangling in-link from a deletion
				}
				s := h.scoreID(n, pq)
				if len(results) < ef || s > results[0].Score {
					results = pushHeap(results, Result{ID: n, Score: s})
					if len(results) > ef {
						results = popMin(results)
					}
					cand = pushHeap(cand, Result{ID: n, Score: -s})
				}
			}
		}
	}
	sorted := drainSorted(&results)
	out := make([]int64, len(sorted))
	for i, r := range sorted {
		out[i] = r.ID
	}
	return out
}

func (h *HNSWIndex) neighboursAt(id int64, layer int) []int64 {
	ls := h.links[id]
	if layer >= len(ls) {
		return nil
	}
	return ls[layer]
}

// selectNeighbours picks up to cap links for the base point described
// by pq with the Malkov & Yashunin diversity heuristic (Algorithm 4):
// walking candidates best-first, a candidate is linked only when it is
// closer to the base than to every neighbour already selected. Plain
// top-cap selection spends the whole link budget inside the base's own
// cluster and leaves layer 0 disconnected on clustered corpora — raising
// efSearch then cannot recover queries whose cluster is unreachable. The
// heuristic keeps a few longer "bridge" links instead, at pure
// construction-time cost. Leftover slots are backfilled with the best
// pruned candidates (keepPrunedConnections in the paper). Selection
// scores are exact float even on a quantized index: graph topology
// should not inherit quantization error.
func (h *HNSWIndex) selectNeighbours(candidates []int64, pq *preparedQuery, cap int) []int64 {
	scored := make([]Result, 0, len(candidates))
	for _, c := range dedupe(candidates) {
		row, ok := h.rs.pos[c]
		if !ok {
			continue // dangling in-link from a deletion
		}
		scored = append(scored, Result{ID: c, Score: h.rs.exactScore(h.metric, row, pq)})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].ID < scored[j].ID // deterministic tie order
	})
	out := make([]int64, 0, cap)
	sel := make([][]float32, 0, cap) // out's rows, materialised once each
	var pruned []int64
	for _, c := range scored {
		if len(out) == cap {
			break
		}
		keep := true
		cvec := h.rs.vector(h.rs.pos[c.ID])
		for _, svec := range sel {
			toSel, _ := Similarity(h.metric, cvec, svec)
			if toSel > c.Score {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, c.ID)
			sel = append(sel, cvec)
		} else {
			pruned = append(pruned, c.ID)
		}
	}
	for _, id := range pruned {
		if len(out) == cap {
			break
		}
		out = append(out, id)
	}
	return out
}

func dedupe(ids []int64) []int64 {
	seen := map[int64]bool{}
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// Remove implements Index: the node is unlinked from every neighbour
// list. Graph connectivity can degrade under heavy deletion; callers
// with churn-heavy workloads should rebuild periodically (Len tracks
// size for that decision).
func (h *HNSWIndex) Remove(id int64) bool {
	if _, ok := h.rs.pos[id]; !ok {
		return false
	}
	for l, neigh := range h.links[id] {
		for _, n := range neigh {
			// A neighbour re-inserted at a lower level (or already
			// removed) may not reach this layer anymore.
			if l >= len(h.links[n]) {
				continue
			}
			list := h.links[n][l]
			for i, v := range list {
				if v == id {
					list[i] = list[len(list)-1]
					h.links[n][l] = list[:len(list)-1]
					break
				}
			}
		}
	}
	h.rs.remove(id)
	delete(h.levels, id)
	delete(h.links, id)
	if h.entry == id {
		h.entry = -1
		h.maxLevel = 0
		// Any remaining node can serve as the new entry; pick the one
		// with the highest level for a proper descent.
		for n, l := range h.levels {
			if h.entry == -1 || l > h.maxLevel {
				h.entry, h.maxLevel = n, l
			}
		}
	}
	return true
}

// Search implements Index. On a quantized index the beam is widened to
// the re-rank depth and the returned top-k is exact-scored against the
// float32 rows.
func (h *HNSWIndex) Search(query []float32, k int) ([]Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(query) != h.dim {
		return nil, fmt.Errorf("%w: index dim %d, query dim %d", ErrDimMismatch, h.dim, len(query))
	}
	if err := validMetric(h.metric); err != nil {
		return nil, err
	}
	if h.entry == -1 {
		return nil, nil
	}
	pq := h.rs.prepare(h.metric, query)
	cur := h.entry
	for l := h.maxLevel; l > 0; l-- {
		cur = h.greedyStep(cur, &pq, l)
	}
	ef := h.efSrch
	if ef < k {
		ef = k
	}
	if h.rs.quantized() {
		if d := h.rs.quant.rerankDepth(k); ef < d {
			ef = d
		}
	}
	ids := h.searchLayer(cur, &pq, ef, 0)
	if !h.rs.quantized() {
		if len(ids) > k {
			ids = ids[:k]
		}
		out := make([]Result, len(ids))
		for i, id := range ids {
			out[i] = Result{ID: id, Score: h.scoreID(id, &pq)}
		}
		return out, nil
	}
	cands := make([]Result, len(ids))
	for i, id := range ids {
		cands[i] = Result{ID: id}
	}
	var start time.Time
	if h.observe != nil {
		start = time.Now()
	}
	out := h.rs.rerank(h.metric, &pq, cands, k)
	observeStage(h.observe, "rerank", start)
	return out, nil
}

// --- tiny heap helpers over resultHeap without container/heap's
// interface indirection, used on the HNSW hot path ---

func pushHeap(hp resultHeap, r Result) resultHeap {
	hp = append(hp, r)
	i := len(hp) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hp[parent].Score <= hp[i].Score {
			break
		}
		hp[parent], hp[i] = hp[i], hp[parent]
		i = parent
	}
	return hp
}

// popMin removes the smallest-score element (the root).
func popMin(hp resultHeap) resultHeap {
	last := len(hp) - 1
	hp[0] = hp[last]
	hp = hp[:last]
	siftDown(hp)
	return hp
}

func siftDown(hp resultHeap) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(hp) && hp[l].Score < hp[smallest].Score {
			smallest = l
		}
		if r < len(hp) && hp[r].Score < hp[smallest].Score {
			smallest = r
		}
		if smallest == i {
			return
		}
		hp[i], hp[smallest] = hp[smallest], hp[i]
		i = smallest
	}
}
