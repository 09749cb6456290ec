package vecdb

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/rng"
)

// Result is one ranked hit from an index search.
type Result struct {
	// ID is the caller-assigned document identifier.
	ID int64
	// Score is the metric score (higher is better for all metrics; L2
	// scores are negated squared distances).
	Score float64
}

// Index ranks stored vectors against a query vector.
type Index interface {
	// Add stores a vector under id. Adding an existing id replaces its
	// vector.
	Add(id int64, vec []float32) error
	// Remove deletes id; removing an absent id is a no-op returning
	// false.
	Remove(id int64) bool
	// Search returns up to k results ordered by descending score.
	Search(query []float32, k int) ([]Result, error)
	// Len reports the number of stored vectors.
	Len() int
}

// resultHeap is a min-heap on Score, used to keep the running top-k.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// pushTopK maintains a bounded min-heap of the best k results.
func pushTopK(h *resultHeap, k int, r Result) {
	if h.Len() < k {
		heap.Push(h, r)
		return
	}
	if r.Score > (*h)[0].Score {
		(*h)[0] = r
		heap.Fix(h, 0)
	}
}

// drainSorted empties the heap into a descending-score slice with a
// deterministic ID tie-break.
func drainSorted(h *resultHeap) []Result {
	out := make([]Result, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Result)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// observeStage times a stage when an observer is attached; zero start
// means "not timing".
func observeStage(fn func(string, float64), stage string, start time.Time) {
	if fn != nil {
		fn(stage, time.Since(start).Seconds())
	}
}

// FlatIndex is the exact brute-force index: every query scans every
// vector. It is the correctness baseline the IVF index is tested
// against, and the right choice below ~100k vectors. With QuantInt8 it
// scans the blocked int8 code mirror instead (≈4× less memory
// traffic) and re-ranks the top candidates against the exact floats.
type FlatIndex struct {
	metric  Metric
	rs      rowSet
	observe func(stage string, seconds float64)
}

// NewFlatIndex creates an exact index for vectors of width dim.
func NewFlatIndex(metric Metric, dim int) (*FlatIndex, error) {
	return NewFlatIndexQ(metric, dim, QuantConfig{})
}

// NewFlatIndexQ creates a flat index with the given quantization
// config (QuantConfig{} scans exact floats, preserving NewFlatIndex
// semantics).
func NewFlatIndexQ(metric Metric, dim int, q QuantConfig) (*FlatIndex, error) {
	if err := checkIndexDim(dim); err != nil {
		return nil, err
	}
	return &FlatIndex{metric: metric, rs: newRowSet(dim, q)}, nil
}

// SetStageObserver implements StageObservable.
func (x *FlatIndex) SetStageObserver(fn func(stage string, seconds float64)) { x.observe = fn }

// Memory implements MemoryReporter.
func (x *FlatIndex) Memory() IndexMemory { return x.rs.memory() }

// Add implements Index.
func (x *FlatIndex) Add(id int64, vec []float32) error {
	if len(vec) != x.rs.dim {
		return fmt.Errorf("%w: index dim %d, vector dim %d", ErrDimMismatch, x.rs.dim, len(vec))
	}
	x.rs.add(id, vec)
	return nil
}

// Remove implements Index using swap-with-last deletion.
func (x *FlatIndex) Remove(id int64) bool { return x.rs.remove(id) }

// Len implements Index.
func (x *FlatIndex) Len() int { return x.rs.len() }

// ErrBadK reports a non-positive k.
var ErrBadK = errors.New("vecdb: k must be positive")

// Search implements Index with a full scan. On a quantized index the
// scan reads int8 codes and the top rerank-depth candidates are
// re-scored exactly before the top-k is returned.
func (x *FlatIndex) Search(query []float32, k int) ([]Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(query) != x.rs.dim {
		return nil, fmt.Errorf("%w: index dim %d, query dim %d", ErrDimMismatch, x.rs.dim, len(query))
	}
	if err := validMetric(x.metric); err != nil {
		return nil, err
	}
	pq := x.rs.prepare(x.metric, query)
	if !x.rs.quantized() {
		h := make(resultHeap, 0, k)
		x.rs.scanInto(&h, k, x.metric, &pq)
		return drainSorted(&h), nil
	}
	depth := x.rs.quant.rerankDepth(k)
	h := make(resultHeap, 0, depth)
	x.rs.scanInto(&h, depth, x.metric, &pq)
	cands := drainSorted(&h)
	var start time.Time
	if x.observe != nil {
		start = time.Now()
	}
	out := x.rs.rerank(x.metric, &pq, cands, k)
	observeStage(x.observe, "rerank", start)
	return out, nil
}

// validMetric rejects metrics Similarity would also reject, once per
// query instead of once per comparison.
func validMetric(m Metric) error {
	switch m {
	case Cosine, Dot, L2:
		return nil
	default:
		return fmt.Errorf("vecdb: unknown metric %v", m)
	}
}

// IVFIndex is an inverted-file index: vectors are partitioned into
// nlist clusters by k-means on insertion-time training data, and a
// query scans only the nprobe nearest clusters. Recall trades against
// speed via nprobe; the benchmark suite measures both. Vector storage
// is the same rowSet the flat index scans — with QuantInt8 each
// probed list is scored through the int8 kernel and the merged
// candidates re-ranked exactly.
type IVFIndex struct {
	metric     Metric
	dim        int
	nlist      int
	nprobe     int
	trained    bool
	centroids  [][]float32
	lists      [][]int64
	rs         rowSet
	membership map[int64]int
	observe    func(stage string, seconds float64)
}

// NewIVFIndex creates an IVF index with nlist clusters probing nprobe
// of them per query. Train must be called before Add/Search.
func NewIVFIndex(metric Metric, dim, nlist, nprobe int) (*IVFIndex, error) {
	return NewIVFIndexQ(metric, dim, nlist, nprobe, QuantConfig{})
}

// NewIVFIndexQ creates an IVF index with the given quantization
// config.
func NewIVFIndexQ(metric Metric, dim, nlist, nprobe int, q QuantConfig) (*IVFIndex, error) {
	if err := checkIndexDim(dim); err != nil {
		return nil, err
	}
	if nlist <= 0 || nprobe <= 0 || nprobe > nlist {
		return nil, fmt.Errorf("vecdb: need 0 < nprobe(%d) <= nlist(%d)", nprobe, nlist)
	}
	return &IVFIndex{
		metric: metric, dim: dim, nlist: nlist, nprobe: nprobe,
		rs: newRowSet(dim, q), membership: map[int64]int{},
	}, nil
}

// SetStageObserver implements StageObservable.
func (x *IVFIndex) SetStageObserver(fn func(stage string, seconds float64)) { x.observe = fn }

// Memory implements MemoryReporter.
func (x *IVFIndex) Memory() IndexMemory {
	m := x.rs.memory()
	m.GraphBytes = int64(len(x.centroids)) * int64(x.dim) * 4 // centroid rows
	for _, l := range x.lists {
		m.GraphBytes += int64(len(l)) * 8
	}
	return m
}

// ErrNotTrained is returned by Add/Search before Train.
var ErrNotTrained = errors.New("vecdb: IVF index not trained")

// Train runs k-means (k = nlist) over the sample to position the
// cluster centroids. A sample smaller than nlist shrinks nlist to fit.
func (x *IVFIndex) Train(sample [][]float32, iterations int) error {
	if len(sample) == 0 {
		return errors.New("vecdb: empty training sample")
	}
	for _, v := range sample {
		if len(v) != x.dim {
			return fmt.Errorf("%w in training sample", ErrDimMismatch)
		}
	}
	if x.nlist > len(sample) {
		x.nlist = len(sample)
		if x.nprobe > x.nlist {
			x.nprobe = x.nlist
		}
	}
	if iterations <= 0 {
		iterations = 10
	}
	src := rng.NewFromString("ivf-kmeans")
	// k-means++ style: first centroid random, rest greedily far.
	perm := src.Perm(len(sample))
	x.centroids = make([][]float32, 0, x.nlist)
	for _, pi := range perm[:x.nlist] {
		c := make([]float32, x.dim)
		copy(c, sample[pi])
		x.centroids = append(x.centroids, c)
	}
	assign := make([]int, len(sample))
	for it := 0; it < iterations; it++ {
		changed := false
		for i, v := range sample {
			best := x.nearestCentroid(v)
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([][]float64, x.nlist)
		counts := make([]int, x.nlist)
		for c := range sums {
			sums[c] = make([]float64, x.dim)
		}
		for i, v := range sample {
			c := assign[i]
			counts[c]++
			for d, f := range v {
				sums[c][d] += float64(f)
			}
		}
		for c := range x.centroids {
			if counts[c] == 0 {
				continue // keep previous position for empty clusters
			}
			for d := range x.centroids[c] {
				x.centroids[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	x.lists = make([][]int64, x.nlist)
	x.trained = true
	return nil
}

// nearestCentroid returns the centroid index with the best metric
// score for v.
func (x *IVFIndex) nearestCentroid(v []float32) int {
	best, bestScore := 0, -1.0
	for c, cent := range x.centroids {
		s, _ := Similarity(x.metric, v, cent)
		if c == 0 || s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// Trained reports whether Train has completed.
func (x *IVFIndex) Trained() bool { return x.trained }

// Add implements Index.
func (x *IVFIndex) Add(id int64, vec []float32) error {
	if !x.trained {
		return ErrNotTrained
	}
	if len(vec) != x.dim {
		return fmt.Errorf("%w: index dim %d, vector dim %d", ErrDimMismatch, x.dim, len(vec))
	}
	if _, ok := x.membership[id]; ok {
		x.Remove(id)
	}
	c := x.nearestCentroid(vec)
	x.rs.add(id, vec)
	x.membership[id] = c
	x.lists[c] = append(x.lists[c], id)
	return nil
}

// Remove implements Index.
func (x *IVFIndex) Remove(id int64) bool {
	c, ok := x.membership[id]
	if !ok {
		return false
	}
	list := x.lists[c]
	for i, v := range list {
		if v == id {
			list[i] = list[len(list)-1]
			x.lists[c] = list[:len(list)-1]
			break
		}
	}
	x.rs.remove(id)
	delete(x.membership, id)
	return true
}

// Len implements Index.
func (x *IVFIndex) Len() int { return x.rs.len() }

// Search implements Index by scanning the nprobe closest clusters.
func (x *IVFIndex) Search(query []float32, k int) ([]Result, error) {
	if !x.trained {
		return nil, ErrNotTrained
	}
	if k <= 0 {
		return nil, ErrBadK
	}
	if len(query) != x.dim {
		return nil, fmt.Errorf("%w: index dim %d, query dim %d", ErrDimMismatch, x.dim, len(query))
	}
	if err := validMetric(x.metric); err != nil {
		return nil, err
	}
	// Rank centroids by score.
	type cs struct {
		c int
		s float64
	}
	order := make([]cs, len(x.centroids))
	for c, cent := range x.centroids {
		s, err := Similarity(x.metric, query, cent)
		if err != nil {
			return nil, err
		}
		order[c] = cs{c: c, s: s}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].s > order[j].s })
	pq := x.rs.prepare(x.metric, query)
	depth := k
	if x.rs.quantized() {
		depth = x.rs.quant.rerankDepth(k)
	}
	h := make(resultHeap, 0, depth)
	for p := 0; p < x.nprobe && p < len(order); p++ {
		for _, id := range x.lists[order[p].c] {
			row := x.rs.pos[id]
			pushTopK(&h, depth, Result{ID: id, Score: x.rs.scoreRow(x.metric, row, &pq)})
		}
	}
	if !x.rs.quantized() {
		return drainSorted(&h), nil
	}
	cands := drainSorted(&h)
	var start time.Time
	if x.observe != nil {
		start = time.Now()
	}
	out := x.rs.rerank(x.metric, &pq, cands, k)
	observeStage(x.observe, "rerank", start)
	return out, nil
}
