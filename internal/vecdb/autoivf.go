package vecdb

import "fmt"

// autoIVFTrainFactor sets the training threshold for AutoIVFIndex:
// once nlist·factor vectors are buffered, k-means has roughly enough
// samples per cluster to position stable centroids.
const autoIVFTrainFactor = 16

// AutoIVFIndex makes IVFIndex usable for incrementally built stores
// (ragserver ingest, WAL replay): until nlist·16 vectors have arrived
// it serves exact flat scans from a buffer, then trains k-means on the
// buffered vectors and migrates them into a real IVF index in one
// step. The transition is deterministic for a given insertion
// sequence — rows are replayed in dense insertion order — so recovery
// replay rebuilds the identical index.
type AutoIVFIndex struct {
	metric  Metric
	dim     int
	nlist   int
	nprobe  int
	quant   QuantConfig
	flat    *FlatIndex // buffer phase; nil once migrated
	ivf     *IVFIndex  // nil until trained
	observe func(stage string, seconds float64)
}

// NewAutoIVFIndex creates an auto-training IVF index; parameters match
// NewIVFIndexQ.
func NewAutoIVFIndex(metric Metric, dim, nlist, nprobe int, q QuantConfig) (*AutoIVFIndex, error) {
	if nlist <= 0 || nprobe <= 0 || nprobe > nlist {
		return nil, fmt.Errorf("vecdb: need 0 < nprobe(%d) <= nlist(%d)", nprobe, nlist)
	}
	flat, err := NewFlatIndexQ(metric, dim, q)
	if err != nil {
		return nil, err
	}
	return &AutoIVFIndex{
		metric: metric, dim: dim, nlist: nlist, nprobe: nprobe,
		quant: q, flat: flat,
	}, nil
}

// SetStageObserver implements StageObservable.
func (x *AutoIVFIndex) SetStageObserver(fn func(stage string, seconds float64)) {
	x.observe = fn
	if x.flat != nil {
		x.flat.SetStageObserver(fn)
	}
	if x.ivf != nil {
		x.ivf.SetStageObserver(fn)
	}
}

// Trained reports whether the index has migrated to IVF scans.
func (x *AutoIVFIndex) Trained() bool { return x.ivf != nil }

// Memory implements MemoryReporter.
func (x *AutoIVFIndex) Memory() IndexMemory {
	if x.ivf != nil {
		return x.ivf.Memory()
	}
	return x.flat.Memory()
}

// Len implements Index.
func (x *AutoIVFIndex) Len() int {
	if x.ivf != nil {
		return x.ivf.Len()
	}
	return x.flat.Len()
}

// Add implements Index, training and migrating once the buffer reaches
// nlist·16 vectors.
func (x *AutoIVFIndex) Add(id int64, vec []float32) error {
	if x.ivf != nil {
		return x.ivf.Add(id, vec)
	}
	if err := x.flat.Add(id, vec); err != nil {
		return err
	}
	if x.flat.Len() >= x.nlist*autoIVFTrainFactor {
		return x.migrate()
	}
	return nil
}

// migrate trains IVF on the buffered vectors and moves them over in
// insertion order.
func (x *AutoIVFIndex) migrate() error {
	rs := &x.flat.rs
	sample := make([][]float32, rs.len())
	for row := range sample {
		sample[row] = rs.vector(row)
	}
	ivf, err := NewIVFIndexQ(x.metric, x.dim, x.nlist, x.nprobe, x.quant)
	if err != nil {
		return err
	}
	if err := ivf.Train(sample, 0); err != nil {
		return err
	}
	for row, id := range rs.ids {
		if err := ivf.Add(id, sample[row]); err != nil {
			return err
		}
	}
	ivf.SetStageObserver(x.observe)
	x.ivf = ivf
	x.flat = nil
	return nil
}

// Remove implements Index.
func (x *AutoIVFIndex) Remove(id int64) bool {
	if x.ivf != nil {
		return x.ivf.Remove(id)
	}
	return x.flat.Remove(id)
}

// Search implements Index.
func (x *AutoIVFIndex) Search(query []float32, k int) ([]Result, error) {
	if x.ivf != nil {
		return x.ivf.Search(query, k)
	}
	return x.flat.Search(query, k)
}
