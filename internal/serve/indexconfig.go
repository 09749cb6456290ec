package serve

import (
	"fmt"

	"repro/internal/vecdb"
)

// IndexConfig selects and tunes the per-shard vector index — the
// serving-layer mirror of the -index/-quantize/-rerank-k/-nprobe/
// -ef-search flags on cmd/ragserver and cmd/shardnode. The zero value
// is the historical default: exact flat cosine scans.
type IndexConfig struct {
	// Kind is the index type: "flat" (exact scan, the default), "ivf"
	// (inverted file; buffers as flat until enough vectors arrive to
	// train k-means, see vecdb.AutoIVFIndex), or "hnsw" (graph).
	Kind string `json:"kind"`
	// Quantize is the stored-vector representation the scan reads:
	// "none" (float32, the default) or "int8" (scalar-quantized codes
	// with exact float32 re-rank).
	Quantize string `json:"quantize"`
	// RerankK is how many quantized-scan candidates are re-scored
	// exactly per query; 0 means 4·k. Ignored under Quantize "none".
	RerankK int `json:"rerank_k"`
	// NList / NProbe are the IVF cluster count and probe width
	// (defaults 64 / 8). Ignored unless Kind is "ivf".
	NList  int `json:"nlist,omitempty"`
	NProbe int `json:"nprobe,omitempty"`
	// M / EfConstruction / EfSearch are the HNSW link budget and beam
	// widths (defaults 16 / 100 / 64). Ignored unless Kind is "hnsw".
	M              int `json:"m,omitempty"`
	EfConstruction int `json:"ef_construction,omitempty"`
	EfSearch       int `json:"ef_search,omitempty"`
}

func (c IndexConfig) withDefaults() IndexConfig {
	if c.Kind == "" {
		c.Kind = "flat"
	}
	if c.Quantize == "" {
		c.Quantize = "none"
	}
	if c.NList <= 0 {
		c.NList = 64
	}
	if c.NProbe <= 0 {
		c.NProbe = 8
	}
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 100
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// Validate rejects unknown kinds and out-of-range parameters with
// flag-oriented messages — both binaries call it at startup so a typo
// fails boot instead of silently serving the default index.
func (c IndexConfig) Validate() error {
	c = c.withDefaults()
	switch c.Kind {
	case "flat", "ivf", "hnsw":
	default:
		return fmt.Errorf("serve: unknown index kind %q (want flat, ivf or hnsw)", c.Kind)
	}
	if _, err := vecdb.ParseQuantKind(c.Quantize); err != nil {
		return err
	}
	if c.RerankK < 0 {
		return fmt.Errorf("serve: rerank-k must be >= 0, got %d", c.RerankK)
	}
	if c.Kind == "ivf" && c.NProbe > c.NList {
		return fmt.Errorf("serve: need nprobe(%d) <= nlist(%d)", c.NProbe, c.NList)
	}
	if c.Kind == "hnsw" {
		if c.M < 2 {
			return fmt.Errorf("serve: HNSW m must be >= 2, got %d", c.M)
		}
		if c.EfConstruction < c.M {
			return fmt.Errorf("serve: need ef-construction(%d) >= m(%d)", c.EfConstruction, c.M)
		}
	}
	return nil
}

// quant resolves the vecdb quantization config. Callers have
// validated.
func (c IndexConfig) quant() vecdb.QuantConfig {
	kind, _ := vecdb.ParseQuantKind(c.Quantize)
	return vecdb.QuantConfig{Kind: kind, RerankK: c.RerankK}
}

// factory returns the per-shard index constructor for embedding width
// dim. IVF is served through vecdb.AutoIVFIndex so incrementally built
// stores (ingest, WAL replay) work without an explicit training call.
func (c IndexConfig) factory(dim int) func() (vecdb.Index, error) {
	c = c.withDefaults()
	q := c.quant()
	switch c.Kind {
	case "ivf":
		return func() (vecdb.Index, error) {
			return vecdb.NewAutoIVFIndex(vecdb.Cosine, dim, c.NList, c.NProbe, q)
		}
	case "hnsw":
		return func() (vecdb.Index, error) {
			return vecdb.NewHNSWIndexQ(vecdb.Cosine, dim, c.M, c.EfConstruction, c.EfSearch, q)
		}
	default:
		return func() (vecdb.Index, error) {
			return vecdb.NewFlatIndexQ(vecdb.Cosine, dim, q)
		}
	}
}

// NewShardedWithIndex builds n shards over a hashed embedder, each
// shard's index built from ic; the zero IndexConfig is exact flat
// cosine, the zero-configuration serving store.
func NewShardedWithIndex(n, dim int, ic IndexConfig) (*ShardedDB, error) {
	ic = ic.withDefaults()
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	embed, err := vecdb.NewHashedEmbedder(dim)
	if err != nil {
		return nil, err
	}
	s, err := NewSharded(n, embed, ic.factory(dim))
	if err != nil {
		return nil, err
	}
	s.indexCfg = ic
	return s, nil
}

// OpenShardedWithIndex is OpenSharded over a hashed embedder, each
// shard's index built from ic. Recovery replays through the same index
// factory, so a quantized index is rebuilt deterministically from the
// journaled documents (codes are derived state, never persisted).
func OpenShardedWithIndex(dir string, n, dim int, ic IndexConfig, pcfg PersistConfig) (*ShardedDB, error) {
	ic = ic.withDefaults()
	if err := ic.Validate(); err != nil {
		return nil, err
	}
	embed, err := vecdb.NewHashedEmbedder(dim)
	if err != nil {
		return nil, err
	}
	s, err := OpenSharded(dir, n, embed, ic.factory(dim), pcfg)
	if err != nil {
		return nil, err
	}
	s.indexCfg = ic
	return s, nil
}

// IndexStats is the index section of the /stats snapshot: the
// configuration in force plus the aggregate storage footprint across
// shards.
type IndexStats struct {
	// Config echoes the index configuration the store was built with.
	Config IndexConfig `json:"config"`
	// Memory aggregates every shard index's storage footprint; all-zero
	// when the indexes do not account memory (custom factories).
	Memory vecdb.IndexMemory `json:"memory"`
}

// IndexStats reports the store's index configuration and aggregate
// footprint. Stores built through NewSharded with a custom factory
// report the default config (the factory is opaque) with whatever
// memory accounting the indexes provide.
func (s *ShardedDB) IndexStats() IndexStats {
	st := IndexStats{Config: s.indexCfg.withDefaults()}
	for _, sh := range s.shards {
		if m, ok := sh.IndexMemory(); ok {
			st.Memory.Vectors += m.Vectors
			st.Memory.FloatBytes += m.FloatBytes
			st.Memory.CodeBytes += m.CodeBytes
			st.Memory.ParamBytes += m.ParamBytes
			st.Memory.ScanBytes += m.ScanBytes
			st.Memory.GraphBytes += m.GraphBytes
		}
	}
	return st
}
