package serve

import "repro/internal/cluster"

// Snapshot is the point-in-time view of the serving layer exposed by
// GET /stats. All fields are JSON-stable: dashboards and tests key on
// them.
type Snapshot struct {
	// Docs is the total stored document count across shards.
	Docs int `json:"docs"`
	// ShardSizes is the per-shard document count, in shard order — for
	// a cluster store, each shard node's last-observed count, so
	// imbalance stays visible across the transport.
	ShardSizes []int `json:"shard_sizes"`
	// Collections is the per-collection document count merged across
	// shards (cluster mode: across shard nodes). Omitted when the store
	// is empty.
	Collections map[string]int `json:"collections,omitempty"`
	// Tenants is the per-tenant admission ledger — admitted, throttled,
	// and in-flight per collection. Omitted until the per-tenant gate is
	// configured and has seen scoped traffic.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`

	// Requests counts admitted calls by kind.
	Requests RequestStats `json:"requests"`
	// VerdictCache reports the verification result cache.
	VerdictCache CacheStats `json:"verdict_cache"`
	// Admission reports the load-shedding gate.
	Admission AdmissionStats `json:"admission"`
	// IngestStream reports the streaming ingest pipeline (POST
	// /ingest/stream): lifetime totals across every stream.
	IngestStream StreamStats `json:"ingest_stream"`
	// Index echoes the per-shard vector index configuration (kind,
	// quantization, re-rank depth) and its aggregate storage footprint;
	// zero-valued on stores that do not report one (cluster mode, where
	// each node's /stats carries its own).
	Index IndexStats `json:"index"`
	// Persist reports the durable layer (WAL + checkpoints); Enabled is
	// false on a memory-only server.
	Persist PersistStats `json:"persist"`
	// Cluster reports multi-node routing state; Enabled is false when
	// shards are in-process.
	Cluster ClusterStats `json:"cluster"`
	// Stages summarizes the telemetry registry's per-stage latency
	// histograms (stage_duration_seconds) as count + p50/p95/p99 per
	// hot-path stage: embed, shard_fanout, merge, verify_exec, rerank,
	// wal_append, wal_fsync, checkpoint, ingest_chunk.
	// Stages that have observed nothing are omitted; /metrics exposes
	// the full bucket detail.
	Stages map[string]StageStats `json:"stages,omitempty"`
}

// StageStats is one row of Snapshot.Stages: how many times the stage
// ran and its latency quantiles in seconds (estimated from fixed
// histogram buckets by linear interpolation).
type StageStats struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// ClusterStats is the multi-node section of the snapshot: per-shard,
// per-backend health (ejections are visible here) plus the router's
// failover/degradation counters.
type ClusterStats struct {
	Enabled bool `json:"enabled"`
	// Shards carries each shard's health state and last-observed
	// document count.
	Shards []cluster.ShardHealth `json:"shards,omitempty"`
	// Router counts failovers and degraded (shard-losing) queries.
	Router cluster.RouterStats `json:"router"`
	// Resync counts anti-entropy repairs: completed resyncs, mutations
	// shipped to lagging replicas, and snapshot fallbacks taken when a
	// WAL delta was unavailable.
	Resync cluster.ResyncStats `json:"resync"`
	// ShedUnavailable counts requests shed at admission because no
	// shard had a healthy backend.
	ShedUnavailable uint64 `json:"shed_unavailable"`
	// Migrations lists the active shard migration (first, when one is
	// running) plus recently finished ones: phase, shipped mutations,
	// parity lag, outcome. Empty until the first POST /admin/rebalance.
	Migrations []cluster.MigrationStatus `json:"migrations,omitempty"`
}

// RequestStats counts admitted requests by endpoint kind.
type RequestStats struct {
	Asks     uint64 `json:"asks"`
	Verifies uint64 `json:"verifies"`
	Ingests  uint64 `json:"ingests"`
	Searches uint64 `json:"searches"`
	Deletes  uint64 `json:"deletes"`
}

// CacheStats describes one LRU cache.
type CacheStats struct {
	Size    int     `json:"size"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

func cacheStats(size int, hits, misses uint64) CacheStats {
	s := CacheStats{Size: size, Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		s.HitRate = float64(hits) / float64(total)
	}
	return s
}

// StreamStats is the streaming-ingest section of the snapshot,
// accumulated across every POST /ingest/stream since boot.
type StreamStats struct {
	// Streams counts streams admitted.
	Streams uint64 `json:"streams"`
	// AcceptedDocs / IndexedDocs / FailedLines count documents parsed,
	// documents fully indexed, and malformed lines across all streams.
	AcceptedDocs uint64 `json:"accepted_docs"`
	IndexedDocs  uint64 `json:"indexed_docs"`
	FailedLines  uint64 `json:"failed_lines"`
	// Chunks counts passages written; Bytes counts stream bytes read.
	Chunks uint64 `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	// ThrottleEvents counts pipeline blocks on the chunk credit gate —
	// non-zero means backpressure engaged and producers were slowed.
	ThrottleEvents uint64 `json:"throttle_events"`
}

// AdmissionStats describes the load-shedding gate.
type AdmissionStats struct {
	InFlight   int    `json:"in_flight"`
	QueueDepth int    `json:"queue_depth"`
	Shed       uint64 `json:"shed"`
}
