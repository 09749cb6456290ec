// Package cluster lifts the serving layer's hash-route/fan-out/merge
// contract over a transport, so vector-database shards can live on
// different nodes. It provides:
//
//   - the shard hash ring (ShardIndex) and top-k merge (MergeTopK)
//     shared with the in-process router in internal/serve, so a
//     multi-node cluster returns bit-identical results to a
//     single-process sharded store over the same corpus;
//   - a Backend interface abstracting one shard's store operations,
//     with LocalBackend wrapping an in-process *vecdb.DB and
//     HTTPBackend speaking the compact JSON-over-HTTP shard protocol
//     served by NewNodeHandler (and by cmd/shardnode);
//   - a Router that fans queries out to every shard in parallel,
//     merges per-shard top-k, and fails over to replica backends when
//     a primary is unhealthy;
//   - an active health Checker (periodic probe, consecutive-failure
//     ejection, half-open recovery) whose per-shard state both steers
//     the router away from dead backends and feeds the serving
//     layer's admission control, so traffic against a dead cluster is
//     shed early instead of timing out; and
//   - an anti-entropy resync manager (resync.go) that detects
//     backends lagging their shard peers by mutation sequence number
//     (or silently diverged by content checksum), streams them the
//     journaled mutations they missed — full snapshot when the WAL
//     has been truncated past the gap — and only then releases them
//     back into the read path;
//   - versioned ring epochs (epoch.go): the shard assignment carries
//     a monotonic epoch on every RPC (X-Ring-Epoch), retired or
//     ahead-of-the-caller nodes answer 409 with the newer ring, and
//     the router self-heals by adopting it; and
//   - an online migration orchestrator (migrate.go) that moves one
//     shard onto a fresh backend with zero read downtime — snapshot
//     seed, delta catch-up, a cutover that drains to exact
//     seq+checksum parity under one write barrier and flips the ring
//     to a new epoch, and source retirement — aborting with the old
//     assignment fully intact on any pre-flip failure.
//
// See docs/cluster.md for the wire protocol, the health state
// machine, and a three-node quickstart, and docs/rebalancing.md for
// shard moves and the epoch handshake.
package cluster

import (
	"sort"

	"repro/internal/vecdb"
)

// splitmix64 is the integer finalizer used to hash document IDs onto
// shards; sequential IDs land on uncorrelated shards. It is the same
// function the in-process router has always used, so a corpus moved
// from a single sharded store onto a cluster keeps its routing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardIndex maps a document ID onto one of n shards.
func ShardIndex(id int64, n int) int {
	return int(splitmix64(uint64(id)) % uint64(n))
}

// MergeTopK merges per-shard result lists into a global top-k, best
// first, with the same deterministic (score desc, ID asc) order a
// single index returns — ties on score always resolve by ID, so the
// merge is stable regardless of which shard answered first.
func MergeTopK(lists [][]vecdb.Hit, k int) []vecdb.Hit {
	var merged []vecdb.Hit
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].ID < merged[j].ID
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}
