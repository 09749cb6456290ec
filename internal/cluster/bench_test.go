package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// BenchmarkClusterSearch quantifies the transport hop: the same
// 4-shard fan-out + merge once over in-process backends and once over
// HTTP backends (loopback httptest nodes). The delta is pure shard
// protocol cost — JSON encode of a 256-wide query vector, one HTTP
// round-trip per shard (in parallel), JSON decode of per-shard top-k.
func BenchmarkClusterSearch(b *testing.B) {
	const (
		shardsN = 4
		dim     = 256
		docs    = 1024
		topK    = 10
	)
	mkDBs := func(b *testing.B) []*vecdb.DB {
		dbs := make([]*vecdb.DB, shardsN)
		for i := range dbs {
			db, err := vecdb.NewDefault(dim)
			if err != nil {
				b.Fatal(err)
			}
			dbs[i] = db
		}
		for id := int64(1); id <= docs; id++ {
			text := fmt.Sprintf("Synthetic handbook passage number %d covering policy topic %d in detail.", id, id%37)
			if err := dbs[ShardIndex(id, shardsN)].AddDocument(vecdb.Document{ID: id, Text: text}); err != nil {
				b.Fatal(err)
			}
		}
		return dbs
	}
	queryVec := func(b *testing.B, dbs []*vecdb.DB) []float32 {
		v, err := dbs[0].Embedder().Embed("what is the policy on topic seventeen")
		if err != nil {
			b.Fatal(err)
		}
		return v
	}
	run := func(b *testing.B, r *Router, vec []float32) {
		b.ReportAllocs()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hits, err := r.SearchVector(ctx, vec, topK, vecdb.Filter{})
			if err != nil {
				b.Fatal(err)
			}
			if len(hits) != topK {
				b.Fatalf("got %d hits", len(hits))
			}
		}
	}
	// Probing is disabled (hour interval) so the benchmark measures
	// the data path, not the checker.
	hcfg := HealthConfig{Interval: time.Hour}

	b.Run("local", func(b *testing.B) {
		dbs := mkDBs(b)
		shards := make([]ShardBackends, shardsN)
		for i, db := range dbs {
			lb, err := NewLocalBackend(fmt.Sprintf("s%d", i), db)
			if err != nil {
				b.Fatal(err)
			}
			shards[i] = ShardBackends{Primary: lb}
		}
		r, err := NewRouter(shards, hcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		run(b, r, queryVec(b, dbs))
	})

	b.Run("http", func(b *testing.B) {
		dbs := mkDBs(b)
		shards := make([]ShardBackends, shardsN)
		for i, db := range dbs {
			ts := httptest.NewServer(NewNodeHandler(db, nil))
			defer ts.Close()
			hb, err := NewHTTPBackend(ts.URL, nil)
			if err != nil {
				b.Fatal(err)
			}
			shards[i] = ShardBackends{Primary: hb}
		}
		r, err := NewRouter(shards, hcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		run(b, r, queryVec(b, dbs))
	})
}
