package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// readAllocBudget is the most allocations one SearchVector over three
// in-process shards may make at the server's default resilience.
const readAllocBudget = 70

// TestRouterReadAllocBudgets holds a search through the router over
// three LocalBackend shards, at the server's default resilience
// (breaker 5/2s, one read retry, hedging after 20ms), to
// readAllocBudget allocations. It logs, without a budget, a point read
// and a search with hedging off.
func TestRouterReadAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under -race")
	}
	const dim = 64
	serverDefaults := ResilienceConfig{
		BreakerThreshold: 5,
		BreakerCooldown:  2 * time.Second,
		RetryReads:       1,
		HedgeAfter:       20 * time.Millisecond,
	}
	newRouter := func(res ResilienceConfig) (*Router, []float32, []int64) {
		shards := make([]ShardBackends, 3)
		for i := range shards {
			b, err := NewLocalBackend(fmt.Sprintf("shard-%d", i), newLocalDB(t, dim))
			if err != nil {
				t.Fatal(err)
			}
			shards[i] = ShardBackends{Primary: b}
		}
		r, err := NewRouter(shards, HealthConfig{Interval: time.Hour, FailThreshold: 100, Resilience: res})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		ids := seedRouter(t, r, corpus)
		emb, _ := vecdb.NewHashedEmbedder(dim)
		v, err := emb.Embed("how many shopkeepers are required")
		if err != nil {
			t.Fatal(err)
		}
		return r, v, ids
	}
	ctx := context.Background()

	r, v, ids := newRouter(serverDefaults)
	search := testing.AllocsPerRun(200, func() {
		if _, err := r.SearchVector(ctx, v, 3, vecdb.Filter{}); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(200, func() {
		if _, err := r.Get(ctx, ids[0]); err != nil {
			t.Fatal(err)
		}
	})
	unhedged := serverDefaults
	unhedged.HedgeAfter = 0
	ru, vu, _ := newRouter(unhedged)
	searchUnhedged := testing.AllocsPerRun(200, func() {
		if _, err := ru.SearchVector(ctx, vu, 3, vecdb.Filter{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("SearchVector, 3 shards, server defaults: %.0f allocs (budget %d)", search, readAllocBudget)
	t.Logf("Get, server defaults: %.0f allocs", get)
	t.Logf("SearchVector, 3 shards, hedging off: %.0f allocs", searchUnhedged)
	if search > readAllocBudget {
		t.Errorf("SearchVector made %.0f allocations, budget %d", search, readAllocBudget)
	}
}
