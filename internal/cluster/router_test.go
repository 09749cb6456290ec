package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// passiveHealth is a checker config that effectively disables active
// probing, so tests drive the state machine through live traffic
// only.
var passiveHealth = HealthConfig{Interval: time.Hour, FailThreshold: 1}

// newLocalDB builds one bare shard store.
func newLocalDB(t *testing.T, dim int) *vecdb.DB {
	t.Helper()
	db, err := vecdb.NewDefault(dim)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newLocalRouter builds a router over n in-process shards, returning
// the router and the shard DBs.
func newLocalRouter(t *testing.T, n, dim int, cfg HealthConfig) (*Router, []*vecdb.DB) {
	t.Helper()
	dbs := make([]*vecdb.DB, n)
	shards := make([]ShardBackends, n)
	for i := range dbs {
		dbs[i] = newLocalDB(t, dim)
		b, err := NewLocalBackend(fmt.Sprintf("shard-%d", i), dbs[i])
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = ShardBackends{Primary: b}
	}
	r, err := NewRouter(shards, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, dbs
}

// seedRouter hash-routes texts (IDs 1..len) onto the router's shards,
// returning the assigned IDs.
func seedRouter(t *testing.T, r *Router, texts []string) []int64 {
	t.Helper()
	ctx := context.Background()
	ids := make([]int64, len(texts))
	for i, text := range texts {
		id := int64(i + 1)
		ids[i] = id
		m := vecdb.Mutation{Op: vecdb.OpAdd, ID: id, Text: text}
		if err := r.Apply(ctx, r.ShardFor(id), []vecdb.Mutation{m}); err != nil {
			t.Fatalf("apply doc %d: %v", id, err)
		}
	}
	return ids
}

var corpus = []string{
	"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	"Employees are entitled to 14 days of paid annual leave per year.",
	"At least three shopkeepers are required to run a shop.",
	"Overtime is paid at one and a half times the hourly rate.",
	"The probation period lasts three months for all new hires.",
	"Annual performance reviews take place every December.",
	"Staff discounts apply to all in-store purchases over ten dollars.",
}

// TestRouterMatchesSingleIndex: the acceptance-criterion invariant in
// miniature — a query fanned over hash-routed shards merges to the
// same top-k (IDs, scores, order) as one flat index over the same
// corpus, because per-document cosine scores don't depend on the
// partitioning.
func TestRouterMatchesSingleIndex(t *testing.T) {
	const dim = 64
	r, _ := newLocalRouter(t, 3, dim, passiveHealth)
	seedRouter(t, r, corpus)

	flat := newLocalDB(t, dim)
	for i, text := range corpus {
		if err := flat.AddDocument(vecdb.Document{ID: int64(i + 1), Text: text}); err != nil {
			t.Fatal(err)
		}
	}

	vec, err := flat.Embedder().Embed("how many shopkeepers are required")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 5} {
		want, err := flat.SearchVector(vec, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.SearchVector(context.Background(), vec, k, vecdb.Filter{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d hits, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score || got[i].Text != want[i].Text {
				t.Errorf("k=%d hit %d: got (%d, %.6f), want (%d, %.6f)",
					k, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

// TestRouterKLargerThanCorpus: asking for more hits than the cluster
// holds returns everything, ordered, without error.
func TestRouterKLargerThanCorpus(t *testing.T) {
	r, _ := newLocalRouter(t, 3, 32, passiveHealth)
	seedRouter(t, r, corpus[:2])
	vec, _ := vecdb.NewHashedEmbedder(32)
	v, err := vec.Embed("working hours")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.SearchVector(context.Background(), v, 50, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if hits[0].Score < hits[1].Score {
		t.Errorf("hits out of order: %.4f then %.4f", hits[0].Score, hits[1].Score)
	}
}

// TestRouterEmptyShard: with more shards than documents, some shards
// answer with nothing; the fan-out must treat that as a normal empty
// list, not a failure.
func TestRouterEmptyShard(t *testing.T) {
	r, dbs := newLocalRouter(t, 5, 32, passiveHealth)
	seedRouter(t, r, corpus[:2])
	empty := 0
	for _, db := range dbs {
		if db.Len() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("test setup: expected at least one empty shard")
	}
	vec, _ := vecdb.NewHashedEmbedder(32)
	v, err := vec.Embed("annual leave")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.SearchVector(context.Background(), v, 3, vecdb.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2", len(hits))
	}
	if st := r.Stats(); st.DegradedQueries != 0 {
		t.Errorf("empty shards counted as degradation: %+v", st)
	}
}

// TestMergeTopKTiedScores: identical documents on different shards
// produce identical scores; the merge must order ties by ascending ID
// regardless of which shard answered first.
func TestMergeTopKTiedScores(t *testing.T) {
	mk := func(ids ...int64) []vecdb.Hit {
		hs := make([]vecdb.Hit, len(ids))
		for i, id := range ids {
			hs[i] = vecdb.Hit{Document: vecdb.Document{ID: id}, Score: 0.5}
		}
		return hs
	}
	// Same tied score everywhere, shard lists in "bad" order.
	got := MergeTopK([][]vecdb.Hit{mk(7, 9), mk(2), nil, mk(4, 8)}, 4)
	want := []int64{2, 4, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("got %d hits, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("hit %d: ID %d, want %d (ties must order by ascending ID)", i, got[i].ID, id)
		}
	}
	// And a higher score still wins over every tie.
	lists := [][]vecdb.Hit{mk(7), {{Document: vecdb.Document{ID: 42}, Score: 0.9}}, mk(2)}
	if got := MergeTopK(lists, 2); got[0].ID != 42 || got[1].ID != 2 {
		t.Errorf("merge order wrong: %+v", got)
	}
}

// flakyBackend wraps a Backend and fails every data call while
// broken. Probe fails too, so active checkers see the same view.
type flakyBackend struct {
	Backend
	broken atomic.Bool
	stats  atomic.Int32 // Stat calls
}

// waitFirstProbe waits until the health checker's first probe round,
// which it runs in its own goroutine as the router starts, has reported
// on f: the checker asks a backend for its stats only after reporting
// its probe, and nothing else in these tests asks before f breaks. A
// test that breaks f before then races that probe, which can eject f
// before the test's own calls reach it.
func waitFirstProbe(t *testing.T, f *flakyBackend) {
	t.Helper()
	waitFor(t, "the first probe round", func() bool { return f.stats.Load() > 0 })
}

var errBroken = errors.New("backend broken")

func (f *flakyBackend) SearchVector(ctx context.Context, vec []float32, k int, fl vecdb.Filter) ([]vecdb.Hit, error) {
	if f.broken.Load() {
		return nil, errBroken
	}
	return f.Backend.SearchVector(ctx, vec, k, fl)
}

func (f *flakyBackend) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	if f.broken.Load() {
		return errBroken
	}
	return f.Backend.Apply(ctx, ms)
}

func (f *flakyBackend) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	if f.broken.Load() {
		return vecdb.Document{}, errBroken
	}
	return f.Backend.Get(ctx, id)
}

func (f *flakyBackend) Stat(ctx context.Context) (ShardStat, error) {
	f.stats.Add(1)
	if f.broken.Load() {
		return ShardStat{}, errBroken
	}
	return f.Backend.Stat(ctx)
}

func (f *flakyBackend) Probe(ctx context.Context) error {
	if f.broken.Load() {
		return errBroken
	}
	return f.Backend.Probe(ctx)
}

// TestRouterFailoverToReplica: when the primary errors mid-query, the
// replica serves the read, the failover is counted, and — with
// FailThreshold 1 — the primary is ejected so the next read skips it
// without touching it.
func TestRouterFailoverToReplica(t *testing.T) {
	const dim = 32
	primaryDB, replicaDB := newLocalDB(t, dim), newLocalDB(t, dim)
	pb, _ := NewLocalBackend("primary", primaryDB)
	rb, _ := NewLocalBackend("replica", replicaDB)
	flaky := &flakyBackend{Backend: pb}
	r, err := NewRouter([]ShardBackends{{Primary: flaky, Replicas: []Backend{rb}}}, passiveHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)

	ctx := context.Background()
	// Writes while healthy land on both backends.
	seedRouter(t, r, corpus[:3])
	if primaryDB.Len() != 3 || replicaDB.Len() != 3 {
		t.Fatalf("replicated write counts: primary %d replica %d", primaryDB.Len(), replicaDB.Len())
	}

	// Break the primary only once the start-up probe has passed it:
	// with FailThreshold 1 a probe that saw it broken would eject it
	// before the search, which the replica would then serve at the
	// first attempt, with no failover to count.
	waitFirstProbe(t, flaky)
	flaky.broken.Store(true)
	emb, _ := vecdb.NewHashedEmbedder(dim)
	v, err := emb.Embed("paid leave")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.SearchVector(ctx, v, 2, vecdb.Filter{})
	if err != nil {
		t.Fatalf("failover search: %v", err)
	}
	if len(hits) != 2 {
		t.Fatalf("failover search returned %d hits", len(hits))
	}
	st := r.Stats()
	if st.Failovers == 0 {
		t.Error("failover not counted")
	}
	if st.DegradedQueries != 0 {
		t.Errorf("replica-served query counted as degraded: %+v", st)
	}
	// The primary is now ejected: health reflects it, and the next read
	// is served without consulting the broken backend at all.
	health := r.Health()[0]
	if !health.Alive {
		t.Error("shard with a live replica reported dead")
	}
	var primaryState, replicaState string
	for _, b := range health.Backends {
		switch b.Name {
		case "primary":
			primaryState = b.State
		case "replica":
			replicaState = b.State
		}
	}
	if primaryState != "ejected" || replicaState != "healthy" {
		t.Errorf("states: primary=%s replica=%s", primaryState, replicaState)
	}
	// Reads and writes keep working against the replica alone.
	if _, err := r.Get(ctx, 1); err != nil {
		t.Errorf("get after ejection: %v", err)
	}
	if err := r.Apply(ctx, 0, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: 99, Text: corpus[3]}}); err != nil {
		t.Errorf("write after ejection: %v", err)
	}
	if replicaDB.Len() != 4 {
		t.Errorf("replica missed post-ejection write: %d docs", replicaDB.Len())
	}
}

// TestRouterDegradedSearch: a shard with no replica and a dead
// primary is skipped — the query degrades to surviving shards instead
// of failing or hanging.
func TestRouterDegradedSearch(t *testing.T) {
	const dim = 32
	dbs := make([]*vecdb.DB, 3)
	shards := make([]ShardBackends, 3)
	var flaky *flakyBackend
	for i := range dbs {
		dbs[i] = newLocalDB(t, dim)
		b, _ := NewLocalBackend(fmt.Sprintf("shard-%d", i), dbs[i])
		if i == 0 {
			flaky = &flakyBackend{Backend: b}
			shards[i] = ShardBackends{Primary: flaky}
		} else {
			shards[i] = ShardBackends{Primary: b}
		}
	}
	r, err := NewRouter(shards, passiveHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	ids := seedRouter(t, r, corpus)

	waitFirstProbe(t, flaky)
	flaky.broken.Store(true)
	emb, _ := vecdb.NewHashedEmbedder(dim)
	v, err := emb.Embed("shopkeepers")
	if err != nil {
		t.Fatal(err)
	}
	hits, err := r.SearchVector(context.Background(), v, len(corpus), vecdb.Filter{})
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	// Exactly the docs on shards 1 and 2 come back.
	surviving := 0
	for _, id := range ids {
		if r.ShardFor(id) != 0 {
			surviving++
		}
	}
	if len(hits) != surviving {
		t.Errorf("degraded search returned %d hits, want %d", len(hits), surviving)
	}
	st := r.Stats()
	if st.DegradedQueries == 0 || st.ShardsSkipped == 0 {
		t.Errorf("degradation not counted: %+v", st)
	}
	// Writes routed to the dead shard fail fast once it is ejected.
	var deadID int64
	for id := int64(1000); ; id++ {
		if r.ShardFor(id) == 0 {
			deadID = id
			break
		}
	}
	err = r.Apply(context.Background(), 0, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: deadID, Text: "x"}})
	if !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("write to dead shard: %v, want ErrShardUnavailable", err)
	}
	if err := r.Available(); err != nil {
		t.Errorf("cluster with 2 live shards reported unavailable: %v", err)
	}
}

// TestRouterAllShardsDown: a fully dead cluster reports
// ErrUnavailable from both searches and the availability probe the
// admission gate uses.
func TestRouterAllShardsDown(t *testing.T) {
	const dim = 32
	db := newLocalDB(t, dim)
	b, _ := NewLocalBackend("only", db)
	flaky := &flakyBackend{Backend: b}
	r, err := NewRouter([]ShardBackends{{Primary: flaky}}, passiveHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	seedRouter(t, r, corpus[:1])

	waitFirstProbe(t, flaky)
	flaky.broken.Store(true)
	emb, _ := vecdb.NewHashedEmbedder(dim)
	v, _ := emb.Embed("anything")
	if _, err := r.SearchVector(context.Background(), v, 1, vecdb.Filter{}); !errors.Is(err, ErrUnavailable) {
		t.Errorf("search on dead cluster: %v, want ErrUnavailable", err)
	}
	// The first failure ejected the backend (FailThreshold 1), so the
	// availability probe now reports the outage without any I/O.
	if err := r.Available(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Available() = %v, want ErrUnavailable", err)
	}
}

// TestRouterGetNotFoundAuthoritative: a miss from a healthy backend
// is the answer, not a reason to fail over or eject.
func TestRouterGetNotFoundAuthoritative(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 32, passiveHealth)
	seedRouter(t, r, corpus[:2])
	_, err := r.Get(context.Background(), 12345)
	if !errors.Is(err, vecdb.ErrNotFound) {
		t.Fatalf("get absent: %v, want ErrNotFound", err)
	}
	if err := r.Apply(context.Background(), r.ShardFor(12345), []vecdb.Mutation{{Op: vecdb.OpDelete, ID: 12345}}); !errors.Is(err, vecdb.ErrNotFound) {
		t.Fatalf("delete absent: %v, want ErrNotFound", err)
	}
	for _, sh := range r.Health() {
		for _, b := range sh.Backends {
			if b.State != "healthy" {
				t.Errorf("backend %s penalized for an authoritative miss: %s", b.Name, b.State)
			}
		}
	}
}

// TestRouterMaxNextID: the allocator high-water mark spans all
// shards, and a shard that was never reachable blocks restoration
// rather than risking ID collisions.
func TestRouterMaxNextID(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 32, passiveHealth)
	seedRouter(t, r, corpus)
	next, err := r.MaxNextID(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(corpus) + 1); next != want {
		t.Errorf("MaxNextID = %d, want %d", next, want)
	}

	// A router whose only backend has been dead since boot has no live
	// answer and no cached stat: restoration must fail loudly.
	db := newLocalDB(t, 32)
	b, _ := NewLocalBackend("dead", db)
	flaky := &flakyBackend{Backend: b}
	flaky.broken.Store(true)
	r2, err := NewRouter([]ShardBackends{{Primary: flaky}}, passiveHealth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r2.Close)
	if _, err := r2.MaxNextID(context.Background()); err == nil {
		t.Error("MaxNextID succeeded with an unreachable shard")
	}
}
