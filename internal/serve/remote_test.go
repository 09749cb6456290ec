package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// newClusterFixture boots n shard nodes (each a one-shard ShardedDB
// behind the shard protocol) plus a routing Server over them, and a
// twin single-process Server with n in-process shards for
// equivalence checks.
type clusterFixture struct {
	nodes   []*httptest.Server
	remote  *Server
	local   *Server
	router  *cluster.Router
	hcfg    cluster.HealthConfig
	backing []*ShardedDB
}

func newClusterFixture(t *testing.T, n, dim int, hcfg cluster.HealthConfig) *clusterFixture {
	t.Helper()
	f := &clusterFixture{hcfg: hcfg}
	shards := make([]cluster.ShardBackends, n)
	for i := 0; i < n; i++ {
		st, err := NewShardedWithIndex(1, dim, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f.backing = append(f.backing, st)
		ts := httptest.NewServer(cluster.NewNodeHandler(st, nil))
		t.Cleanup(ts.Close)
		f.nodes = append(f.nodes, ts)
		b, err := cluster.NewHTTPBackend(ts.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = cluster.ShardBackends{Primary: b}
	}
	router, err := cluster.NewRouter(shards, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = router
	store, err := NewRemoteStore(router, dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(Config{Store: store, Dim: dim, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.remote = remote
	t.Cleanup(func() { remote.Close() })

	local, err := New(Config{Shards: n, Dim: dim, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.local = local
	t.Cleanup(func() { local.Close() })
	return f
}

var clusterCorpus = []string{
	"The store operates from 9 AM to 5 PM, from Sunday to Saturday.",
	"Employees are entitled to 14 days of paid annual leave per year.",
	"At least three shopkeepers are required to run a shop.",
	"Overtime is paid at one and a half times the hourly rate.",
	"The probation period lasts three months for all new hires.",
	"Annual performance reviews take place every December.",
}

// TestClusterMatchesSingleProcess is the PR's acceptance criterion at
// test scale: the same corpus ingested through a 3-node cluster and
// through 3 in-process shards serves identical merged top-k for the
// same queries.
func TestClusterMatchesSingleProcess(t *testing.T) {
	f := newClusterFixture(t, 3, 64, cluster.HealthConfig{Interval: time.Hour})
	ctx := context.Background()

	if _, err := f.remote.IngestBulk(ctx, clusterCorpus); err != nil {
		t.Fatalf("cluster ingest: %v", err)
	}
	if _, err := f.local.IngestBulk(ctx, clusterCorpus); err != nil {
		t.Fatalf("local ingest: %v", err)
	}
	if rl, ll := f.remote.Store().Len(), f.local.Store().Len(); rl != ll {
		t.Fatalf("doc counts diverge: cluster %d vs local %d", rl, ll)
	}
	// Per-shard counts match too: same IDs, same hash ring.
	rs, ls := f.remote.Store().ShardSizes(), f.local.Store().ShardSizes()
	for i := range rs {
		if rs[i] != ls[i] {
			t.Errorf("shard %d: cluster %d docs vs local %d", i, rs[i], ls[i])
		}
	}

	for _, q := range []string{
		"how many shopkeepers run a shop",
		"what are the working hours",
		"how long is probation",
	} {
		want, err := f.local.Search(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.remote.Search(ctx, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%q: %d hits vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Score != want[i].Score || got[i].Text != want[i].Text {
				t.Errorf("%q hit %d: cluster (%d, %v) vs local (%d, %v)",
					q, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}

	// Point reads and deletes cross the transport with the typed-miss
	// contract intact.
	doc, err := f.remote.GetDocument(ctx, 1)
	if err != nil || doc.Text != clusterCorpus[0] {
		t.Fatalf("get over cluster: %+v, %v", doc, err)
	}
	if err := f.remote.DeleteDocument(ctx, 1); err != nil {
		t.Fatalf("delete over cluster: %v", err)
	}
	if _, err := f.remote.GetDocument(ctx, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("get deleted = %v, want ErrNotFound", err)
	}

	// Stats carry the cluster section with per-shard health.
	snap := f.remote.Stats()
	if !snap.Cluster.Enabled || len(snap.Cluster.Shards) != 3 {
		t.Errorf("cluster stats missing: %+v", snap.Cluster)
	}
	for _, sh := range snap.Cluster.Shards {
		if !sh.Alive {
			t.Errorf("shard %d reported dead in a healthy cluster", sh.Shard)
		}
	}
	if f.local.Stats().Cluster.Enabled {
		t.Error("single-process server reports cluster mode")
	}
}

// TestClusterDegradedAfterNodeDeath: killing one node leaves searches
// answering from the surviving shards, surfaces the ejection in
// stats, and keeps the ID allocator safe for writes to live shards.
func TestClusterDegradedAfterNodeDeath(t *testing.T) {
	hcfg := cluster.HealthConfig{Interval: 5 * time.Millisecond, FailThreshold: 2, RecoverThreshold: 1}
	f := newClusterFixture(t, 3, 64, hcfg)
	ctx := context.Background()

	if _, err := f.remote.IngestBulk(ctx, clusterCorpus); err != nil {
		t.Fatal(err)
	}
	full, err := f.remote.Search(ctx, "working hours", 6)
	if err != nil {
		t.Fatal(err)
	}

	f.nodes[1].Close() // kill shard 1's node

	// The prober ejects it within a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := f.remote.Stats()
		if len(snap.Cluster.Shards) == 3 && !snap.Cluster.Shards[1].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node death never reflected in stats: %+v", snap.Cluster)
		}
		time.Sleep(5 * time.Millisecond)
	}

	hits, err := f.remote.Search(ctx, "working hours", 6)
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	if len(hits) >= len(full) || len(hits) == 0 {
		t.Errorf("degraded search returned %d hits (full corpus %d)", len(hits), len(full))
	}
	for _, h := range hits {
		if f.router.ShardFor(h.ID) == 1 {
			t.Errorf("hit %d belongs to the dead shard", h.ID)
		}
	}
	snap := f.remote.Stats()
	if snap.Cluster.Router.DegradedQueries == 0 {
		t.Errorf("degraded query not counted: %+v", snap.Cluster.Router)
	}
}

// TestClusterShedsWhenAllNodesDown: with every node dead, requests
// shed at admission with ErrUnavailable — no transport timeouts, no
// slot consumption.
func TestClusterShedsWhenAllNodesDown(t *testing.T) {
	hcfg := cluster.HealthConfig{Interval: 5 * time.Millisecond, FailThreshold: 1, RecoverThreshold: 1}
	f := newClusterFixture(t, 2, 32, hcfg)
	ctx := context.Background()
	if _, err := f.remote.IngestBulk(ctx, clusterCorpus[:2]); err != nil {
		t.Fatal(err)
	}
	for _, ts := range f.nodes {
		ts.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.router.Available() == nil {
		if time.Now().After(deadline) {
			t.Fatal("cluster never noticed total node death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	_, err := f.remote.Search(ctx, "anything", 3)
	if !errors.Is(err, cluster.ErrUnavailable) {
		t.Fatalf("search on dead cluster = %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shedding took %v — it waited on the transport instead of the health state", elapsed)
	}
	if f.remote.Stats().Cluster.ShedUnavailable == 0 {
		t.Error("admission shed not counted")
	}
}

// applyCapture is a cluster.Backend that records, per Apply, what the
// write carried down from the caller: request ID, deadline, batch size.
type applyCapture struct {
	cluster.Backend
	mu    sync.Mutex
	calls []appliedWrite
}

type appliedWrite struct {
	requestID string
	deadline  time.Time
}

func (b *applyCapture) Apply(ctx context.Context, ms []vecdb.Mutation) error {
	d, _ := ctx.Deadline()
	b.mu.Lock()
	b.calls = append(b.calls, appliedWrite{telemetry.RequestIDFrom(ctx), d})
	b.mu.Unlock()
	return b.Backend.Apply(ctx, ms)
}

func (b *applyCapture) drain() []appliedWrite {
	b.mu.Lock()
	defer b.mu.Unlock()
	calls := b.calls
	b.calls = nil
	return calls
}

// TestClusterWritesCarryRequestContext: every Server write reaches the
// shards under the caller's context. A single-document Ingest and a
// collection-scoped delete used to run under context.Background() in
// cluster mode (request ID, deadline and trace dropped), and Ingest
// cost one Apply per chunk instead of one per owning shard.
func TestClusterWritesCarryRequestContext(t *testing.T) {
	const n, dim = 2, 32
	captures := make([]*applyCapture, n)
	shards := make([]cluster.ShardBackends, n)
	for i := range shards {
		st, err := NewShardedWithIndex(1, dim, IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := cluster.NewLocalBackend(fmt.Sprintf("local-%d", i), st)
		if err != nil {
			t.Fatal(err)
		}
		captures[i] = &applyCapture{Backend: lb}
		shards[i] = cluster.ShardBackends{Primary: captures[i]}
	}
	router, err := cluster.NewRouter(shards, cluster.HealthConfig{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewRemoteStore(router, dim, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Store: store, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// check asserts the writes since the last check arrived as one Apply
	// per owning shard of ids, each under the caller's request ID and no
	// later than the caller's deadline.
	check := func(op, requestID string, deadline time.Time, ids ...int64) {
		t.Helper()
		owners := map[int]int{}
		for _, id := range ids {
			owners[router.ShardFor(id)]++
		}
		for si, c := range captures {
			calls := c.drain()
			if owners[si] == 0 {
				if len(calls) != 0 {
					t.Errorf("%s: shard %d owns nothing but saw %d applies", op, si, len(calls))
				}
				continue
			}
			if len(calls) != 1 {
				t.Errorf("%s: shard %d saw %d applies for its %d mutations, want 1 grouped apply", op, si, len(calls), owners[si])
			}
			for _, got := range calls {
				if got.requestID != requestID {
					t.Errorf("%s: shard %d saw request ID %q, want %q", op, si, got.requestID, requestID)
				}
				if got.deadline.IsZero() || got.deadline.After(deadline) {
					t.Errorf("%s: shard %d saw deadline %v, want one no later than the caller's %v", op, si, got.deadline, deadline)
				}
			}
		}
	}
	request := func(id string) (context.Context, time.Time) {
		ctx, cancel := context.WithTimeout(telemetry.WithRequestID(context.Background(), id), 2*time.Second)
		t.Cleanup(cancel)
		d, _ := ctx.Deadline()
		return ctx, d
	}

	// Nine sentences chunk (3 per chunk, 1 overlap) into four passages,
	// IDs 1..4, which the ring spreads over both shards.
	doc := strings.Join(clusterCorpus, " ") + " Badges must be worn. Lunch is at noon. Parking is free."
	ctx, deadline := request("req-ingest")
	chunks, err := srv.Ingest(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 3 {
		t.Fatalf("document chunked into %d passages; the test needs several", chunks)
	}
	ids := make([]int64, chunks)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	check("ingest", "req-ingest", deadline, ids...)

	ctx, deadline = request("req-delete")
	if err := srv.DeleteDocumentIn(ctx, vecdb.DefaultCollection, 1); err != nil {
		t.Fatal(err)
	}
	check("scoped delete", "req-delete", deadline, 1)
}
