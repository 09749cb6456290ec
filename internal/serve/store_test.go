package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// TestStoreContract runs every Store method, in one script, against a
// 2-shard ShardedDB and a RemoteStore over two shard nodes, and
// requires identical results step by step: same IDs, hits, documents,
// counts and error classes. It then requires each ctx-taking method to
// return ctx.Err() on an already-cancelled context without doing work.
// (Close is exercised by the fixture's cleanup.)
func TestStoreContract(t *testing.T) {
	f := newClusterFixture(t, 2, 64, cluster.HealthConfig{Interval: time.Hour})
	stores := []struct {
		name string
		st   Store
	}{{"ShardedDB", f.local.Store()}, {"RemoteStore", f.remote.Store()}}
	ctx := context.Background()

	docs := []vecdb.Document{
		{Text: clusterCorpus[0]},
		{Text: clusterCorpus[1], Collection: "acme", Meta: map[string]string{"tag": "hr"}},
		{Text: clusterCorpus[2], Collection: "acme", Meta: map[string]string{"tag": "ops"}},
		{Text: clusterCorpus[3], Meta: map[string]string{"tag": "hr"}},
		{Text: clusterCorpus[4], Collection: "globex"},
	}
	search := func(f vecdb.Filter) func(Store) (any, error) {
		return func(st Store) (any, error) {
			return st.SearchFilteredContext(ctx, "paid annual leave for employees", 4, f)
		}
	}
	del := func(collection string, id int64) func(Store) (any, error) {
		return func(st Store) (any, error) { return nil, st.DeleteContext(ctx, collection, id) }
	}
	get := func(id int64) func(Store) (any, error) {
		return func(st Store) (any, error) { return st.GetContext(ctx, id) }
	}
	// The query vector is a function of the text alone: the store's
	// embedder gives the raw hashed embedding to the bit, and under two
	// collections and unscoped a text search ranks exactly as a vector
	// search with that embedding, a collection's search returning only
	// its own documents.
	raw, err := vecdb.NewHashedEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	const query = "paid annual leave for employees"
	want, err := raw.Embed(query)
	if err != nil {
		t.Fatal(err)
	}
	searchVector := func(st Store, f vecdb.Filter) ([]vecdb.Hit, error) {
		switch st := st.(type) {
		case *ShardedDB:
			return st.SearchVectorFiltered(want, 4, f)
		case *RemoteStore:
			return st.Router().SearchVector(ctx, want, 4, f)
		}
		return nil, fmt.Errorf("no vector search on %T", st)
	}
	textOnly := func(st Store) (any, error) {
		vec, err := st.Embedder().Embed(query)
		if err != nil {
			return nil, err
		}
		if len(vec) != len(want) {
			return nil, fmt.Errorf("query vector has %d dimensions, want %d", len(vec), len(want))
		}
		for i := range want {
			if math.Float32bits(vec[i]) != math.Float32bits(want[i]) {
				return nil, fmt.Errorf("query vector[%d] = %v, raw embedding %v", i, vec[i], want[i])
			}
		}
		var all [][]vecdb.Hit
		for _, c := range []string{"acme", "globex", ""} {
			f := vecdb.Filter{Collection: c}
			hits, err := st.SearchFilteredContext(ctx, query, 4, f)
			if err != nil {
				return nil, err
			}
			byVec, err := searchVector(st, f)
			if err != nil {
				return nil, err
			}
			if len(hits) == 0 || !reflect.DeepEqual(hits, byVec) {
				return nil, fmt.Errorf("collection %q: text search %+v, raw-vector search %+v", c, hits, byVec)
			}
			for _, h := range hits {
				if c != "" && h.Collection != c {
					return nil, fmt.Errorf("collection %q search returned %+v", c, h)
				}
			}
			all = append(all, hits)
		}
		return all, nil
	}
	steps := []struct {
		name    string
		run     func(Store) (any, error)
		wantErr error
	}{
		{"AddBulkDocsContext", func(st Store) (any, error) { return st.AddBulkDocsContext(ctx, docs) }, nil},
		{"AddBulkDocsContext/empty", func(st Store) (any, error) { return st.AddBulkDocsContext(ctx, nil) }, nil},
		{"Add", func(st Store) (any, error) { return st.Add(clusterCorpus[5], map[string]string{"tag": "hr"}) }, nil},
		{"Len", func(st Store) (any, error) { return st.Len(), nil }, nil},
		{"Shards", func(st Store) (any, error) { return st.Shards(), nil }, nil},
		{"ShardSizes", func(st Store) (any, error) { return st.ShardSizes(), nil }, nil},
		{"CollectionCounts", func(st Store) (any, error) { return st.CollectionCounts(), nil }, nil},
		{"Embedder", func(st Store) (any, error) { return st.Embedder().Embed("annual leave") }, nil},
		{"SearchFilteredContext/unfiltered", search(vecdb.Filter{}), nil},
		{"SearchFilteredContext/collection", search(vecdb.Filter{Collection: "acme"}), nil},
		{"SearchFilteredContext/meta", search(vecdb.Filter{Meta: map[string]string{"tag": "hr"}}), nil},
		{"SearchFilteredContext/both", search(vecdb.Filter{Collection: "acme", Meta: map[string]string{"tag": "ops"}}), nil},
		{"SearchFilteredContext/query vector is the text's", textOnly, nil},
		{"Search", func(st Store) (any, error) { return st.Search("paid annual leave for employees", 4) }, nil},
		{"GetContext", get(2), nil},
		{"GetContext/absent", get(999), ErrNotFound},
		{"DeleteContext/absent", del("", 999), ErrNotFound},
		{"DeleteContext/wrong collection", del("globex", 2), ErrNotFound},
		{"GetContext/survived wrong-collection delete", get(2), nil},
		{"DeleteContext/scoped", del("acme", 2), nil},
		{"GetContext/deleted", get(2), ErrNotFound},
		{"DeleteContext/unscoped", del("", 5), nil},
		{"DeleteContext/default collection", del(vecdb.DefaultCollection, 1), nil},
		{"CollectionCounts/after deletes", func(st Store) (any, error) { return st.CollectionCounts(), nil }, nil},
		{"SearchFilteredContext/after deletes", search(vecdb.Filter{}), nil},
		{"Available", func(st Store) (any, error) { return nil, st.Available() }, nil},
		{"PersistStats", func(st Store) (any, error) { return st.PersistStats(), nil }, nil},
		{"Save", func(st Store) (any, error) { return nil, st.Save() }, ErrNoDataDir},
	}
	for _, step := range steps {
		var first any
		for i, s := range stores {
			got, err := step.run(s.st)
			if !errors.Is(err, step.wantErr) || (step.wantErr == nil && err != nil) {
				t.Fatalf("%s on %s: err = %v, want %v", step.name, s.name, err, step.wantErr)
			}
			if i == 0 {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s diverged:\n %s: %+v\n %s: %+v", step.name, stores[0].name, first, s.name, got)
			}
		}
	}
	// Equality alone would pass two stores that ignore the filter alike.
	hits, err := stores[0].st.SearchFilteredContext(ctx, "paid annual leave", 4, vecdb.Filter{Collection: "acme"})
	if err != nil || len(hits) != 1 || hits[0].Collection != "acme" {
		t.Errorf("collection filter leaked or lost documents: %+v, %v", hits, err)
	}

	// SetTelemetry rebinds the query-path timers: one search, one embed
	// observation in the new registry.
	for _, s := range stores {
		reg := telemetry.NewRegistry()
		s.st.SetTelemetry(reg)
		if _, err := s.st.SearchFilteredContext(ctx, "probation", 1, vecdb.Filter{}); err != nil {
			t.Fatal(err)
		}
		if n := reg.HistogramSnapshots("stage_duration_seconds")["stage=embed"].Count; n != 1 {
			t.Errorf("%s: %d embed observations after SetTelemetry, want 1", s.name, n)
		}
	}

	// A done context stops every ctx-taking method before it does any
	// work: nothing is stored, deleted, or allocated an ID.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for _, s := range stores {
		before := s.st.Len()
		if _, err := s.st.SearchFilteredContext(cancelled, "leave", 1, vecdb.Filter{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: SearchFilteredContext on cancelled ctx = %v", s.name, err)
		}
		if _, err := s.st.GetContext(cancelled, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: GetContext on cancelled ctx = %v", s.name, err)
		}
		if _, err := s.st.AddBulkDocsContext(cancelled, docs); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: AddBulkDocsContext on cancelled ctx = %v", s.name, err)
		}
		if err := s.st.DeleteContext(cancelled, "", 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: DeleteContext on cancelled ctx = %v", s.name, err)
		}
		if after := s.st.Len(); after != before {
			t.Errorf("%s: cancelled calls changed Len %d → %d", s.name, before, after)
		}
		// IDs 1..6 are taken; a cancelled add must not have burned 7.
		if id, err := s.st.Add("next passage", nil); err != nil || id != 7 {
			t.Errorf("%s: add after cancelled calls got ID %d (%v), want 7", s.name, id, err)
		}
	}
}
