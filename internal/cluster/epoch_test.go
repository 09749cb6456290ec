package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/vecdb"
)

// validRing is a minimal well-formed ring for handshake tests.
func validRing(epoch uint64) Ring {
	return Ring{Epoch: epoch, Shards: [][]string{{"node-a"}, {"node-b"}}}
}

func TestRingValidate(t *testing.T) {
	if err := validRing(1).Validate(); err != nil {
		t.Fatalf("valid ring rejected: %v", err)
	}
	wide := make([]string, maxShardBackends+1)
	for i := range wide {
		wide[i] = strings.Repeat("n", i+1)
	}
	cases := []struct {
		name string
		ring Ring
		want string
	}{
		{"zero epoch", Ring{Epoch: 0, Shards: [][]string{{"a"}}}, "epoch must be positive"},
		{"no shards", Ring{Epoch: 1}, "no shards"},
		{"too many shards", Ring{Epoch: 1, Shards: make([][]string, maxRingShards+1)}, "shards (max"},
		{"empty shard", Ring{Epoch: 1, Shards: [][]string{{}}}, "no backends"},
		{"too many backends", Ring{Epoch: 1, Shards: [][]string{wide}}, "backends (max"},
		{"empty name", Ring{Epoch: 1, Shards: [][]string{{""}}}, "empty backend name"},
		{"oversized name", Ring{Epoch: 1, Shards: [][]string{{strings.Repeat("x", maxBackendNameLen+1)}}}, "exceeds"},
		{"dup across shards", Ring{Epoch: 1, Shards: [][]string{{"a"}, {"a"}}}, "assigned to both shard 0 and shard 1"},
		{"dup within shard", Ring{Epoch: 1, Shards: [][]string{{"a", "a"}}}, "assigned to both shard 0 and shard 0"},
	}
	for _, tc := range cases {
		err := tc.ring.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestRingCodecRoundTrip(t *testing.T) {
	rg := Ring{Epoch: 7, Shards: [][]string{{"http://a:1", "http://b:1"}, {"http://c:1"}}}
	data, err := EncodeRing(rg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRing(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != rg.Epoch || len(got.Shards) != len(rg.Shards) {
		t.Fatalf("round trip diverged: %+v vs %+v", got, rg)
	}
	for si := range rg.Shards {
		for i := range rg.Shards[si] {
			if got.Shards[si][i] != rg.Shards[si][i] {
				t.Fatalf("shard %d backend %d diverged: %q vs %q", si, i, got.Shards[si][i], rg.Shards[si][i])
			}
		}
	}
	if _, err := ParseRing([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := ParseRing(make([]byte, maxRingPayloadSize+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if _, err := EncodeRing(Ring{}); err == nil {
		t.Fatal("encoding an invalid ring succeeded")
	}
}

func TestParseEpochHeader(t *testing.T) {
	if e, err := ParseEpochHeader("42"); err != nil || e != 42 {
		t.Fatalf("ParseEpochHeader(42) = %d, %v", e, err)
	}
	for _, bad := range []string{"", "-1", "1.5", "0x10", " 1", "18446744073709551616", "epoch"} {
		if _, err := ParseEpochHeader(bad); err == nil {
			t.Errorf("ParseEpochHeader(%q) accepted", bad)
		}
	}
}

// TestNodeEpochHandshake walks the wire-level handshake: install,
// monotonic refusal, retirement 409 carrying the new ring, and the
// router-side mapping to StaleEpochError.
func TestNodeEpochHandshake(t *testing.T) {
	db, b := newNode(t, 16, nil)
	ctx := context.Background()
	if err := db.AddDocument(vecdb.Document{ID: 1, Text: corpus[0]}); err != nil {
		t.Fatal(err)
	}

	// A node never handed a ring accepts everything, any header.
	if _, err := b.Stat(withRingEpoch(ctx, 1)); err != nil {
		t.Fatalf("stat before any ring: %v", err)
	}

	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(3), Serving: true}); err != nil {
		t.Fatalf("install: %v", err)
	}

	// Older installs are refused with the held ring; equal accepted.
	err := b.InstallRing(ctx, RingUpdate{Ring: validRing(2), Serving: true})
	var stale *StaleEpochError
	if !errors.As(err, &stale) || stale.Ring.Epoch != 3 {
		t.Fatalf("older install = %v, want StaleEpochError carrying epoch 3", err)
	}
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(3), Serving: true}); err != nil {
		t.Fatalf("equal-epoch install: %v", err)
	}

	// Serving + current (or absent) epoch: requests pass.
	if _, err := b.Stat(withRingEpoch(ctx, 3)); err != nil {
		t.Fatalf("stat at current epoch: %v", err)
	}
	if _, err := b.Stat(ctx); err != nil {
		t.Fatalf("stat without epoch: %v", err)
	}
	// A provably stale sender is bounced with the node's ring.
	if _, err := b.Stat(withRingEpoch(ctx, 2)); !errors.As(err, &stale) || stale.Ring.Epoch != 3 {
		t.Fatalf("stale-epoch stat = %v, want StaleEpochError", err)
	}

	// Retirement: every data call 409s regardless of header.
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(4), Serving: false}); err != nil {
		t.Fatalf("retire: %v", err)
	}
	if _, err := b.SearchVector(withRingEpoch(ctx, 4), make([]float32, 16), 1, vecdb.Filter{}); !errors.As(err, &stale) {
		t.Fatalf("search on retired node = %v, want StaleEpochError", err)
	}
	if err := b.Apply(ctx, []vecdb.Mutation{{Op: vecdb.OpAdd, ID: 9, Text: "x"}}); !errors.As(err, &stale) {
		t.Fatalf("apply on retired node = %v, want StaleEpochError", err)
	}
	if stale.Ring.Epoch != 4 {
		t.Fatalf("retired 409 carries epoch %d, want 4", stale.Ring.Epoch)
	}

	// Re-activation at the same epoch (the migration-target path).
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(4), Serving: true}); err != nil {
		t.Fatalf("re-activate: %v", err)
	}
	if _, err := b.Stat(ctx); err != nil {
		t.Fatalf("stat after re-activation: %v", err)
	}
}

// TestLocalBackendEpochGate: the in-process backend speaks the same
// handshake, so the chaos harness covers what a remote node would do.
func TestLocalBackendEpochGate(t *testing.T) {
	db := newLocalDB(t, 16)
	b, err := NewLocalBackend("local-a", db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := b.Stat(withRingEpoch(ctx, 99)); err != nil {
		t.Fatalf("stat before any ring: %v", err)
	}
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(5), Serving: false}); err != nil {
		t.Fatal(err)
	}
	var stale *StaleEpochError
	if _, err := b.Get(ctx, 1); !errors.As(err, &stale) || stale.Ring.Epoch != 5 {
		t.Fatalf("get on retired local backend = %v, want StaleEpochError epoch 5", err)
	}
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(4), Serving: true}); !errors.As(err, &stale) {
		t.Fatalf("older install = %v, want StaleEpochError", err)
	}
	if err := b.InstallRing(ctx, RingUpdate{Ring: validRing(5), Serving: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat(withRingEpoch(ctx, 5)); err != nil {
		t.Fatalf("stat after re-activation: %v", err)
	}
}

// TestRouterAdoptRing: the self-heal half of the handshake — a 409's
// ring replaces the router's assignment when it is strictly newer and
// the same width, reusing known backends and building fresh ones for
// names it has never seen.
func TestRouterAdoptRing(t *testing.T) {
	r, _ := newLocalRouter(t, 2, 16, passiveHealth)
	if r.Epoch() != 1 {
		t.Fatalf("fresh router epoch = %d, want 1", r.Epoch())
	}

	// Same epoch: nothing to learn.
	if r.adoptRing(Ring{Epoch: 1, Shards: [][]string{{"shard-0"}, {"shard-1"}}}) {
		t.Fatal("adopted a ring with the current epoch")
	}
	// Wrong width: a different deployment's ring, never adopted.
	if r.adoptRing(Ring{Epoch: 9, Shards: [][]string{{"shard-0"}}}) {
		t.Fatal("adopted a ring with a different shard count")
	}
	// Invalid: rejected outright.
	if r.adoptRing(Ring{Epoch: 9}) {
		t.Fatal("adopted an invalid ring")
	}

	// Newer, same width: adopted — shard 1 moves to a node the router
	// has never met, which gets a fresh HTTP backend.
	if !r.adoptRing(Ring{Epoch: 4, Shards: [][]string{{"shard-0"}, {"http://10.9.9.9:9001"}}}) {
		t.Fatal("newer ring not adopted")
	}
	if r.Epoch() != 4 {
		t.Fatalf("epoch after adoption = %d, want 4", r.Epoch())
	}
	rg := r.Ring()
	if rg.Shards[1][0] != "http://10.9.9.9:9001" {
		t.Fatalf("shard 1 backend after adoption = %q", rg.Shards[1][0])
	}
	if st := r.Stats(); st.EpochAdoptions != 1 {
		t.Fatalf("EpochAdoptions = %d, want 1", st.EpochAdoptions)
	}
}

// epochStubStore is the cheapest possible NodeStore, so the fuzz
// target exercises the handshake, not the vector index.
type epochStubStore struct{}

func (epochStubStore) SearchVectorFiltered(vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	return nil, nil
}
func (epochStubStore) CollectionCounts() map[string]int   { return nil }
func (epochStubStore) ApplyAll(ms []vecdb.Mutation) error { return nil }
func (epochStubStore) Get(id int64) (vecdb.Document, error) {
	return vecdb.Document{}, vecdb.ErrNotFound
}
func (epochStubStore) Len() int         { return 0 }
func (epochStubStore) NextID() int64    { return 1 }
func (epochStubStore) Seq() uint64      { return 0 }
func (epochStubStore) Checksum() uint64 { return 0 }
func (epochStubStore) MutationsSince(since uint64, max int) ([]vecdb.SeqMutation, error) {
	return nil, nil
}
func (epochStubStore) ApplyResync(ms []vecdb.SeqMutation) error              { return nil }
func (epochStubStore) SnapshotDocs() (uint64, []vecdb.Document, error)       { return 0, nil, nil }
func (epochStubStore) ApplySnapshot(seq uint64, docs []vecdb.Document) error { return nil }

// FuzzRingEpoch drives the ring codec and the node's epoch endpoints
// with arbitrary payloads and headers: nothing may panic, accepted
// rings must round-trip exactly, and every stale-epoch 409 must carry
// a ring a client could actually adopt.
func FuzzRingEpoch(f *testing.F) {
	f.Add([]byte(`{"epoch":1,"shards":[["http://a:9001"]]}`), "1")
	f.Add([]byte(`{"epoch":2,"shards":[["a"],["b","c"]],"serving":true}`), "0")
	f.Add([]byte(`{"epoch":0,"shards":[[]]}`), "not-a-number")
	f.Add([]byte(`{"epoch":18446744073709551615,"shards":[["x"]]}`), "18446744073709551615")
	f.Add([]byte("{"), "-3")
	f.Fuzz(func(t *testing.T, data []byte, header string) {
		rg, err := ParseRing(data)
		if err == nil {
			enc, err := EncodeRing(rg)
			if err != nil {
				t.Fatalf("parsed ring does not re-encode: %v", err)
			}
			back, err := ParseRing(enc)
			if err != nil {
				t.Fatalf("encoded ring does not re-parse: %v", err)
			}
			if back.Epoch != rg.Epoch || len(back.Shards) != len(rg.Shards) {
				t.Fatalf("codec round trip diverged: %+v vs %+v", back, rg)
			}
		}

		n := NewNodeHandler(epochStubStore{}, nil)

		// Arbitrary install payload: accepted, rejected, or refused as
		// stale — never a panic, never a 5xx.
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest("POST", "/shard/epoch", bytes.NewReader(data)))
		switch rec.Code {
		case 200, 400, 409:
		default:
			t.Fatalf("POST /shard/epoch = %d", rec.Code)
		}

		// Arbitrary epoch header against a data endpoint.
		req := httptest.NewRequest("GET", "/shard/stat", nil)
		req.Header.Set(RingEpochHeader, header)
		rec = httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		switch rec.Code {
		case 200, 400, 409:
		default:
			t.Fatalf("GET /shard/stat with header %q = %d", header, rec.Code)
		}
		if rec.Code == 409 {
			var body struct {
				Ring json.RawMessage `json:"ring"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("409 body not JSON: %v", err)
			}
			if _, err := ParseRing(body.Ring); err != nil {
				t.Fatalf("409 carries an unadoptable ring: %v", err)
			}
		}

		// GET /shard/epoch always answers 200 with the held state.
		rec = httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest("GET", "/shard/epoch", nil))
		if rec.Code != 200 {
			t.Fatalf("GET /shard/epoch = %d", rec.Code)
		}
	})
}
