package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/rag"
	"repro/internal/serve"
	"repro/internal/slm"
	"repro/internal/storage"
	"repro/internal/vecdb"
)

// inproc is a workload's stack rebuilt inside the benchmark process
// from the program's own packages, with a timing decorator at every
// injection point. It mirrors what cmd/ragserver and cmd/shardnode
// assemble from their default flags, minus HTTP in front of ragserver
// and minus the query-embedding LRU (an unexported field only the
// default constructors can set; the search workloads send unique
// queries, so it would never hit).
type inproc struct {
	tr       *tracer
	sv       *serve.Server
	idx      indexCounts
	models   atomic.Int64
	det      *core.Detector
	rt       *countingTransport
	nodes    []*serve.ShardedDB // cluster only: one durable shard per node
	remote   []cluster.Backend  // cluster only: HTTPBackend per node, undecorated
	local    []cluster.Backend  // cluster only: LocalBackend over the same shards
	dataDirs []string           // every shard directory, for byte counts
	closers  []func()
	// calibrateMS is how long the -seed-demo calibration took.
	calibrateMS float64
}

func (ip *inproc) close() {
	for i := len(ip.closers) - 1; i >= 0; i-- {
		ip.closers[i]()
	}
}

// The flag defaults of cmd/ragserver that the workloads run with.
const (
	flagTopK      = 3
	flagThreshold = 3.2
	flagMaxBatch  = 16
	flagMaxWait   = 2 * time.Millisecond
)

func buildInproc(spec stackSpec, dir string) (*inproc, error) {
	ip := &inproc{tr: newTracer()}
	hashed, err := vecdb.NewHashedEmbedder(embedDim)
	if err != nil {
		return nil, err
	}
	embed := tracedEmbedder{hashed, ip.tr}
	mkIndex := func() (vecdb.Index, error) {
		x, err := vecdb.NewFlatIndex(vecdb.Cosine, embedDim)
		return tracedIndex{x, ip.tr, &ip.idx}, err
	}
	pcfg := serve.PersistConfig{Fsync: storage.SyncNever, CheckpointEvery: -time.Second}
	var store ctxStore
	if spec.nodes == 0 {
		data := filepath.Join(dir, "data")
		st, err := serve.OpenSharded(data, 2, embed, mkIndex, pcfg)
		if err != nil {
			return nil, err
		}
		store = st
		ip.dataDirs = []string{data}
	} else {
		ip.rt = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: ip.tr}
		var shards []cluster.ShardBackends
		for i := 0; i < spec.nodes; i++ {
			data := filepath.Join(dir, fmt.Sprintf("node-%d", i))
			st, err := serve.OpenSharded(data, 1, embed, mkIndex, pcfg)
			if err != nil {
				ip.close()
				return nil, err
			}
			srv := httptest.NewServer(cluster.NewNodeHandler(st, nil))
			ip.closers = append(ip.closers, func() { srv.Close(); st.CloseNoCheckpoint() })
			hb, err := cluster.NewHTTPBackend(srv.URL, &http.Client{Transport: ip.rt})
			if err != nil {
				ip.close()
				return nil, err
			}
			lb, err := cluster.NewLocalBackend(fmt.Sprintf("local-%d", i), st)
			if err != nil {
				ip.close()
				return nil, err
			}
			ip.nodes = append(ip.nodes, st)
			ip.remote = append(ip.remote, hb)
			ip.local = append(ip.local, lb)
			ip.dataDirs = append(ip.dataDirs, data)
			shards = append(shards, cluster.ShardBackends{Primary: tracedBackend{hb, ip.tr}})
		}
		router, err := cluster.NewRouter(shards, cluster.HealthConfig{
			Interval:       100 * time.Millisecond,
			ResyncInterval: time.Second,
			Resilience: cluster.ResilienceConfig{
				BreakerThreshold: 5, BreakerCooldown: 2 * time.Second,
				RetryReads: 1, HedgeAfter: 20 * time.Millisecond,
			},
		})
		if err != nil {
			ip.close()
			return nil, err
		}
		rs, err := serve.NewRemoteStore(router, embedDim, 4096)
		if err != nil {
			router.Close()
			ip.close()
			return nil, err
		}
		store = rs
	}
	ip.det, err = core.NewDetector("Proposed", core.Config{
		Models: []slm.Model{
			tracedModel{slm.NewQwen2(), ip.tr, &ip.models},
			tracedModel{slm.NewMiniCPM(), ip.tr, &ip.models},
		},
		Aggregate: core.Harmonic,
		Split:     tracedSplit(ip.tr),
	})
	if err != nil {
		ip.close()
		return nil, err
	}
	ip.sv, err = serve.New(serve.Config{
		Store:     tracedStore{store, ip.tr},
		Detector:  ip.det,
		Generator: tracedGenerator{rag.ExtractiveGenerator{MaxSentences: 2}, ip.tr},
		TopK:      flagTopK, Threshold: flagThreshold,
		MaxBatch: flagMaxBatch, MaxWait: flagMaxWait,
	})
	if err != nil {
		ip.close()
		return nil, err
	}
	if spec.nodes == 0 {
		// A SIGKILLed server takes no final checkpoint; neither does the
		// copy, so both leave the same bytes behind.
		ip.closers = append(ip.closers, store.(*serve.ShardedDB).CloseNoCheckpoint)
	} else {
		ip.closers = append(ip.closers, func() { _ = ip.sv.Close() }) // stops the router's checker; nothing to flush
	}
	for _, a := range spec.frontArgs {
		if a == "-seed-demo" {
			if err := ip.seedDemo(); err != nil {
				ip.close()
				return nil, err
			}
		}
	}
	return ip, nil
}

// seedDemo does what ragserver -seed-demo does at boot: ingest the
// default handbook and calibrate the detector on its responses.
func (ip *inproc) seedDemo() error {
	set, err := dataset.Default()
	if err != nil {
		return err
	}
	for _, c := range set.Contexts() {
		if _, err := ip.sv.Store().Add(c, nil); err != nil {
			return err
		}
	}
	var triples []core.Triple
	for _, it := range set.Items {
		for _, r := range it.Responses {
			triples = append(triples, core.Triple{Question: it.Question, Context: it.Context, Response: r.Text})
		}
	}
	t0 := time.Now()
	err = ip.sv.Calibrate(context.Background(), triples)
	ip.calibrateMS = ms(time.Since(t0))
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exec runs one generated request against the in-process server the
// way the HTTP handler would, decoding the body first (decoding is
// part of what the handler costs, so it stays outside the root span).
// It returns the kind of operation (the root span's name).
func (ip *inproc) exec(q request) (string, error) {
	ctx := context.Background()
	path, rawQuery, _ := strings.Cut(q.path, "?")
	var b struct {
		Query      string            `json:"query"`
		K          int               `json:"k"`
		Collection string            `json:"collection"`
		Filter     map[string]string `json:"filter"`
		Question   string            `json:"question"`
		Context    string            `json:"context"`
		Response   string            `json:"response"`
		Texts      []string          `json:"texts"`
	}
	if path != "/ingest/stream" && len(q.body) > 0 {
		if err := json.Unmarshal(q.body, &b); err != nil {
			return "", err
		}
	}
	var kind string
	var err error
	switch path {
	case "/search":
		kind = spanSearch
		s := ip.tr.begin(kind)
		_, err = ip.sv.SearchFiltered(serve.WithTenant(ctx, b.Collection), b.Query, b.K, vecdb.Filter{Collection: b.Collection, Meta: b.Filter})
		ip.tr.end(s)
	case "/ask":
		kind = spanAsk
		s := ip.tr.begin(kind)
		_, err = ip.sv.AskIn(serve.WithTenant(ctx, b.Collection), b.Collection, b.Question)
		ip.tr.end(s)
	case "/verify":
		kind = spanVerify
		s := ip.tr.begin(kind)
		_, err = ip.sv.Verify(ctx, b.Question, b.Context, b.Response)
		ip.tr.end(s)
	case "/ingest/stream":
		vals, perr := url.ParseQuery(rawQuery)
		if perr != nil {
			return "", perr
		}
		coll := vals.Get("collection")
		kind = spanIngest
		s := ip.tr.begin(kind)
		var st ingest.Stats
		st, err = ip.sv.IngestStreamIn(serve.WithTenant(ctx, coll), coll, bytes.NewReader(q.body), nil)
		ip.tr.end(s)
		if want := bytes.Count(q.body, []byte("\n")); err == nil && int(st.Indexed) != want {
			err = fmt.Errorf("in-process stream indexed %d of %d docs", st.Indexed, want)
		}
	case "/ingest/bulk":
		kind = spanIngest
		_, err = ip.sv.IngestBulk(ctx, b.Texts)
	case "/admin/checkpoint":
		kind = "admin.checkpoint"
		err = ip.checkpoint()
	default:
		err = fmt.Errorf("in-process replay: no route %q", q.path)
	}
	return kind, err
}

// checkpoint snapshots every shard of the in-process stack.
func (ip *inproc) checkpoint() error {
	if len(ip.nodes) == 0 {
		return ip.sv.Checkpoint()
	}
	for _, n := range ip.nodes {
		if err := n.Save(); err != nil {
			return err
		}
	}
	return nil
}

// replayStats is what the in-process replay of a window measured.
type replayStats struct {
	// untraced and traced hold the root durations in ms per kind of
	// operation, for the requests replayed with spans off and on.
	untraced, traced map[string][]float64
	queries          int // traced query operations
	ingestDocs       int // docs in the traced ingest operations
}

// replay runs reqs one at a time, each no earlier than its scheduled
// time, so the stack idles between requests exactly as the real one
// does (on this box a core that just woke runs markedly slower than a
// busy one; an unpaced replay would time a different machine). A fixed
// coin decides per request whether spans are on, so the traced and the
// untraced half see the same mix of operations and the same store and
// cache state; a regular pattern would alias with the workloads' own
// (every fourth query is filtered, every third operation an ingest).
func (ip *inproc) replay(reqs []request) (replayStats, error) {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].due < reqs[order[b]].due })
	st := replayStats{untraced: map[string][]float64{}, traced: map[string][]float64{}}
	coin := rand.New(rand.NewSource(1))
	start := time.Now()
	for n, i := range order {
		q := reqs[i]
		traced := coin.Intn(2) == 1
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		ip.tr.req.Store(int64(n))
		ip.tr.on.Store(traced)
		t0 := time.Now()
		kind, err := ip.exec(q)
		d := ms(time.Since(t0))
		ip.tr.on.Store(false)
		if err != nil {
			return st, fmt.Errorf("in-process %s: %w", q.path, err)
		}
		if traced {
			st.traced[kind] = append(st.traced[kind], d)
			if q.query {
				st.queries++
			}
			if kind == spanIngest {
				st.ingestDocs += bytes.Count(q.body, []byte("\n"))
			}
		} else {
			st.untraced[kind] = append(st.untraced[kind], d)
		}
	}
	return st, nil
}

// dirBytes sums the sizes of the files under root whose path contains
// part.
func dirBytes(roots []string, part string) (int64, error) {
	var sum int64
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.Contains(p, part) {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			sum += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return sum, nil
}

// recoverTimes rebuilds every shard found under roots the way a
// restarting server does — load the checkpoint, then replay the WAL on
// top, all shards in parallel — timing the two phases apart and
// counting the replayed records. It works on a copy: opening a WAL
// truncates a torn tail.
func recoverTimes(roots []string) (loadMS, replayMS float64, records int, err error) {
	var shardDirs []string
	for _, root := range roots {
		m, err := filepath.Glob(filepath.Join(root, "shard-*"))
		if err != nil {
			return 0, 0, 0, err
		}
		shardDirs = append(shardDirs, m...)
	}
	hashed, err := vecdb.NewHashedEmbedder(embedDim)
	if err != nil {
		return 0, 0, 0, err
	}
	dbs := make([]*vecdb.DB, len(shardDirs))
	errs := make([]error, len(shardDirs))
	each := func(fn func(i int) error) error {
		var wg sync.WaitGroup
		for i := range shardDirs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = fn(i)
			}(i)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return nil
	}
	t0 := time.Now()
	err = each(func(i int) error {
		x, err := vecdb.NewFlatIndex(vecdb.Cosine, embedDim)
		if err != nil {
			return err
		}
		db, err := vecdb.LoadFile(filepath.Join(shardDirs[i], "checkpoint.snap"), hashed, x)
		if os.IsNotExist(err) {
			db, err = vecdb.New(hashed, x)
		}
		dbs[i] = db
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	loadMS = ms(time.Since(t0))
	var total atomic.Int64
	t1 := time.Now()
	err = each(func(i int) error {
		wal, err := storage.OpenWAL(filepath.Join(shardDirs[i], "wal"), storage.WALOptions{})
		if err != nil {
			return err
		}
		defer wal.Close()
		var muts []vecdb.Mutation
		if _, err := wal.Replay(func(payload []byte) error {
			_, raw, _, err := storage.DecodeSeqPayload(payload)
			if err != nil {
				return err
			}
			m, err := vecdb.DecodeMutation(raw)
			muts = append(muts, m)
			return err
		}); err != nil {
			return err
		}
		total.Add(int64(len(muts)))
		return dbs[i].ApplyAll(muts)
	})
	return loadMS, ms(time.Since(t1)), int(total.Load()), err
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}

// nullStore is the sink ingest.Run writes to when only parsing and
// chunking are being timed.
type nullStore struct{}

func (nullStore) AddBulk(texts []string) ([]int64, error) { return make([]int64, len(texts)), nil }
func (nullStore) AddBulkDocs(docs []vecdb.Document) ([]int64, error) {
	return make([]int64, len(docs)), nil
}

// parseChunkMS times ingest.Run over body into a null sink: what one
// ingest request costs before the store sees a document.
func parseChunkMS(body []byte) (float64, error) {
	const rounds = 5
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := ingest.Run(context.Background(), ingest.Config{Store: nullStore{}, Collection: "live", Chunker: rag.DefaultChunker()}, bytes.NewReader(body), nil); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(t0)) / rounds, nil
}

// walAppendUS times storage.WAL.AppendBatch on the journal payloads of
// docs, in microseconds per document.
func walAppendUS(dir string, docs []doc) (float64, error) {
	wal, err := storage.OpenWAL(dir, storage.WALOptions{})
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	payloads := make([][]byte, len(docs))
	for i, d := range docs {
		raw, err := vecdb.EncodeMutation(vecdb.Mutation{Op: vecdb.OpAdd, ID: int64(i + 1), Collection: d.Collection, Text: d.Text, Meta: map[string]string{"tag": d.Tag}})
		if err != nil {
			return 0, err
		}
		payloads[i] = storage.EncodeSeqPayload(uint64(i+1), raw)
	}
	t0 := time.Now()
	if err := wal.AppendBatch(payloads); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(docs)), nil
}
