package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vecdb"
)

// memStore collects AddBulk batches, optionally sleeping per call to
// simulate a slow index (cold shard, saturated disk, slow WAL fsync).
// It also implements the docs write surface, recording each chunk's
// collection and metadata, so streams carrying meta are accepted.
// onBatch, when set, runs inside each call after the batch is recorded,
// with the call's 1-based number, and may block to hold the call open.
type memStore struct {
	delay   time.Duration
	fail    error
	onBatch func(n int)

	mu      sync.Mutex
	batches [][]string
	docs    []vecdb.Document
	chunks  atomic.Uint64
}

func (m *memStore) AddBulkDocs(docs []vecdb.Document) ([]int64, error) {
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	ids, err := m.AddBulk(texts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.docs = append(m.docs, docs...)
	m.mu.Unlock()
	return ids, nil
}

func (m *memStore) AddBulk(texts []string) ([]int64, error) {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
	if m.fail != nil {
		return nil, m.fail
	}
	m.mu.Lock()
	m.batches = append(m.batches, append([]string(nil), texts...))
	n := len(m.batches)
	m.mu.Unlock()
	if m.onBatch != nil {
		m.onBatch(n)
	}
	ids := make([]int64, len(texts))
	m.chunks.Add(uint64(len(texts)))
	return ids, nil
}

func (m *memStore) texts() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, b := range m.batches {
		out = append(out, b...)
	}
	return out
}

// oneChunk passes each document through as a single chunk, making
// document and chunk counts line up exactly in invariants.
type oneChunk struct{}

func (oneChunk) Chunk(text string) ([]string, error) { return []string{text}, nil }

// splitChunk splits on "|" so one document can fan into several
// chunks.
type splitChunk struct{}

func (splitChunk) Chunk(text string) ([]string, error) {
	return strings.Split(text, "|"), nil
}

func ndjson(lines ...string) io.Reader { return strings.NewReader(strings.Join(lines, "\n") + "\n") }

func TestStreamHappyPath(t *testing.T) {
	store := &memStore{}
	st, err := Run(context.Background(), Config{Store: store, Chunker: splitChunk{}}, ndjson(
		`{"text":"alpha|beta"}`,
		``,
		`"gamma"`, // bare-string form
		`   `,     // whitespace-only lines are skipped
		`{"text":"delta","meta":{"src":"test"}}`,
	), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Accepted != 3 || st.Indexed != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v, want 3 accepted, 3 indexed, 0 failed", st)
	}
	if st.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", st.Chunks)
	}
	got := store.texts()
	want := map[string]bool{"alpha": true, "beta": true, "gamma": true, "delta": true}
	if len(got) != 4 {
		t.Fatalf("store holds %d chunks: %v", len(got), got)
	}
	for _, c := range got {
		if !want[c] {
			t.Fatalf("unexpected chunk %q", c)
		}
	}
	if st.Bytes == 0 {
		t.Fatal("bytes not counted")
	}
}

func TestMalformedLinesFailAlone(t *testing.T) {
	store := &memStore{}
	st, err := Run(context.Background(), Config{Store: store, Chunker: oneChunk{}}, ndjson(
		`{"text":"good one"}`,
		`{not json`,
		`{"text":""}`,  // no text
		`{"other":42}`, // no text field
		`{"text":"good two"}`,
	), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Accepted != 2 || st.Indexed != 2 {
		t.Fatalf("stats = %+v, want 2 accepted + indexed", st)
	}
	if st.Failed != 3 {
		t.Fatalf("failed = %d, want 3", st.Failed)
	}
}

// rejectChunk fails every document whose text contains "bad".
type rejectChunk struct{}

func (rejectChunk) Chunk(text string) ([]string, error) {
	if strings.Contains(text, "bad") {
		return nil, errors.New("rejected")
	}
	return []string{text}, nil
}

// TestChunkerFailuresCountAgainstMaxErrors: a document the chunker
// rejects is an unusable line like any other — excluded from
// Accepted, counted in Failed, and subject to the MaxErrors abort.
func TestChunkerFailuresCountAgainstMaxErrors(t *testing.T) {
	store := &memStore{}
	st, err := Run(context.Background(), Config{Store: store, Chunker: rejectChunk{}}, ndjson(
		`{"text":"good"}`, `{"text":"bad one"}`, `{"text":"bad two"}`,
	), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Accepted != 1 || st.Indexed != 1 || st.Failed != 2 {
		t.Fatalf("stats = %+v, want 1 accepted+indexed, 2 failed", st)
	}

	var lines []string
	for i := 0; i < 10; i++ {
		lines = append(lines, `{"text":"bad doc"}`)
	}
	if _, err := Run(context.Background(), Config{Store: store, Chunker: rejectChunk{}, MaxErrors: 3},
		ndjson(lines...), nil); !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors from chunker failures", err)
	}
}

func TestTooManyErrorsAborts(t *testing.T) {
	store := &memStore{}
	var lines []string
	for i := 0; i < 10; i++ {
		lines = append(lines, `{broken`)
	}
	_, err := Run(context.Background(), Config{Store: store, Chunker: oneChunk{}, MaxErrors: 3}, ndjson(lines...), nil)
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors", err)
	}
}

func TestLineTooLongAborts(t *testing.T) {
	store := &memStore{}
	long := `{"text":"` + strings.Repeat("x", 4096) + `"}`
	_, err := Run(context.Background(), Config{Store: store, Chunker: oneChunk{}, MaxLineBytes: 1024}, ndjson(
		`{"text":"fine"}`, long,
	), nil)
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("err = %v, want ErrLineTooLong", err)
	}
}

func TestStoreErrorAbortsStream(t *testing.T) {
	boom := errors.New("disk on fire")
	store := &memStore{fail: boom}
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf(`{"text":"doc %d"}`, i))
	}
	st, err := Run(context.Background(), Config{Store: store, Chunker: oneChunk{}}, ndjson(lines...), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped store error", err)
	}
	if st.Indexed != 0 {
		t.Fatalf("indexed = %d after store failure", st.Indexed)
	}
}

// trackedReader emits NDJSON lines one per Read and records, at every
// produce, how far production ran ahead of what the store has durably
// indexed — the end-to-end backpressure invariant.
type trackedReader struct {
	store    *memStore
	line     []byte
	total    int
	produced int
	maxAhead int
}

func (r *trackedReader) Read(p []byte) (int, error) {
	if r.produced >= r.total {
		return 0, io.EOF
	}
	if ahead := r.produced - int(r.store.chunks.Load()); ahead > r.maxAhead {
		r.maxAhead = ahead
	}
	r.produced++
	n := copy(p, r.line)
	return n, nil
}

// TestSlowStoreThrottlesProducer is the backpressure acceptance test:
// a store whose every AddBulk stalls (a slow-fsync shard) must slow a
// fast producer down to its own pace, keeping the bytes buffered in
// the pipeline bounded by configuration — and the throttling must be
// visible in the stats.
func TestSlowStoreThrottlesProducer(t *testing.T) {
	const (
		docs       = 400
		maxPending = 8
		workers    = 2
		lineBytes  = 2048
	)
	store := &memStore{delay: 2 * time.Millisecond}
	line := []byte(`{"text":"` + strings.Repeat("y", lineBytes) + `"}` + "\n")
	r := &trackedReader{store: store, line: line, total: docs}

	st, err := Run(context.Background(), Config{
		Store:      store,
		Chunker:    oneChunk{},
		Workers:    workers,
		MaxPending: maxPending,
	}, r, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Indexed != docs {
		t.Fatalf("indexed = %d, want %d", st.Indexed, docs)
	}
	if st.Throttled == 0 {
		t.Fatal("slow store engaged no throttling")
	}
	// How far the producer may legitimately run ahead: the scanner's
	// read-ahead buffer plus every bounded stage of the pipeline — the
	// lines channel (2*workers), one document in each worker's hand
	// waiting for credits, and the credit pool. A credit is held from
	// before the handoff until the store call returns, and the store
	// counts a chunk before that, so everything in the handoff channel,
	// in the assembler's batch and inside AddBulk sits within maxPending.
	scannerLines := 64*1024/len(line) + 1
	bound := scannerLines + 2*workers + workers + maxPending
	if r.maxAhead > bound {
		t.Fatalf("producer ran %d docs ahead of the index (bound %d): backpressure failed", r.maxAhead, bound)
	}
	t.Logf("maxAhead=%d (bound %d), throttled=%d", r.maxAhead, bound, st.Throttled)
}

// blockingReader yields a few lines, then blocks until its context
// dies, mimicking http.Request.Body during a client stall +
// disconnect (the server unblocks Body reads with an error when the
// connection drops).
type blockingReader struct {
	ctx   context.Context
	lines io.Reader
	done  bool
}

func (r *blockingReader) Read(p []byte) (int, error) {
	if !r.done {
		n, err := r.lines.Read(p)
		if err == nil {
			return n, nil
		}
		r.done = true
	}
	<-r.ctx.Done()
	return 0, errors.New("connection reset by peer")
}

func TestClientDisconnectMidStream(t *testing.T) {
	store := &memStore{}
	ctx, cancel := context.WithCancel(context.Background())
	r := &blockingReader{ctx: ctx, lines: ndjson(`{"text":"one"}`, `{"text":"two"}`)}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st, err := Run(ctx, Config{Store: store, Chunker: oneChunk{}}, r, nil)
	if err == nil {
		t.Fatal("Run returned nil error after disconnect")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Run took %v to notice the disconnect", elapsed)
	}
	if st.Accepted != 2 {
		t.Fatalf("accepted = %d, want the 2 pre-disconnect docs", st.Accepted)
	}
}

// pausingReader serves first, calls pause once, then serves rest —
// a client that uploads part of its body and then stalls.
type pausingReader struct {
	first, rest io.Reader
	pause       func()
	paused      bool
}

func (r *pausingReader) Read(p []byte) (int, error) {
	if n, err := r.first.Read(p); err != io.EOF {
		return n, err
	}
	if !r.paused {
		r.paused = true
		r.pause()
	}
	return r.rest.Read(p)
}

func docLines(from, to int) []string {
	var lines []string
	for i := from; i < to; i++ {
		lines = append(lines, fmt.Sprintf(`{"text":"doc %d"}`, i))
	}
	return lines
}

// TestProgressHeartbeat: heartbeats fire while the stream runs and
// report its progress. The stream's runtime comes from the reader,
// which stalls mid-body until two heartbeats have reported its first
// half indexed.
func TestProgressHeartbeat(t *testing.T) {
	store := &memStore{}
	beats := make(chan Stats, 1)
	var total atomic.Uint64
	r := &pausingReader{
		first: ndjson(docLines(0, 50)...),
		rest:  ndjson(docLines(50, 100)...),
		pause: func() {
			timeout := time.After(10 * time.Second)
			for seen := 0; seen < 2; {
				select {
				case p := <-beats:
					if p.Indexed == 50 {
						seen++
					}
				case <-timeout:
					t.Error("no heartbeat reported the first half indexed")
					return
				}
			}
		},
	}
	st, err := Run(context.Background(), Config{
		Store:         store,
		Chunker:       oneChunk{},
		ProgressEvery: 5 * time.Millisecond,
	}, r, func(p Stats) {
		total.Add(1)
		select {
		case beats <- p:
		default: // the reader is not waiting; never block the heartbeat
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total.Load() < 2 {
		t.Fatalf("progress called %d times, want periodic heartbeats", total.Load())
	}
	if st.Indexed != 100 {
		t.Fatalf("indexed = %d", st.Indexed)
	}
}

func TestNilStoreOrChunker(t *testing.T) {
	if _, err := Run(context.Background(), Config{Chunker: oneChunk{}}, ndjson(), nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := Run(context.Background(), Config{Store: &memStore{}}, ndjson(), nil); err == nil {
		t.Fatal("nil chunker accepted")
	}
}

// TestOversizedDocumentFlowsThroughGate: a document with more chunks
// than the whole credit pool must still ingest (in pool-sized pieces)
// instead of deadlocking on credits it can never hold at once.
func TestOversizedDocumentFlowsThroughGate(t *testing.T) {
	store := &memStore{}
	// 10 chunks through a 4-credit pool.
	doc := strings.Join([]string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}, "|")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := Run(ctx, Config{Store: store, Chunker: splitChunk{}, MaxPending: 4},
		ndjson(`{"text":"`+doc+`"}`, `{"text":"small"}`), nil)
	if err != nil {
		t.Fatalf("Run: %v (deadlock would surface as context.DeadlineExceeded)", err)
	}
	if st.Indexed != 2 || st.Chunks != 11 {
		t.Fatalf("stats = %+v, want 2 docs / 11 chunks", st)
	}
	if n := len(store.texts()); n != 11 {
		t.Fatalf("store holds %d chunks, want 11", n)
	}
}

// TestConcurrentMultiChunkDocsNoWedge: many workers acquiring several
// credits each from a small pool must not interleave partial
// acquisitions into a mutual wedge (the pre-fix failure mode: 8
// workers × partial draws exhaust the pool with nobody complete).
func TestConcurrentMultiChunkDocsNoWedge(t *testing.T) {
	store := &memStore{}
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf(`{"text":"p%d|q%d|r%d|s%d"}`, i, i, i, i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := Run(ctx, Config{
		Store: store, Chunker: splitChunk{}, Workers: 8, MaxPending: 8,
	}, ndjson(lines...), nil)
	if err != nil {
		t.Fatalf("Run: %v (a credit wedge would surface as context.DeadlineExceeded)", err)
	}
	if st.Indexed != 200 || st.Chunks != 800 {
		t.Fatalf("stats = %+v, want 200 docs / 800 chunks", st)
	}
}

func TestConcurrentStreams(t *testing.T) {
	// Three streams into one store at once, as the serving layer runs
	// them — race-clean under -race, every chunk stored.
	store := &memStore{}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lines []string
			for i := 0; i < 200; i++ {
				lines = append(lines, fmt.Sprintf(`{"text":"g%d doc %d"}`, g, i))
			}
			if _, err := Run(context.Background(), Config{
				Store: store, Chunker: oneChunk{},
			}, ndjson(lines...), nil); err != nil {
				t.Errorf("stream %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if n := len(store.texts()); n != 600 {
		t.Fatalf("store holds %d chunks, want 600", n)
	}
}

// TestMetaStrictAndStored pins the metadata contract from both sides:
// non-string meta values are malformed lines (counted against
// MaxErrors, not coerced), and accepted metadata reaches the store on
// every chunk of the document, scoped to the stream's collection.
func TestMetaStrictAndStored(t *testing.T) {
	store := &memStore{}
	st, err := Run(context.Background(), Config{Store: store, Chunker: splitChunk{}, Collection: "tenant-a"}, ndjson(
		`{"text":"alpha|beta","meta":{"tag":"red"}}`,
		`{"text":"bad1","meta":{"n":1}}`,
		`{"text":"bad2","meta":{"x":null}}`,
		`{"text":"bad3","meta":{"o":{"nested":"y"}}}`,
		`{"text":"bad4","meta":5}`,
		`{"text":"gamma"}`,
	), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Accepted != 2 || st.Indexed != 2 || st.Failed != 4 {
		t.Fatalf("stats = %+v, want 2 accepted, 2 indexed, 4 failed", st)
	}
	store.mu.Lock()
	docs := append([]vecdb.Document(nil), store.docs...)
	store.mu.Unlock()
	if len(docs) != 3 {
		t.Fatalf("store holds %d chunks: %+v", len(docs), docs)
	}
	for _, d := range docs {
		if d.Collection != "tenant-a" {
			t.Fatalf("chunk %q stored in collection %q, want tenant-a", d.Text, d.Collection)
		}
		switch d.Text {
		case "alpha", "beta":
			if d.Meta["tag"] != "red" {
				t.Fatalf("chunk %q lost its metadata: %+v", d.Text, d.Meta)
			}
		case "gamma":
			if len(d.Meta) != 0 {
				t.Fatalf("chunk gamma gained metadata: %+v", d.Meta)
			}
		default:
			t.Fatalf("unexpected chunk %q", d.Text)
		}
	}
}

// TestCollectionNeedsDocsStore pins the up-front rejection: a
// collection-scoped stream into a store without the docs write surface
// fails before any byte is read.
func TestCollectionNeedsDocsStore(t *testing.T) {
	type textsOnly struct{ Store }
	st := textsOnly{Store: &memStore{}}
	if _, err := Run(context.Background(), Config{Store: st, Chunker: oneChunk{}, Collection: "t"}, ndjson(`"x"`), nil); err == nil {
		t.Fatal("collection-scoped stream accepted by texts-only store")
	}
}

// hookChunk is splitChunk that first calls hook on the one document
// whose text is key.
type hookChunk struct {
	key  string
	hook func()
}

func (c hookChunk) Chunk(text string) ([]string, error) {
	if text == c.key {
		c.hook()
	}
	return splitChunk{}.Chunk(text)
}

// TestBatchTakesWhatIsQueued pins smart batching with no sleeps: each
// store call carries exactly what was queued when the store became
// free. A lone document on an idle stream reaches the store while the
// reader is still blocked (no linger); the store holds that first call
// open until the rest of the stream is queued, and the next call then
// carries all of it; no call exceeds MaxPending chunks or splits a
// document piece.
func TestBatchTakesWhatIsQueued(t *testing.T) {
	rest := []string{"a1|a2", "b1", "c1|c2|c3", "d1|d2", "e1"}
	restChunks := 0
	for _, d := range rest {
		restChunks += len(strings.Split(d, "|"))
	}
	// The lone document's credit plus the rest's fill the pool exactly.
	maxPending := 1 + restChunks
	// The last document is over the pool, so it travels as two pieces.
	var big []string
	for i := 0; i < maxPending+2; i++ {
		big = append(big, fmt.Sprintf("z%d", i))
	}
	last := strings.Join(big, "|")

	wait := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Errorf("timed out waiting for %s", what)
		}
	}
	firstCall, restQueued, secondCall := make(chan struct{}), make(chan struct{}), make(chan struct{})
	store := &memStore{onBatch: func(n int) {
		switch n {
		case 1:
			close(firstCall)
			wait(restQueued, "the rest of the stream to queue")
		case 2:
			close(secondCall)
		}
	}}
	var restLines []string
	for _, d := range rest {
		restLines = append(restLines, fmt.Sprintf(`{"text":%q}`, d))
	}
	restLines = append(restLines, fmt.Sprintf(`{"text":%q}`, last))
	r := &pausingReader{
		first: ndjson(`{"text":"lone"}`),
		rest:  ndjson(restLines...),
		pause: func() { wait(firstCall, "the lone document to reach the store") },
	}
	// One worker hands pieces over in order, so by the time it reaches
	// the last document every earlier piece is queued. It then waits
	// for the second call, keeping the last document out of it.
	chunker := hookChunk{key: last, hook: func() {
		close(restQueued)
		wait(secondCall, "the second store call")
	}}

	st, err := Run(context.Background(), Config{
		Store: store, Chunker: chunker, Workers: 1, MaxPending: maxPending,
	}, r, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var want [][]string
	want = append(want, []string{"lone"})
	var restWant []string
	for _, d := range rest {
		restWant = append(restWant, strings.Split(d, "|")...)
	}
	want = append(want, restWant, big[:maxPending], big[maxPending:])

	store.mu.Lock()
	got := append([][]string(nil), store.batches...)
	store.mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("store calls:\n got %v\nwant %v", got, want)
	}
	for i, b := range got {
		if len(b) > maxPending {
			t.Fatalf("call %d carried %d chunks, over MaxPending %d", i+1, len(b), maxPending)
		}
	}
	if wantDocs := uint64(1 + len(rest) + 1); st.Indexed != wantDocs || st.Chunks != uint64(1+restChunks+len(big)) {
		t.Fatalf("stats = %+v, want %d docs / %d chunks", st, wantDocs, 1+restChunks+len(big))
	}
}

// TestBytesCountsWholeBody: Stats.Bytes is the body's length whatever
// its line endings — CRLF, no final newline, blank and
// whitespace-only lines.
func TestBytesCountsWholeBody(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"lf", "{\"text\":\"a\"}\n\"b\"\n"},
		{"crlf", "{\"text\":\"a\"}\r\n\"b\"\r\n"},
		{"no final newline", "{\"text\":\"a\"}\n\"b\""},
		{"crlf, no final newline", "{\"text\":\"a\"}\r\n\"b\""},
		{"blank and whitespace-only lines", "\n{\"text\":\"a\"}\n\n  \t\n\"b\"\n\n"},
		{"crlf blank lines", "\r\n{\"text\":\"a\"}\r\n \r\n\"b\"\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Run(context.Background(), Config{Store: &memStore{}, Chunker: oneChunk{}},
				strings.NewReader(tc.body), nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Indexed != 2 || st.Failed != 0 {
				t.Fatalf("stats = %+v, want 2 indexed, 0 failed", st)
			}
			if st.Bytes != int64(len(tc.body)) {
				t.Fatalf("bytes = %d, want len(body) = %d", st.Bytes, len(tc.body))
			}
		})
	}
}
