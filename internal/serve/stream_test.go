package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ingest"
	"repro/internal/rag"
)

// TestIngestStreamEndToEnd: an NDJSON stream lands in the sharded
// store, the per-stream stats are accurate, and the lifetime totals
// surface in the /stats snapshot.
func TestIngestStreamEndToEnd(t *testing.T) {
	sv, err := New(Config{Shards: 4, Dim: 64, Detector: calibratedDetector(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	var sb strings.Builder
	for i, text := range handbook {
		fmt.Fprintf(&sb, "{\"text\":%q}\n", text)
		if i == 4 {
			sb.WriteString("not json at all\n") // one malformed line mid-stream
		}
	}
	st, err := sv.IngestStream(context.Background(), strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatalf("IngestStream: %v", err)
	}
	if st.Accepted != uint64(len(handbook)) || st.Indexed != uint64(len(handbook)) {
		t.Fatalf("stats = %+v, want %d accepted + indexed", st, len(handbook))
	}
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want the malformed line", st.Failed)
	}
	if sv.Store().Len() == 0 {
		t.Fatal("nothing stored")
	}
	// Streamed documents must be retrievable like any other ingest.
	hits, err := sv.Search(context.Background(), "How many days of annual leave?", 3)
	if err != nil || len(hits) == 0 {
		t.Fatalf("search after stream: %v (%d hits)", err, len(hits))
	}

	snap := sv.Stats()
	is := snap.IngestStream
	if is.Streams != 1 || is.AcceptedDocs != st.Accepted || is.FailedLines != 1 {
		t.Fatalf("snapshot stream stats = %+v", is)
	}
	if is.Chunks == 0 || is.Bytes == 0 {
		t.Fatalf("snapshot stream stats missing chunks/bytes: %+v", is)
	}
	if snap.Requests.Ingests != st.Accepted {
		t.Fatalf("Requests.Ingests = %d, want %d", snap.Requests.Ingests, st.Accepted)
	}
}

// TestIngestStreamMatchesBulk: the streamed path and the bulk path
// must index the same corpus to the same store size — streaming is a
// transport change, not a semantic one.
func TestIngestStreamMatchesBulk(t *testing.T) {
	mk := func() *Server {
		sv, err := New(Config{Shards: 4, Dim: 64, Detector: calibratedDetector(t)})
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	bulkSv, streamSv := mk(), mk()
	defer bulkSv.Close()
	defer streamSv.Close()

	if _, err := bulkSv.IngestBulk(context.Background(), handbook); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, text := range handbook {
		fmt.Fprintf(&sb, "{\"text\":%q}\n", text)
	}
	st, err := streamSv.IngestStream(context.Background(), strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := streamSv.Store().Len(), bulkSv.Store().Len(); got != want {
		t.Fatalf("stream stored %d chunks, bulk stored %d", got, want)
	}
	if int(st.Chunks) != bulkSv.Store().Len() {
		t.Fatalf("stream reported %d chunks, store holds %d", st.Chunks, bulkSv.Store().Len())
	}
}

// TestIngestStreamConcurrentWithQueries: streams and queries share
// the admission gate without deadlock or data races.
func TestIngestStreamConcurrentWithQueries(t *testing.T) {
	sv, err := New(Config{Shards: 4, Dim: 64, Detector: calibratedDetector(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	if _, err := sv.IngestBulk(context.Background(), handbook); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sb strings.Builder
			for i := 0; i < 100; i++ {
				fmt.Fprintf(&sb, "{\"text\":\"stream %d filler document number %d about topic %d\"}\n", g, i, i%7)
			}
			if _, err := sv.IngestStream(context.Background(), strings.NewReader(sb.String()), nil); err != nil {
				t.Errorf("stream %d: %v", g, err)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := sv.Search(context.Background(), "annual leave days", 3); err != nil {
					t.Errorf("search during stream: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := sv.Stats().IngestStream; st.Streams != 2 || st.AcceptedDocs != 200 {
		t.Fatalf("stream totals = %+v", st)
	}
}

// TestIngestStreamShedsWhenOverloaded: a stream respects the same
// admission gate as every other request and is shed before reading a
// byte.
func TestIngestStreamShedsWhenOverloaded(t *testing.T) {
	sv, err := New(Config{Shards: 1, Dim: 64, MaxInFlight: 1, MaxQueue: -1, Detector: calibratedDetector(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()

	// Occupy the only slot.
	release, err := sv.admission.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	var readerTouched bool
	r := readerFunc(func(p []byte) (int, error) {
		readerTouched = true
		return 0, nil
	})
	if _, err := sv.IngestStream(context.Background(), r, nil); err != ErrOverloaded {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if readerTouched {
		t.Fatal("shed stream read from the body")
	}
	if sv.admission.Shed() == 0 {
		t.Fatal("shed not counted in admission stats")
	}
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

var _ ingest.Store = (*ShardedDB)(nil)
var _ ingest.Store = (*RemoteStore)(nil)

// BenchmarkIngestStream loads a search_scan-shaped corpus — 2 000
// tagged single-sentence documents of twelve words and a serial token
// — through /ingest/stream's pipeline into a durable 2-shard store,
// and reports the cost per document. Each iteration opens a fresh
// store, so the WAL and the index start empty every time.
func BenchmarkIngestStream(b *testing.B) {
	const docs = 2000
	words := strings.Fields("shop leave rota staff notice uniform floor manager " +
		"overtime rate probation review holiday shift store policy")
	var body bytes.Buffer
	for i := 0; i < docs; i++ {
		body.WriteString(`{"meta":{"tag":"t`)
		body.WriteString(strconv.Itoa(i % 10))
		body.WriteString(`"},"text":"`)
		for j := 0; j < 12; j++ {
			body.WriteString(words[(i*7+j*j*3+j)%len(words)])
			body.WriteByte(' ')
		}
		fmt.Fprintf(&body, "d%dq.\"}\n", i)
	}
	var before, after runtime.MemStats
	var mallocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := OpenShardedWithIndex(b.TempDir(), 2, 256, IndexConfig{}, PersistConfig{CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		st, err := ingest.Run(context.Background(), ingest.Config{
			Store:   ingestSink{s},
			Chunker: rag.DefaultChunker(),
		}, bytes.NewReader(body.Bytes()), nil)
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if err != nil || st.Indexed != docs {
			b.Fatalf("stream: %+v, %v", st, err)
		}
		s.CloseNoCheckpoint()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*docs), "ns/doc")
	b.ReportMetric(float64(mallocs)/float64(b.N*docs), "allocs/doc")
}
