// Package ingest is the streaming ingest pipeline: it parses an
// NDJSON document stream incrementally, chunks and indexes the
// documents through a bounded parse → chunk → index pipeline, and
// pushes backpressure all the way to the producer's socket when the
// index (or its WAL fsync) cannot keep up.
//
// Wire format (see docs/ingest.md): one document per line, either a
// JSON object {"text": "...", "meta": {...}} or a bare JSON string.
// Meta values must be JSON strings — a number, null, array, or nested
// object anywhere under "meta" makes the line malformed, because a
// silently coerced or dropped value would be invisible until a
// filtered search misses it. Blank lines are skipped; a malformed
// line fails alone (counted in Stats.Failed) until MaxErrors is
// exceeded.
//
// Backpressure is credit-based: a fixed pool of MaxPending chunk
// credits bounds every chunk buffered or in flight anywhere in the
// pipeline — queued between stages, accumulating in the batch
// assembler, or inside a store AddBulk call (embedding + index write +
// WAL append). When the store slows down (a cold shard, a saturated
// disk, a slow fsync policy), credits stop returning, the chunk
// workers block, the bounded doc channel fills, and the reader stops
// pulling bytes off the socket — TCP flow control slows the producer.
// Memory therefore stays bounded by configuration, never by how fast
// the client can upload. Stats.Throttled counts how often the
// pipeline had to block on credits, making engaged backpressure
// visible in /stats.
//
// Batches size themselves (smart batching, the group-commit pattern):
// whenever the store is free, the assembler writes every chunked
// document already queued as one batch. An idle stream's lone document
// is written at once; under load, documents queue while the previous
// batch is being written and the next batch grows to match. There is
// no timer and no size knob — every queued chunk holds a credit, so a
// batch never exceeds MaxPending chunks.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Doc is one parsed NDJSON line. Meta rides every chunk of the
// document into the store (stores that implement the docs write
// surface; see Store). Meta values must be JSON strings — any other
// type fails the line rather than being silently dropped or coerced.
type Doc struct {
	Text string            `json:"text"`
	Meta map[string]string `json:"meta,omitempty"`
}

// Store is the indexing surface the pipeline writes to — implemented
// by serve.ShardedDB (in-process shards) and serve.RemoteStore
// (cluster routing), so streamed batches reach cluster mode through
// the same interface as every other write.
type Store interface {
	AddBulk(texts []string) ([]int64, error)
}

// ctxStore is the optional context-aware write surface. When the
// store implements it, batches are written under the stream's context
// so the request ID (and any deadline) rides cluster-mode writes onto
// the shard nodes.
type ctxStore interface {
	AddBulkContext(ctx context.Context, texts []string) ([]int64, error)
}

// docsStore / ctxDocsStore are the optional document write surfaces:
// batches carry each chunk's collection and metadata instead of bare
// texts. Both serve stores implement ctxDocsStore (it is serve.Store's
// one write method), so their batches always take it; a texts-only
// Store is still accepted but can only be used for meta-less
// default-collection streams (Run rejects the combination up front
// rather than dropping fields on the floor).
type docsStore interface {
	AddBulkDocs(docs []vecdb.Document) ([]int64, error)
}

type ctxDocsStore interface {
	AddBulkDocsContext(ctx context.Context, docs []vecdb.Document) ([]int64, error)
}

// Chunker splits one document into indexable passages (rag.Chunker
// satisfies this).
type Chunker interface {
	Chunk(text string) ([]string, error)
}

// ErrTooManyErrors aborts a stream whose malformed-line count exceeded
// MaxErrors.
var ErrTooManyErrors = errors.New("ingest: too many malformed lines")

// ErrLineTooLong aborts a stream containing a line over MaxLineBytes —
// the scanner cannot resynchronize past it.
var ErrLineTooLong = errors.New("ingest: line exceeds maximum length")

// Config assembles a pipeline run. Zero values take the documented
// defaults.
type Config struct {
	// Store receives the chunk batches.
	Store Store
	// Collection scopes every document in the stream to one collection
	// (tenant); empty means the default collection. Requires a store
	// implementing the docs write surface when non-empty.
	Collection string
	// Chunker splits documents; required.
	Chunker Chunker
	// Workers is the chunking concurrency (default GOMAXPROCS, capped
	// at 8).
	Workers int
	// MaxPending is the chunk credit pool: the hard bound on chunks
	// buffered or in flight anywhere in the pipeline (default 1024).
	MaxPending int
	// MaxLineBytes bounds one NDJSON line (default 1 MiB).
	MaxLineBytes int
	// MaxErrors is how many malformed lines a stream tolerates before
	// aborting (default 100; negative means unlimited).
	MaxErrors int
	// ProgressEvery is the heartbeat period for the progress callback
	// (default 500ms).
	ProgressEvery time.Duration
	// Telemetry, when non-nil, times the parse+chunk stage
	// (stage="ingest_chunk").
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
	if c.MaxErrors == 0 {
		c.MaxErrors = 100
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 500 * time.Millisecond
	}
	return c
}

// Stats is a point-in-time snapshot of one stream: the payload of the
// progress heartbeat frames and the final result.
type Stats struct {
	// Accepted counts documents parsed and chunked successfully — on a
	// clean completion Accepted == Indexed.
	Accepted uint64 `json:"accepted"`
	// Indexed counts documents whose chunks are all applied to the
	// store (and journaled, on a durable store).
	Indexed uint64 `json:"indexed"`
	// Failed counts unusable lines skipped (malformed JSON, empty
	// text, or a document the chunker rejected).
	Failed uint64 `json:"failed"`
	// Bytes counts stream bytes consumed: every byte of the body,
	// line terminators (LF or CRLF) and blank lines included.
	Bytes int64 `json:"bytes"`
	// Chunks counts passages written to the store.
	Chunks uint64 `json:"chunks"`
	// Throttled counts pipeline blocks on the credit gate — non-zero
	// means backpressure engaged and the producer was slowed.
	Throttled uint64 `json:"throttled"`
}

// counters is the live, atomically-updated form of Stats.
type counters struct {
	accepted  atomic.Uint64
	indexed   atomic.Uint64
	failed    atomic.Uint64
	bytes     atomic.Int64
	chunks    atomic.Uint64
	throttled atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Accepted:  c.accepted.Load(),
		Indexed:   c.indexed.Load(),
		Failed:    c.failed.Load(),
		Bytes:     c.bytes.Load(),
		Chunks:    c.chunks.Load(),
		Throttled: c.throttled.Load(),
	}
}

// parseLine decodes one NDJSON line: an object with a "text" field or
// a bare JSON string. Meta is validated strictly — every value must
// be a JSON string. Decoding straight into map[string]string would
// let null values coerce to "" silently; raw messages make the check
// explicit for every type. Plain lines take parsePlain's one pass;
// every other line, and every error, comes from encoding/json.
func parseLine(line []byte) (Doc, error) {
	if d, ok := parsePlain(line); ok {
		return d, nil
	}
	var d Doc
	if len(line) > 0 && line[0] == '"' {
		if err := json.Unmarshal(line, &d.Text); err != nil {
			return Doc{}, err
		}
	} else {
		var raw struct {
			Text string                     `json:"text"`
			Meta map[string]json.RawMessage `json:"meta"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			return Doc{}, err
		}
		d.Text = raw.Text
		if len(raw.Meta) > 0 {
			d.Meta = make(map[string]string, len(raw.Meta))
			for k, v := range raw.Meta {
				t := bytes.TrimSpace(v)
				if len(t) == 0 || t[0] != '"' {
					return Doc{}, fmt.Errorf("ingest: meta value for %q is not a string", k)
				}
				var s string
				if err := json.Unmarshal(t, &s); err != nil {
					return Doc{}, fmt.Errorf("ingest: meta value for %q: %w", k, err)
				}
				d.Meta[k] = s
			}
		}
	}
	if d.Text == "" {
		return Doc{}, errors.New("ingest: document has no text")
	}
	return d, nil
}

// parsePlain decodes the one line shape streamed corpora use, in one
// pass and without encoding/json: an object whose keys are exactly
// "text" and optionally "meta", each at most once, in either order,
// with a non-empty text and meta an object of strings. Every string
// must be free of escapes and control bytes and be valid UTF-8, so its
// decoded value is its raw bytes, and only JSON whitespace may
// surround the tokens. For such a line the result equals
// encoding/json's by construction; any other line reports ok=false
// and is left to parseLine's encoding/json path, errors included.
func parsePlain(line []byte) (Doc, bool) {
	p := plainScanner{b: line}
	if !p.consume('{') {
		return Doc{}, false
	}
	var text, meta []byte
	sawText, sawMeta := false, false
	for {
		key, ok := p.str()
		if !ok || !p.consume(':') {
			return Doc{}, false
		}
		switch {
		case string(key) == "text" && !sawText:
			if text, ok = p.str(); !ok || len(text) == 0 {
				return Doc{}, false
			}
			sawText = true
		case string(key) == "meta" && !sawMeta:
			if meta, ok = p.meta(nil); !ok {
				return Doc{}, false
			}
			sawMeta = true
		default:
			return Doc{}, false
		}
		if p.consume('}') {
			break
		}
		if !p.consume(',') {
			return Doc{}, false
		}
	}
	p.space()
	if !sawText || p.i != len(p.b) {
		return Doc{}, false
	}
	// Only a line known to be plain pays for its strings: the meta
	// object is read a second time, now into the map.
	d := Doc{Text: string(text)}
	if len(meta) > 0 {
		d.Meta = map[string]string{}
		(&plainScanner{b: meta}).meta(d.Meta)
	}
	return d, true
}

// plainScanner reads the tokens parsePlain accepts from b, starting
// at i. Every method skips leading JSON whitespace and reports false
// on anything outside the plain shape.
type plainScanner struct {
	b []byte
	i int
}

func (p *plainScanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (p *plainScanner) consume(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string that decodes to its raw bytes: no backslash, no
// control byte, valid UTF-8. The result aliases b.
func (p *plainScanner) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// meta reads an object of plain strings, storing each entry in m when
// m is non-nil (a key that repeats keeps its last value, as
// encoding/json's map decoding does). It returns the object's bytes,
// or none for {}, which encoding/json's path also leaves as a nil
// Meta.
func (p *plainScanner) meta(m map[string]string) ([]byte, bool) {
	p.space()
	start := p.i
	if !p.consume('{') {
		return nil, false
	}
	if p.consume('}') {
		return nil, true
	}
	for {
		k, ok := p.str()
		if !ok || !p.consume(':') {
			return nil, false
		}
		v, ok := p.str()
		if !ok {
			return nil, false
		}
		if m != nil {
			m[string(k)] = string(v)
		}
		if p.consume('}') {
			return p.b[start:p.i], true
		}
		if !p.consume(',') {
			return nil, false
		}
	}
}

// credits is the backpressure gate: a counting semaphore over chunks.
// Multi-credit draws are serialized by mu, so two workers can never
// interleave partial acquisitions and wedge the pool with nobody
// holding a complete set — the one in-progress acquirer always
// completes, because releases come from the assembler, which never
// acquires. Callers must never request more than the pool capacity
// in one call (workers split oversized documents first).
type credits struct {
	mu        sync.Mutex
	sem       chan struct{}
	throttled *atomic.Uint64
}

// acquire claims n credits, blocking while the pipeline is full. A
// block is counted once per acquire call, not per credit.
func (g *credits) acquire(ctx context.Context, n int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	counted := false
	for i := 0; i < n; i++ {
		select {
		case g.sem <- struct{}{}:
		default:
			if !counted {
				g.throttled.Add(1)
				counted = true
			}
			select {
			case g.sem <- struct{}{}:
			case <-ctx.Done():
				g.release(i)
				return ctx.Err()
			}
		}
	}
	return nil
}

func (g *credits) release(n int) {
	for i := 0; i < n; i++ {
		<-g.sem
	}
}

// chunkedDoc is one document (or one pool-sized piece of an oversized
// document) after the chunk stage. meta is the source document's
// metadata, inherited by every chunk; docDone marks the piece whose
// indexing completes the document, for the Indexed counter.
type chunkedDoc struct {
	chunks  []string
	meta    map[string]string
	docDone bool
}

// Run streams r through the pipeline: parse → chunk (Workers-wide) →
// batch what is queued → Store.AddBulk. It blocks until the stream is
// fully indexed, the context dies (client disconnect), or the stream
// is aborted by a store or format error, and always returns the stats
// accumulated so far. progress, when non-nil, is called with a
// snapshot every ProgressEvery while the stream runs (from a single
// goroutine; it must not block for long or heartbeats skew).
func Run(ctx context.Context, cfg Config, r io.Reader, progress func(Stats)) (Stats, error) {
	if cfg.Store == nil || cfg.Chunker == nil {
		return Stats{}, errors.New("ingest: nil store or chunker")
	}
	if cfg.Collection != "" {
		if _, ok := cfg.Store.(ctxDocsStore); !ok {
			if _, ok := cfg.Store.(docsStore); !ok {
				return Stats{}, errors.New("ingest: store cannot scope documents to a collection")
			}
		}
	}
	cfg = cfg.withDefaults()

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		cnt  counters
		gate = credits{sem: make(chan struct{}, cfg.MaxPending), throttled: &cnt.throttled}

		lines = make(chan []byte, 2*cfg.Workers)
		// Every queued piece holds at least one credit, so a worker that
		// holds its credits never blocks on this handoff: the credit pool
		// stays the one bound on what is buffered past parsing.
		assembled = make(chan chunkedDoc, cfg.MaxPending)

		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	// Progress heartbeat.
	var heartbeat sync.WaitGroup
	stopBeat := make(chan struct{})
	if progress != nil {
		heartbeat.Add(1)
		go func() {
			defer heartbeat.Done()
			t := time.NewTicker(cfg.ProgressEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					progress(cnt.snapshot())
				case <-stopBeat:
					return
				}
			}
		}()
	}

	// chunkH times one document's parse+chunk; nil (no-op) without a
	// registry.
	chunkH := cfg.Telemetry.Histogram("stage_duration_seconds",
		"Hot-path stage latency in seconds.", nil, telemetry.L("stage", "ingest_chunk"))

	// canDocs reports whether the store can persist per-chunk metadata;
	// without it, a line carrying meta is malformed rather than having
	// its metadata silently dropped.
	_, canCtxDocs := cfg.Store.(ctxDocsStore)
	_, canPlainDocs := cfg.Store.(docsStore)
	canDocs := canCtxDocs || canPlainDocs

	// Stage 2: parse+chunk workers. JSON decoding runs here rather
	// than on the reader goroutine so it parallelizes across cores —
	// the reader stays a thin byte pump. Each worker acquires chunk
	// credits *before* handing its document to the assembler, so the
	// credit pool bounds everything downstream of parsing.
	var chunkers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		chunkers.Add(1)
		go func() {
			defer chunkers.Done()
			// lineFailed records one unusable line (unparsable or
			// unchunkable — both leave it out of Accepted, so a clean
			// completion keeps accepted == indexed) and aborts the
			// stream past the MaxErrors tolerance.
			lineFailed := func(err error) bool {
				n := cnt.failed.Add(1)
				if cfg.MaxErrors >= 0 && n > uint64(cfg.MaxErrors) {
					fail(fmt.Errorf("%w: %d (last: %v)", ErrTooManyErrors, n, err))
					return false
				}
				return true
			}
			for line := range lines {
				chunkStart := time.Now()
				d, err := parseLine(line)
				if err == nil && len(d.Meta) > 0 && !canDocs {
					err = errors.New("ingest: store cannot persist metadata")
				}
				if err != nil {
					if !lineFailed(err) {
						return
					}
					continue
				}
				chunks, err := cfg.Chunker.Chunk(d.Text)
				chunkH.ObserveSince(chunkStart)
				if err == nil && len(chunks) == 0 {
					err = errors.New("ingest: document produced no chunks")
				}
				if err != nil {
					// A chunker rejection is a per-document failure, like a
					// malformed line: the stream continues.
					if !lineFailed(err) {
						return
					}
					continue
				}
				cnt.accepted.Add(1)
				// A document with more chunks than the whole credit pool
				// could never acquire them all at once; split it into
				// pool-sized pieces so it flows through the gate like any
				// other backlog (only the final piece completes the doc).
				for start := 0; start < len(chunks); start += cfg.MaxPending {
					end := start + cfg.MaxPending
					if end > len(chunks) {
						end = len(chunks)
					}
					piece := chunkedDoc{chunks: chunks[start:end], meta: d.Meta, docDone: end == len(chunks)}
					if err := gate.acquire(ctx, len(piece.chunks)); err != nil {
						return // canceled while throttled
					}
					select {
					case assembled <- piece:
					case <-ctx.Done():
						gate.release(len(piece.chunks))
						return
					}
				}
			}
		}()
	}

	// Stage 3: the assembler — one goroutine that blocks for a chunked
	// document, takes every other one already queued, and writes them
	// all as one batch (smart batching). Pieces are never split, so one
	// document's chunks always land in one AddBulk and Indexed counts
	// whole documents; every queued chunk holds a credit, so a batch is
	// at most MaxPending chunks.
	var assembler sync.WaitGroup
	assembler.Add(1)
	go func() {
		defer assembler.Done()
		var (
			batch     []vecdb.Document
			batchDocs uint64
		)
		add := func(cd chunkedDoc) {
			for _, c := range cd.chunks {
				batch = append(batch, vecdb.Document{Collection: cfg.Collection, Text: c, Meta: cd.meta})
			}
			if cd.docDone {
				batchDocs++
			}
		}
		flush := func() {
			n, nd := len(batch), batchDocs
			var err error
			switch st := cfg.Store.(type) {
			case ctxDocsStore:
				_, err = st.AddBulkDocsContext(ctx, batch)
			case docsStore:
				_, err = st.AddBulkDocs(batch)
			default:
				// Texts-only store: reachable only for meta-less
				// default-collection streams (validated up front and per
				// line above).
				texts := make([]string, len(batch))
				for i, d := range batch {
					texts[i] = d.Text
				}
				if cs, ok := cfg.Store.(ctxStore); ok {
					_, err = cs.AddBulkContext(ctx, texts)
				} else {
					_, err = cfg.Store.AddBulk(texts)
				}
			}
			gate.release(n)
			batch, batchDocs = nil, 0
			if err != nil {
				fail(fmt.Errorf("ingest: index batch: %w", err))
				return
			}
			cnt.chunks.Add(uint64(n))
			cnt.indexed.Add(nd)
		}
		for cd := range assembled {
			add(cd)
		queued:
			for {
				select {
				case cd, ok := <-assembled:
					if !ok {
						break queued
					}
					add(cd)
				default:
					break queued
				}
			}
			if ctx.Err() == nil {
				flush()
				continue
			}
			// Canceled: drop the batch unwritten. Its credits still return
			// so blocked workers can observe ctx, and the loop keeps
			// dropping whatever they handed over until assembled closes.
			gate.release(len(batch))
			batch, batchDocs = nil, 0
		}
	}()

	// Stage 1: the reader, on the caller's goroutine — when it blocks
	// (bounded lines channel, which backs up when workers block on
	// credits), the HTTP server stops reading the request body and TCP
	// flow control slows the client.
	sc := bufio.NewScanner(r)
	// The scanner's cap is the larger of the initial buffer and the
	// max, so the initial buffer must not exceed MaxLineBytes.
	initial := 64 * 1024
	if initial > cfg.MaxLineBytes {
		initial = cfg.MaxLineBytes
	}
	sc.Buffer(make([]byte, initial), cfg.MaxLineBytes)
	// Bytes are counted by what the scanner consumes, not by the line it
	// returns: ScanLines strips a CR before the LF, and a final line may
	// end at EOF with no newline at all.
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		cnt.bytes.Add(int64(advance))
		return advance, token, err
	})
	readErr := func() error {
		for sc.Scan() {
			trimmed := bytes.TrimSpace(sc.Bytes())
			if len(trimmed) == 0 {
				continue
			}
			// The scanner reuses its buffer across Scan calls, so the
			// line must be copied before crossing the channel.
			select {
			case lines <- append([]byte(nil), trimmed...):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return fmt.Errorf("%w (max %d bytes)", ErrLineTooLong, cfg.MaxLineBytes)
			}
			// A read error mid-body is the client vanishing; prefer the
			// context's verdict when it fired first.
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("ingest: read stream: %w", err)
		}
		return ctx.Err()
	}()
	if readErr != nil {
		fail(readErr)
	}

	close(lines)
	chunkers.Wait()
	close(assembled)
	assembler.Wait()
	close(stopBeat)
	heartbeat.Wait()

	// No trailing progress call: the returned Stats are the final
	// word, and the HTTP handler writes its own done frame from them —
	// a duplicate counters-only frame would precede it otherwise.
	mu.Lock()
	err := firstErr
	mu.Unlock()
	return cnt.snapshot(), err
}
