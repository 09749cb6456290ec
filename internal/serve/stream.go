package serve

import (
	"context"
	"io"
	"sync/atomic"

	"repro/internal/ingest"
)

// IngestStream feeds an NDJSON document stream (see docs/ingest.md)
// through the bounded ingest pipeline into the store. The whole
// stream costs one admission slot — like IngestBulk, a stream
// competes with queries as one request — and is shed with
// ErrOverloaded (HTTP 429) before any byte is read when the gate is
// full, or with the cluster's availability error when no shard is
// reachable. Once admitted, overload no longer sheds: the pipeline's
// credit gate slows the producer instead (slow-read backpressure), so
// a stream that was accepted always runs to completion or to an
// abort.
//
// Unlike the other endpoints a stream gets no RequestTimeout: its
// natural deadline is the client connection (ctx). progress, when
// non-nil, receives periodic Stats snapshots for heartbeat frames.
//
// Streamed batches are written through the Store interface, so in
// cluster mode they hash-route over the shard nodes with the same
// replica fan-out and per-node failure accounting as every other
// write (see docs/cluster.md).
func (s *Server) IngestStream(ctx context.Context, r io.Reader, progress func(ingest.Stats)) (ingest.Stats, error) {
	return s.IngestStreamIn(ctx, "", r, progress)
}

// IngestStreamIn is IngestStream scoped to one collection: every
// document on the stream lands under that collection (with its meta),
// so two tenants can stream concurrently and filtered search keeps
// them fully separate. Empty collection means the default collection.
func (s *Server) IngestStreamIn(ctx context.Context, collection string, r io.Reader, progress func(ingest.Stats)) (ingest.Stats, error) {
	if err := s.store.Available(); err != nil {
		s.unavailableShed.Inc()
		return ingest.Stats{}, err
	}
	release, err := s.admission.Acquire(ctx)
	if err != nil {
		return ingest.Stats{}, err
	}
	defer release()
	s.stream.streams.Add(1)
	st, runErr := ingest.Run(ctx, ingest.Config{
		Store:      ingestSink{s.store},
		Collection: collection,
		Chunker:    s.cfg.Chunker,
		Workers:    s.cfg.StreamWorkers,
		MaxPending: s.cfg.StreamMaxPending,
		MaxErrors:  s.cfg.StreamMaxErrors,
		Telemetry:  s.cfg.Telemetry,
	}, r, progress)
	s.stream.accumulate(st)
	s.ingests.Add(st.Accepted)
	return st, runErr
}

// ingestSink types a Store as ingest.Config.Store. The pipeline writes
// every batch through the sink's AddBulkDocsContext (promoted from
// Store: ingest prefers it whenever the sink has one), under the
// stream's context; the texts-only AddBulk is what ingest.Store's
// frozen signature asks of any sink.
type ingestSink struct{ Store }

func (s ingestSink) AddBulk(texts []string) ([]int64, error) {
	return s.AddBulkDocsContext(context.Background(), textDocs(texts))
}

// streamCounters accumulates per-stream results into server-lifetime
// totals for /stats.
type streamCounters struct {
	streams     atomic.Uint64
	accepted    atomic.Uint64
	indexed     atomic.Uint64
	failedLines atomic.Uint64
	chunks      atomic.Uint64
	throttled   atomic.Uint64
	bytes       atomic.Int64
}

func (c *streamCounters) accumulate(st ingest.Stats) {
	c.accepted.Add(st.Accepted)
	c.indexed.Add(st.Indexed)
	c.failedLines.Add(st.Failed)
	c.chunks.Add(st.Chunks)
	c.throttled.Add(st.Throttled)
	c.bytes.Add(st.Bytes)
}

func (c *streamCounters) stats() StreamStats {
	return StreamStats{
		Streams:        c.streams.Load(),
		AcceptedDocs:   c.accepted.Load(),
		IndexedDocs:    c.indexed.Load(),
		FailedLines:    c.failedLines.Load(),
		Chunks:         c.chunks.Load(),
		Bytes:          c.bytes.Load(),
		ThrottleEvents: c.throttled.Load(),
	}
}
