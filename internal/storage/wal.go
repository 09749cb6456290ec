// Package storage is the durable substrate shared by every layer that
// persists index state: a segment-based write-ahead log with CRC-framed
// records and torn-tail truncation on open, and a versioned snapshot
// codec with atomic replace semantics. vecdb checkpoints are built on
// the snapshot codec; internal/serve journals per-shard mutations
// through the WAL and replays them on top of the latest checkpoint at
// startup. See docs/persistence.md for the on-disk format and the
// recovery sequence.
package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS page cache; data survives
	// process crashes but not machine crashes until the next explicit
	// Sync (rotation, truncation and Close always sync).
	SyncNever SyncPolicy = iota
	// SyncAlways fsyncs after every append (and once per batch for
	// AppendBatch) — the strongest and slowest policy.
	SyncAlways
	// SyncInterval relies on the owner calling Sync on a timer; appends
	// themselves do not fsync.
	SyncInterval
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy maps flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "never", "":
		return SyncNever, nil
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	}
	return SyncNever, fmt.Errorf("storage: unknown sync policy %q (want never|always|interval)", s)
}

// WALOptions tune a log. Zero values take the documented defaults.
type WALOptions struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 4 MiB). Rotation bounds the cost of the final-segment
	// tail scan on recovery.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncNever).
	Sync SyncPolicy
	// Telemetry, when non-nil, receives wal_append / wal_fsync stage
	// timings. Every WAL handed the same registry shares the same
	// series, so per-shard logs aggregate naturally.
	Telemetry *telemetry.Registry
}

const defaultSegmentBytes = 4 << 20

// Record framing: [4B little-endian payload length][4B CRC-32
// (IEEE) of payload][payload]. A record whose header or payload runs
// past the end of the final segment, or whose CRC does not match, is a
// torn tail: Open truncates the segment to the last whole record.
const recordHeader = 8

// walWriteCap bounds the buffer AppendBatch frames a batch into before
// its one Write; past it, records are written in several.
const walWriteCap = 1 << 20

// maxRecordBytes rejects absurd lengths so a corrupt header cannot
// drive a multi-gigabyte allocation during the tail scan.
const maxRecordBytes = 64 << 20

// ErrCorrupt reports framing damage before the final segment's tail —
// data that a truncation cannot repair without silently dropping
// records that were once durable.
var ErrCorrupt = errors.New("storage: wal corrupt before tail")

// errTorn tags framing damage (short record, CRC mismatch, implausible
// length) as opposed to an I/O error from the device. Only torn tails
// may be truncated away; truncating on a transient read error would
// destroy records that are actually intact.
var errTorn = errors.New("torn record")

// WAL is an append-only, segmented, CRC-framed log. All methods are
// safe for concurrent use; appends are serialized internally.
type WAL struct {
	mu      sync.Mutex
	dir     string
	opts    WALOptions
	active  *os.File
	actSize int64
	actSeq  uint64
	size    int64 // bytes across all segments
	records uint64
	closed  bool

	// Stage timing histograms; nil (no-op) when no registry was given.
	appendH *telemetry.Histogram
	fsyncH  *telemetry.Histogram
}

// segmentName formats the file for sequence number seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016d.seg", seq) }

// segmentSeq parses a segment filename, reporting ok=false for foreign
// files.
func segmentSeq(name string) (uint64, bool) {
	var seq uint64
	if n, err := fmt.Sscanf(name, "wal-%016d.seg", &seq); n != 1 || err != nil {
		return 0, false
	}
	return seq, true
}

// OpenWAL opens (creating if needed) the log rooted at dir, scans every
// segment to validate framing, and truncates a torn tail in the final
// segment. After Open the log is ready for both Replay and Append.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	w.appendH = opts.Telemetry.Histogram("stage_duration_seconds",
		"Hot-path stage latency in seconds.", nil, telemetry.L("stage", "wal_append"))
	w.fsyncH = opts.Telemetry.Histogram("stage_duration_seconds",
		"Hot-path stage latency in seconds.", nil, telemetry.L("stage", "wal_fsync"))
	seqs, err := w.segments()
	if err != nil {
		return nil, err
	}
	for i, seq := range seqs {
		final := i == len(seqs)-1
		n, size, err := w.scanSegment(seq, final)
		if err != nil {
			return nil, err
		}
		w.records += n
		w.size += size
	}
	var openSeq uint64 = 1
	if len(seqs) > 0 {
		openSeq = seqs[len(seqs)-1]
	}
	if err := w.openSegment(openSeq); err != nil {
		return nil, err
	}
	return w, nil
}

// segments lists existing segment sequence numbers in order.
func (w *WAL) segments() ([]uint64, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: wal dir: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := segmentSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// scanSegment validates every record in segment seq and returns the
// record count and validated byte size. In the final segment a torn
// tail is truncated away; anywhere else it is ErrCorrupt.
func (w *WAL) scanSegment(seq uint64, final bool) (records uint64, size int64, err error) {
	path := filepath.Join(w.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: wal open segment: %w", err)
	}
	defer f.Close()
	good, records, scanErr := scanRecords(bufio.NewReaderSize(f, 256<<10), nil)
	if scanErr != nil {
		if !errors.Is(scanErr, errTorn) {
			// A read error from the device, not framing damage —
			// truncating here could destroy intact records.
			return 0, 0, fmt.Errorf("storage: wal scan segment %d: %w", seq, scanErr)
		}
		if !final {
			return 0, 0, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seq, scanErr)
		}
		if err := f.Truncate(good); err != nil {
			return 0, 0, fmt.Errorf("storage: wal truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("storage: wal sync after truncate: %w", err)
		}
	}
	return records, good, nil
}

// scanRecords walks framed records from r, invoking fn (when non-nil)
// with each valid payload. It returns the byte offset after the last
// whole valid record; err is non-nil when the stream ends in anything
// but a clean record boundary.
func scanRecords(r io.Reader, fn func(payload []byte) error) (good int64, records uint64, err error) {
	br := &countingReader{r: r}
	var hdr [recordHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return good, records, nil
			}
			if err == io.ErrUnexpectedEOF {
				return good, records, fmt.Errorf("%w: short header at %d", errTorn, good)
			}
			return good, records, fmt.Errorf("read at %d: %w", good, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordBytes {
			return good, records, fmt.Errorf("%w: implausible record length %d at %d", errTorn, length, good)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return good, records, fmt.Errorf("%w: short payload at %d", errTorn, good)
			}
			return good, records, fmt.Errorf("read at %d: %w", good, err)
		}
		if crc32.ChecksumIEEE(payload) != want {
			return good, records, fmt.Errorf("%w: crc mismatch at %d", errTorn, good)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return good, records, err
			}
		}
		good = br.n
		records++
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// openSegment opens segment seq for appending and makes it active.
func (w *WAL) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: wal open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: wal stat segment: %w", err)
	}
	w.active, w.actSize, w.actSeq = f, st.Size(), seq
	return nil
}

// Replay streams every durable payload, oldest first, to fn. It may be
// called at any time but is meant for recovery, before new appends.
// Replay does not consume the log; pair it with Truncate after a
// successful checkpoint.
func (w *WAL) Replay(fn func(payload []byte) error) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("storage: wal closed")
	}
	seqs, err := w.segments()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, seq := range seqs {
		f, err := os.Open(filepath.Join(w.dir, segmentName(seq)))
		if err != nil {
			return total, fmt.Errorf("storage: wal replay: %w", err)
		}
		// Open already truncated torn tails, so any framing error here
		// is a real corruption (or a callback error) — surface it.
		_, n, err := scanRecords(bufio.NewReaderSize(f, 256<<10), fn)
		f.Close()
		total += int(n)
		if err != nil {
			return total, fmt.Errorf("storage: wal replay segment %d: %w", seq, err)
		}
	}
	return total, nil
}

// Append frames payload and writes it to the active segment, rotating
// first when the segment is full. Under SyncAlways the record is
// fsynced before Append returns.
func (w *WAL) Append(payload []byte) error {
	return w.AppendBatch([][]byte{payload})
}

// AppendBatch appends several records with one lock acquisition and —
// under SyncAlways — one fsync for the whole batch, the bulk-ingest
// fast path. The batch is all-or-nothing: a write failure truncates
// the segment back to the pre-batch offset, so a crash can never
// resurrect the durable prefix of a batch the caller was told failed.
func (w *WAL) AppendBatch(payloads [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("storage: wal closed")
	}
	// Validate before writing anything: a record recovery would refuse
	// to read must never be acknowledged.
	for _, payload := range payloads {
		if len(payload) > maxRecordBytes {
			return fmt.Errorf("storage: wal record of %d bytes exceeds max %d", len(payload), maxRecordBytes)
		}
	}
	if w.actSize >= w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	appendStart := time.Now()
	defer w.appendH.ObserveSince(appendStart)
	start, startTotal, startRecords := w.actSize, w.size, w.records
	abort := func(err error) error {
		if terr := w.active.Truncate(start); terr != nil {
			// The segment may now end in whole records from the failed
			// batch; only replacing the handle state can't fix that, so
			// report both failures loudly.
			return fmt.Errorf("storage: wal append failed (%v) and rollback truncate failed: %w", err, terr)
		}
		w.actSize, w.size, w.records = start, startTotal, startRecords
		return fmt.Errorf("storage: wal append: %w", err)
	}
	// Frame the batch into one buffer and write it with one call. A
	// payload that would push the buffer past walWriteCap is written
	// straight from the caller's slice instead, after the bytes framed
	// so far, so a batch of huge records never holds a second copy.
	size := 0
	for _, payload := range payloads {
		size += recordHeader + len(payload)
	}
	buf := make([]byte, 0, min(size, walWriteCap))
	for _, payload := range payloads {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		if len(buf)+len(payload) <= walWriteCap {
			buf = append(buf, payload...)
			continue
		}
		if _, err := w.active.Write(buf); err != nil {
			return abort(err)
		}
		buf = buf[:0]
		if _, err := w.active.Write(payload); err != nil {
			return abort(err)
		}
	}
	if len(buf) > 0 {
		if _, err := w.active.Write(buf); err != nil {
			return abort(err)
		}
	}
	w.actSize += int64(size)
	w.size += int64(size)
	w.records += uint64(len(payloads))
	if w.opts.Sync == SyncAlways {
		fsyncStart := time.Now()
		defer w.fsyncH.ObserveSince(fsyncStart)
		if err := w.active.Sync(); err != nil {
			// The batch was reported failed; drop it from the file too so
			// memory (rolled back by the caller) and disk agree.
			return abort(err)
		}
	}
	return nil
}

// rotate syncs and closes the active segment and starts the next one.
// Callers hold w.mu.
func (w *WAL) rotate() error {
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync on rotate: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("storage: wal close on rotate: %w", err)
	}
	return w.openSegment(w.actSeq + 1)
}

// Sync flushes the active segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	start := time.Now()
	defer w.fsyncH.ObserveSince(start)
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("storage: wal fsync: %w", err)
	}
	return nil
}

// Truncate drops every record — called after the state it describes is
// captured by a durable checkpoint. The log continues on a fresh
// segment numbered after the dropped ones, so a crash between unlinks
// cannot resurrect stale records ahead of new ones. On any error the
// log remains appendable (with its counters intact, so the owner
// retries the truncation later); segments that survive a failed unlink
// replay idempotently, since the checkpoint already reflects them.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("storage: wal closed")
	}
	seqs, err := w.segments()
	if err != nil {
		return err
	}
	// Open the successor segment before closing or unlinking anything,
	// so a failure at any step never leaves the active handle closed.
	old, oldSize, oldSeq := w.active, w.actSize, w.actSeq
	if err := w.openSegment(oldSeq + 1); err != nil {
		w.active, w.actSize, w.actSeq = old, oldSize, oldSeq
		return err
	}
	old.Close() // contents are being discarded; close errors are moot
	var firstErr error
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(w.dir, segmentName(seq))); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("storage: wal remove segment: %w", err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	w.size, w.records = 0, 0
	return syncDir(w.dir)
}

// Size reports the validated byte size across all segments.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records reports the number of durable records currently in the log
// (appended or recovered, minus truncations).
func (w *WAL) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Close syncs and closes the active segment. The log can be reopened
// with OpenWAL.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.active.Sync(); err != nil {
		w.active.Close()
		return fmt.Errorf("storage: wal fsync on close: %w", err)
	}
	return w.active.Close()
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("storage: dir sync: %w", err)
	}
	return nil
}
