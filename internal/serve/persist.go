package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// Durable layout under a data directory:
//
//	data/
//	  store.json            — shard count + embedding dim, written once
//	  shard-0000/
//	    checkpoint.snap     — vecdb checkpoint via the storage codec
//	    wal/wal-…​.seg       — mutations journaled since that checkpoint
//	  shard-0001/ …
//
// Every write first mutates the in-memory shard, then appends the
// encoded mutation to the shard's WAL before the call returns, all
// under that shard's persistence mutex, so WAL order equals apply
// order. Recovery loads each shard's checkpoint and replays its WAL on
// top — shards recover in parallel, and replay re-embeds on all cores.
// A background checkpointer snapshots dirty shards and truncates their
// WALs; a crash between those two steps is benign because replay is
// idempotent (re-adds replace, deletes of absent documents are
// filtered against the recovering state). See docs/persistence.md.

// PersistConfig tunes the durable layer. Zero values take the
// documented defaults.
type PersistConfig struct {
	// Fsync is the WAL flush policy (default storage.SyncNever: the OS
	// flushes; rotation, truncation, checkpoints and Close always sync).
	Fsync storage.SyncPolicy
	// SyncEvery is the flush period under storage.SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates WAL segments (default 4 MiB).
	SegmentBytes int64
	// CheckpointEvery is the background checkpoint period (default 30s;
	// negative disables the background checkpointer — checkpoints then
	// happen only on Save, Close, or the admin endpoint).
	CheckpointEvery time.Duration
	// CheckpointBytes triggers an early checkpoint once a shard's WAL
	// exceeds this size (default 8 MiB).
	CheckpointBytes int64
	// Telemetry, when non-nil, receives wal_append / wal_fsync /
	// checkpoint stage timings (shared across shards).
	Telemetry *telemetry.Registry
}

func (c PersistConfig) withDefaults() PersistConfig {
	if c.SyncEvery <= 0 {
		c.SyncEvery = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 4 << 20
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.CheckpointBytes <= 0 {
		c.CheckpointBytes = 8 << 20
	}
	return c
}

// storeMeta pins the layout parameters a data directory was created
// with; reopening with incompatible parameters is an error rather than
// a silently misrouted hash space.
type storeMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	Dim     int `json:"dim"`
}

const storeMetaVersion = 1

const storeMetaFile = "store.json"

const checkpointFile = "checkpoint.snap"

// ErrNoDataDir reports a durability operation on a memory-only store,
// so callers can distinguish a misdirected request from a failing
// disk.
var ErrNoDataDir = errors.New("serve: store has no data directory")

// storeMetaExists reports whether dir already holds store metadata —
// i.e. whether an Open would recover an existing layout rather than
// create one.
func storeMetaExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, storeMetaFile))
	return err == nil
}

// writeFileAtomic writes data to path via temp file + fsync + rename,
// fsyncing the directory after.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// durableShard pairs one vecdb shard with its WAL. Its mutex orders
// apply+journal against checkpoint+truncate.
type durableShard struct {
	mu  sync.Mutex
	dir string
	wal *storage.WAL
	// base is the highest sequence number folded into the checkpoint —
	// the WAL retains exactly the records with seq > base, so
	// MutationsSince(since) can serve a delta iff since >= base.
	// Updated after every truncation; read lock-free by the resync
	// read path.
	base atomic.Uint64
}

// persistence is the durable state attached to a ShardedDB opened with
// OpenSharded. A nil persistence means a memory-only store.
type persistence struct {
	cfg    PersistConfig
	dir    string
	shards []*durableShard

	kick chan struct{} // early-checkpoint signal from the write path
	stop chan struct{}
	done chan struct{}

	appended    atomic.Uint64
	replayed    atomic.Uint64
	checkpoints atomic.Uint64
	ckErrors    atomic.Uint64
	syncErrors  atomic.Uint64
	lastCk      atomic.Int64 // unix nanos; 0 = never
	closeOnce   sync.Once

	// checkpointH times checkpoint+truncate; nil (no-op) without a
	// registry.
	checkpointH *telemetry.Histogram
}

// shardDirName formats the directory for shard i.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// OpenSharded opens (creating if needed) a durable sharded store
// rooted at dir: each shard recovers from its checkpoint plus WAL
// replay, all shards in parallel, and a background checkpointer runs
// until Close. n is the shard count for a fresh directory; reopening
// an existing directory takes the count from its metadata and rejects
// a conflicting non-zero n, since documents are hash-routed by the
// original count.
func OpenSharded(dir string, n int, embed vecdb.Embedder, mkIndex func() (vecdb.Index, error), pcfg PersistConfig) (*ShardedDB, error) {
	if embed == nil || mkIndex == nil {
		return nil, errors.New("serve: nil embedder or index factory")
	}
	pcfg = pcfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	meta, err := loadOrInitMeta(dir, n, embed.Dim())
	if err != nil {
		return nil, err
	}
	n = meta.Shards

	p := &persistence{
		cfg:    pcfg,
		dir:    dir,
		shards: make([]*durableShard, n),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	p.checkpointH = pcfg.Telemetry.Histogram("stage_duration_seconds",
		"Hot-path stage latency in seconds.", nil, telemetry.L("stage", "checkpoint"))
	s := &ShardedDB{embed: embed, shards: make([]*vecdb.DB, n), persist: p}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, ds, replayed, err := recoverShard(filepath.Join(dir, shardDirName(i)), embed, mkIndex, pcfg)
			if err != nil {
				errs[i] = fmt.Errorf("serve: shard %d: %w", i, err)
				return
			}
			s.shards[i], p.shards[i] = db, ds
			p.replayed.Add(replayed)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, ds := range p.shards {
			if ds != nil {
				ds.wal.Close()
			}
		}
		return nil, err
	}

	// Restore the global ID allocator past every recovered document.
	var next int64 = 1
	for _, db := range s.shards {
		if id := db.NextID(); id > next {
			next = id
		}
	}
	s.nextID.Store(next - 1)

	go p.run(s)
	return s, nil
}

// loadOrInitMeta reads the store metadata, creating it on first open.
func loadOrInitMeta(dir string, n, dim int) (storeMeta, error) {
	path := filepath.Join(dir, storeMetaFile)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var meta storeMeta
		if err := json.Unmarshal(raw, &meta); err != nil {
			return meta, fmt.Errorf("serve: store metadata: %w", err)
		}
		if meta.Version != storeMetaVersion {
			return meta, fmt.Errorf("serve: unsupported store metadata version %d", meta.Version)
		}
		if n > 0 && n != meta.Shards {
			return meta, fmt.Errorf("serve: data dir was created with %d shards, cannot reopen with %d", meta.Shards, n)
		}
		if meta.Dim != dim {
			return meta, fmt.Errorf("serve: data dir was created with dim %d, cannot reopen with %d", meta.Dim, dim)
		}
		return meta, nil
	case os.IsNotExist(err):
		if n <= 0 {
			return storeMeta{}, fmt.Errorf("serve: shard count must be positive, got %d", n)
		}
		meta := storeMeta{Version: storeMetaVersion, Shards: n, Dim: dim}
		raw, err := json.Marshal(meta)
		if err != nil {
			return meta, err
		}
		// The metadata pins the hash layout for the life of the store —
		// write it with the same temp+fsync+rename discipline as every
		// other durable file, so a crash can never leave it torn (or
		// missing while shard data exists).
		if err := writeFileAtomic(path, raw); err != nil {
			return meta, fmt.Errorf("serve: store metadata: %w", err)
		}
		return meta, nil
	default:
		return storeMeta{}, fmt.Errorf("serve: store metadata: %w", err)
	}
}

// recoverShard rebuilds one shard: checkpoint (if any), then WAL
// replay on top. It returns the live DB, the shard's durable state,
// and the number of replayed records.
func recoverShard(dir string, embed vecdb.Embedder, mkIndex func() (vecdb.Index, error), pcfg PersistConfig) (*vecdb.DB, *durableShard, uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	idx, err := mkIndex()
	if err != nil {
		return nil, nil, 0, err
	}
	var db *vecdb.DB
	ckPath := filepath.Join(dir, checkpointFile)
	db, err = vecdb.LoadFile(ckPath, embed, idx)
	if os.IsNotExist(err) {
		db, err = vecdb.New(embed, idx)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("checkpoint: %w", err)
	}

	wal, err := storage.OpenWAL(filepath.Join(dir, "wal"), storage.WALOptions{
		SegmentBytes: pcfg.SegmentBytes,
		Sync:         pcfg.Fsync,
		Telemetry:    pcfg.Telemetry,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	// The checkpoint pins the seq its contents are current as of; WAL
	// records carry their own seqs on top (legacy unframed records get
	// the next number in the stream). Replay restores the position from
	// the records, not by counting applies — dedupeReplay may drop
	// records the checkpoint already reflects.
	ckSeq := db.Seq()
	maxSeq, firstSeq := ckSeq, uint64(0)
	haveFirst := false
	var ms []vecdb.Mutation
	if _, err := wal.Replay(func(payload []byte) error {
		seq, raw, framed, err := storage.DecodeSeqPayload(payload)
		if err != nil {
			return err
		}
		if !framed {
			seq = maxSeq + 1
		}
		m, err := vecdb.DecodeMutation(raw)
		if err != nil {
			return err
		}
		if !haveFirst {
			firstSeq, haveFirst = seq, true
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		ms = append(ms, m)
		return nil
	}); err != nil {
		wal.Close()
		return nil, nil, 0, err
	}
	ms = dedupeReplay(db, ms)
	if err := db.ApplyAll(ms); err != nil {
		wal.Close()
		return nil, nil, 0, fmt.Errorf("wal replay: %w", err)
	}
	db.SetSeq(maxSeq)
	ds := &durableShard{dir: dir, wal: wal}
	// A crash between checkpoint and truncation leaves records the
	// checkpoint already covers: the delta floor is then the seq just
	// below the first retained record, not the checkpoint seq.
	base := ckSeq
	if haveFirst && firstSeq-1 < base {
		base = firstSeq - 1
	}
	ds.base.Store(base)
	return db, ds, uint64(len(ms)), nil
}

// dedupeReplay drops deletes whose target is already absent from the
// recovering state. Such records appear when a crash lands between a
// checkpoint's rename and the WAL truncation that follows it: the
// checkpoint already reflects the delete, so applying it again must be
// a no-op, not an ErrNotFound. Adds need no filtering — re-adding
// replaces the identical document.
func dedupeReplay(db *vecdb.DB, ms []vecdb.Mutation) []vecdb.Mutation {
	out := ms[:0]
	present := make(map[int64]bool, len(ms))
	tracked := make(map[int64]bool, len(ms))
	for _, m := range ms {
		switch m.Op {
		case vecdb.OpAdd:
			present[m.ID], tracked[m.ID] = true, true
			out = append(out, m)
		case vecdb.OpDelete:
			exists := present[m.ID]
			if !tracked[m.ID] {
				_, err := db.Get(m.ID)
				exists = err == nil
			}
			present[m.ID], tracked[m.ID] = false, true
			if exists {
				out = append(out, m)
			}
		default:
			out = append(out, m) // let ApplyAll surface the error
		}
	}
	return out
}

// run is the background loop: periodic WAL flushing under
// SyncInterval, periodic checkpoints, and early checkpoints kicked by
// the write path when a WAL outgrows CheckpointBytes.
func (p *persistence) run(s *ShardedDB) {
	defer close(p.done)
	var ckC, syncC <-chan time.Time
	if p.cfg.CheckpointEvery > 0 {
		t := time.NewTicker(p.cfg.CheckpointEvery)
		defer t.Stop()
		ckC = t.C
	}
	if p.cfg.Fsync == storage.SyncInterval {
		t := time.NewTicker(p.cfg.SyncEvery)
		defer t.Stop()
		syncC = t.C
	}
	// Size-triggered kicks are rate-limited: while checkpoints are
	// failing (e.g. a full disk) the WAL stays over CheckpointBytes and
	// every write batch re-kicks, which must not turn into a snapshot
	// attempt per write exactly when the disk is struggling. The
	// periodic ticker remains the retry path.
	var lastKick time.Time
	for {
		select {
		case <-p.stop:
			return
		case <-syncC:
			for _, ds := range p.shards {
				if err := ds.wal.Sync(); err != nil {
					// Durability has silently degraded to page-cache-only;
					// surface it through /stats rather than dropping it.
					p.syncErrors.Add(1)
				}
			}
		case <-ckC:
			p.checkpointDirty(s)
		case <-p.kick:
			if time.Since(lastKick) >= time.Second {
				lastKick = time.Now()
				p.checkpointDirty(s)
			}
		}
	}
}

// checkpointDirty checkpoints every shard whose WAL holds records.
func (p *persistence) checkpointDirty(s *ShardedDB) {
	for i, ds := range p.shards {
		if ds.wal.Records() == 0 {
			continue
		}
		if err := p.checkpointShard(s, i); err != nil {
			p.ckErrors.Add(1)
		}
	}
}

// checkpointShard snapshots shard i and truncates its WAL. Writers to
// the shard block for the duration; readers are unaffected.
func (p *persistence) checkpointShard(s *ShardedDB, i int) error {
	ds := p.shards[i]
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return p.checkpointShardLocked(s, i)
}

// checkpointShardLocked is checkpointShard for callers already holding
// the shard's persistence mutex (the snapshot-resync apply path, which
// must pin its adopted seq durably in the same critical section).
func (p *persistence) checkpointShardLocked(s *ShardedDB, i int) error {
	start := time.Now()
	defer p.checkpointH.ObserveSince(start)
	ds := p.shards[i]
	if err := s.shards[i].SaveFile(filepath.Join(ds.dir, checkpointFile)); err != nil {
		return err
	}
	if err := ds.wal.Truncate(); err != nil {
		return err
	}
	// Everything up to the shard's current seq is now in the
	// checkpoint; the WAL serves deltas only past it.
	ds.base.Store(s.shards[i].Seq())
	p.checkpoints.Add(1)
	p.lastCk.Store(time.Now().UnixNano())
	return nil
}

// journal appends already-applied, already-encoded mutations to shard
// i's WAL. Callers hold the shard's persistence mutex.
func (p *persistence) journal(i int, payloads [][]byte) error {
	ds := p.shards[i]
	if err := ds.wal.AppendBatch(payloads); err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	p.appended.Add(uint64(len(payloads)))
	if ds.wal.Size() > p.cfg.CheckpointBytes {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Save checkpoints every dirty shard now — the graceful path behind
// POST /admin/checkpoint and shutdown. Shards checkpoint concurrently,
// each under its own lock into its own files; every one is attempted,
// and the error of the lowest-numbered failing shard is returned.
func (s *ShardedDB) Save() error {
	p := s.persist
	if p == nil {
		return ErrNoDataDir
	}
	errs := make([]error, len(p.shards))
	parallel.ForWorkers(len(p.shards), len(p.shards), func(i int) {
		if p.shards[i].wal.Records() > 0 {
			errs[i] = p.checkpointShard(s, i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background checkpointer, takes a final checkpoint,
// and closes every WAL. It is a no-op on a memory-only store and safe
// to call twice.
func (s *ShardedDB) Close() error {
	p := s.persist
	if p == nil {
		return nil
	}
	var err error
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.done
		err = s.Save()
		for _, ds := range p.shards {
			if cerr := ds.wal.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// CloseNoCheckpoint stops the background checkpointer and closes the
// WALs without taking a final checkpoint, leaving the journal intact.
// This is the fast-shutdown path — boot pays for it with a replay —
// and doubles as the crash simulation in recovery tests and
// benchmarks. No-op on a memory-only store.
func (s *ShardedDB) CloseNoCheckpoint() {
	p := s.persist
	if p == nil {
		return
	}
	p.closeOnce.Do(func() {
		close(p.stop)
		<-p.done
		for _, ds := range p.shards {
			ds.wal.Close()
		}
	})
}

// crash is the recovery tests' alias for an ungraceful stop.
func (s *ShardedDB) crash() { s.CloseNoCheckpoint() }

// PersistStats is the durability section of the /stats snapshot.
type PersistStats struct {
	// Enabled reports whether the store has a data directory.
	Enabled bool `json:"enabled"`
	// WALBytes / WALRecords describe what is currently journaled and
	// not yet folded into a checkpoint, summed across shards.
	WALBytes   int64  `json:"wal_bytes"`
	WALRecords uint64 `json:"wal_records"`
	// AppendedRecords counts mutations journaled since open.
	AppendedRecords uint64 `json:"appended_records"`
	// ReplayedRecords counts WAL records replayed during recovery.
	ReplayedRecords uint64 `json:"replayed_records"`
	// Checkpoints / CheckpointErrors count checkpoint attempts since
	// open.
	Checkpoints      uint64 `json:"checkpoints"`
	CheckpointErrors uint64 `json:"checkpoint_errors"`
	// SyncErrors counts failed background WAL flushes (SyncInterval
	// policy) — non-zero means durability has degraded to page-cache
	// semantics.
	SyncErrors uint64 `json:"sync_errors"`
	// LastCheckpointAgeSeconds is the age of the newest checkpoint
	// taken by this process; -1 before the first one.
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
}

// PersistStats reports the store's durability counters.
func (s *ShardedDB) PersistStats() PersistStats {
	p := s.persist
	if p == nil {
		return PersistStats{}
	}
	st := PersistStats{
		Enabled:                  true,
		AppendedRecords:          p.appended.Load(),
		ReplayedRecords:          p.replayed.Load(),
		Checkpoints:              p.checkpoints.Load(),
		CheckpointErrors:         p.ckErrors.Load(),
		SyncErrors:               p.syncErrors.Load(),
		LastCheckpointAgeSeconds: -1,
	}
	for _, ds := range p.shards {
		st.WALBytes += ds.wal.Size()
		st.WALRecords += ds.wal.Records()
	}
	if last := p.lastCk.Load(); last > 0 {
		st.LastCheckpointAgeSeconds = time.Since(time.Unix(0, last)).Seconds()
	}
	return st
}
