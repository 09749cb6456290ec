package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/vecdb"
)

// Anti-entropy replica resync. PR 3's router replicated writes
// best-effort: a backend that was ejected (or failed a write its
// peers acknowledged) silently diverged and stayed diverged. The
// resync manager closes that loop: every sweep it compares each
// shard's backends by sequence number and content checksum, picks the
// most advanced healthy backend as the source of truth, and repairs
// laggards by shipping the missing mutation batches out of the
// source's WAL — falling back to a full snapshot transfer when the
// source's journal has been truncated past the needed seq (or when
// two backends sit at the same seq with different contents, a
// divergence a delta cannot express). A repaired backend is released
// from its needsResync hold, which is what finally lets the health
// checker re-admit it to reads. See docs/cluster.md.

// resyncShipTimeout bounds one catch-up RPC (delta fetch, delta
// apply, snapshot fetch, snapshot apply). Snapshot legs move whole
// shards, so this is deliberately far looser than the probe timeout.
const resyncShipTimeout = 60 * time.Second

// maxResyncRounds bounds one catch-up loop (a backend's repair in a
// sweep, or one migration phase): a source taking writes faster than
// the target can absorb them must not pin the caller forever — the
// next sweep continues from where this one stopped, and a migration
// aborts.
const maxResyncRounds = 64

// ResyncStats counts anti-entropy outcomes since the router started.
type ResyncStats struct {
	// Resyncs counts backends brought back to seq+checksum parity by a
	// repair (delta or snapshot).
	Resyncs uint64 `json:"resyncs"`
	// MutationsShipped counts journaled mutations delivered to lagging
	// backends.
	MutationsShipped uint64 `json:"mutations_shipped"`
	// SnapshotFallbacks counts repairs that had to transfer a full
	// snapshot because the delta was unavailable (truncated WAL) or
	// insufficient (equal-seq divergence).
	SnapshotFallbacks uint64 `json:"snapshot_fallbacks"`
	// Errors counts repair attempts that failed and will be retried by
	// a later sweep.
	Errors uint64 `json:"errors"`
}

// resyncer is the background anti-entropy loop owned by a Router.
type resyncer struct {
	r    *Router
	kick chan struct{}
	done chan struct{}

	resyncs   atomic.Uint64
	shipped   atomic.Uint64
	snapshots atomic.Uint64
	errors    atomic.Uint64
}

func newResyncer(r *Router) *resyncer {
	rs := &resyncer{
		r:    r,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go rs.run()
	return rs
}

func (rs *resyncer) run() {
	defer close(rs.done)
	// A negative interval is fully manual mode: no ticker and no
	// nudge-driven sweeps, so tests drive every repair explicitly
	// through ResyncNow.
	if rs.r.cfg.ResyncInterval < 0 {
		return
	}
	t := time.NewTicker(rs.r.cfg.ResyncInterval)
	defer t.Stop()
	tick := t.C
	// The router's context parents every background sweep: Close
	// cancels it, which ends the loop and makes an in-flight repair leg
	// (up to resyncShipTimeout) abort instead of pinning a graceful
	// shutdown.
	for {
		select {
		case <-rs.r.ctx.Done():
			return
		case <-tick:
		case <-rs.kick:
		}
		rs.r.resyncSweep(rs.r.ctx)
	}
}

// nudge schedules a sweep soon (the write path calls it when a
// partial write marks a backend) without ever blocking the caller.
func (rs *resyncer) nudge() {
	select {
	case rs.kick <- struct{}{}:
	default:
	}
}

// ResyncStats reports the anti-entropy counters.
func (r *Router) ResyncStats() ResyncStats {
	rs := r.resync
	return ResyncStats{
		Resyncs:           rs.resyncs.Load(),
		MutationsShipped:  rs.shipped.Load(),
		SnapshotFallbacks: rs.snapshots.Load(),
		Errors:            rs.errors.Load(),
	}
}

// ResyncNow runs one synchronous anti-entropy sweep over every shard
// — the operation behind POST /admin/resync and the deterministic
// hook the chaos tests drive. It returns the first repair error;
// other shards are still swept.
func (r *Router) ResyncNow(ctx context.Context) error {
	return r.resyncSweep(ctx)
}

// ProbeNow runs one synchronous probe round over every backend,
// refreshing health state and cached stats — deterministic test hook
// and the reason an admin-triggered resync can follow an
// admin-observed recovery without waiting out the probe interval.
func (r *Router) ProbeNow() { r.checker.probeAll() }

// backendObs is one backend's live observation during a sweep.
type backendObs struct {
	h  *backendHealth
	st ShardStat
}

func (r *Router) resyncSweep(ctx context.Context) error {
	var firstErr error
	for si := 0; si < r.nshards; si++ {
		if err := r.resyncShard(ctx, si); err != nil && firstErr == nil {
			firstErr = err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return firstErr
}

// resyncShard compares shard si's backends and repairs laggards. The
// source of truth is the most advanced healthy backend (ties resolve
// in declaration order, so the primary wins); with no healthy backend
// the most advanced reachable one self-clears — during a total outage
// the best surviving copy must be allowed back first, or nobody can
// serve.
func (r *Router) resyncShard(ctx context.Context, si int) error {
	// One consistent ring snapshot per shard sweep: a migration cutover
	// mid-sweep swaps the assignment, and comparing backends across two
	// assignments would elect nonsense sources.
	shard := r.ring.Load().shards[si]
	if len(shard) == 1 {
		// A replica-less shard has no peer to diverge from; release any
		// hold so recovery is not deadlocked waiting for a comparison
		// that can never happen.
		h := shard[0]
		if h.resyncNeeded() {
			h.clearResync(r.cfg)
		}
		return nil
	}
	var obs []backendObs
	for _, h := range shard {
		st, err := r.stat(ctx, h.backend)
		if err != nil {
			continue // unreachable: nothing to compare or repair yet
		}
		h.setStat(st)
		obs = append(obs, backendObs{h: h, st: st})
	}
	if len(obs) == 0 {
		return nil
	}
	src := obs[0]
	srcServing := src.h.serving()
	for _, o := range obs[1:] {
		serving := o.h.serving()
		better := o.st.Seq > src.st.Seq
		if serving != srcServing {
			// Healthy backends outrank any unhealthy one as source of
			// truth: they took every acknowledged write.
			better = serving
		}
		if better {
			src, srcServing = o, serving
		}
	}
	// The source is authoritative only if it serves reads itself, or
	// if no backend of the shard does (total outage — the best
	// surviving copy must be allowed back first, or nobody can serve).
	// The serving check is local state, deliberately not this sweep's
	// reachability: a healthy primary whose one Stat call timed out
	// must not let a stale held replica elect itself source, self-
	// clear, and serve reads missing that primary's writes.
	if !srcServing {
		for _, h := range shard {
			if h.serving() {
				return nil // wait for a sweep that can observe the serving peer
			}
		}
	}
	// The source is as good as this shard gets: release its own hold
	// (total-outage bootstrap, or an ejection that missed no writes).
	if src.h.resyncNeeded() {
		src.h.clearResync(r.cfg)
	}
	var firstErr error
	for _, o := range obs {
		if o.h == src.h {
			continue
		}
		if o.st.Seq == src.st.Seq && o.st.Checksum == src.st.Checksum {
			if o.h.resyncNeeded() {
				o.h.clearResync(r.cfg)
			}
			continue
		}
		// Diverged. Hold it out of service (demoting a healthy laggard)
		// and repair it from the source.
		o.h.markResync()
		st, err := r.catchUp(ctx, src.h.backend, o.h.backend, 0, transfer{shipped: &r.resync.shipped, snapshots: &r.resync.snapshots})
		if err != nil {
			r.resync.errors.Add(1)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: resync shard %d backend %s: %w", si, o.h.backend.Name(), err)
			}
			continue
		}
		o.h.setStat(st)
		o.h.clearResync(r.cfg)
		r.resync.resyncs.Add(1)
	}
	return firstErr
}

// transfer names where one caller's catch-up transfers count: shipped
// adds the delta records applied, snapshots (nil: not counted) the
// snapshot transfers, and lag (nil: not recorded) takes the source−target
// seq gap every round observes.
type transfer struct {
	shipped   *atomic.Uint64
	snapshots *atomic.Uint64
	lag       *atomic.Uint64
}

// catchUp ships src's state to dst until seq and checksum agree, or —
// with allowedLag > 0 — until dst trails src by at most allowedLag. It
// is the one catch-up loop behind both replica resync and shard
// migration; allowedLag 0 demands exact parity, which a migration makes
// reachable by freezing the source's writes (the write barrier). Each
// round ships the whole remaining delta, falling back to a snapshot
// transfer when the delta is unavailable or when dst is level with or
// ahead of src. It returns dst's last observed stat.
func (r *Router) catchUp(ctx context.Context, src, dst Backend, allowedLag uint64, tr transfer) (ShardStat, error) {
	for round := 0; round < maxResyncRounds; round++ {
		srcStat, err := r.stat(ctx, src)
		if err != nil {
			return ShardStat{}, fmt.Errorf("source stat: %w", err)
		}
		dstStat, err := r.stat(ctx, dst)
		if err != nil {
			return ShardStat{}, fmt.Errorf("target stat: %w", err)
		}
		var lag uint64
		if srcStat.Seq > dstStat.Seq {
			lag = srcStat.Seq - dstStat.Seq
		}
		if tr.lag != nil {
			tr.lag.Store(lag)
		}
		if dstStat.Seq == srcStat.Seq && dstStat.Checksum == srcStat.Checksum {
			return dstStat, nil
		}
		if lag > 0 && lag <= allowedLag {
			return dstStat, nil
		}
		// A target ahead of its source, or level with it under
		// different contents, holds writes the delta stream cannot
		// reconcile — only adopting the source's exact doc set can.
		// Otherwise one scan per round: the whole remaining delta in one
		// fetch (the WAL a delta comes from is checkpoint-bounded, so so
		// is the response), applied in ResyncBatch-sized chunks to keep
		// individual apply RPCs small. Fetching batch-by-batch instead
		// would re-scan the WAL prefix per batch — quadratic in gap
		// size — while holding the source's WAL lock against writers.
		var ms []vecdb.SeqMutation
		if lag > 0 {
			if ms, err = fetchDelta(ctx, src, dstStat.Seq); err != nil && !errors.Is(err, errDeltaUnavailable) {
				return dstStat, err
			}
		}
		if len(ms) == 0 {
			if err := shipSnapshot(ctx, src, dst); err != nil {
				return dstStat, err
			}
			if tr.snapshots != nil {
				tr.snapshots.Add(1)
			}
			continue
		}
		for start := 0; start < len(ms); start += r.cfg.ResyncBatch {
			end := min(start+r.cfg.ResyncBatch, len(ms))
			actx, cancel := context.WithTimeout(ctx, resyncShipTimeout)
			err = dst.ApplyResync(actx, ms[start:end])
			cancel()
			if err != nil {
				return dstStat, fmt.Errorf("apply delta: %w", err)
			}
			tr.shipped.Add(uint64(end - start))
		}
	}
	return ShardStat{}, fmt.Errorf("no parity after %d rounds (source still advancing?)", maxResyncRounds)
}

// stat reads one backend's ShardStat under the probe timeout.
func (r *Router) stat(ctx context.Context, b Backend) (ShardStat, error) {
	sctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	return b.Stat(sctx)
}

// errDeltaUnavailable tags a delta fetch that cannot make progress
// and must become a snapshot transfer: the journal is truncated, or
// it reports records it then fails to produce.
var errDeltaUnavailable = errors.New("delta unavailable")

func fetchDelta(ctx context.Context, src Backend, since uint64) ([]vecdb.SeqMutation, error) {
	fctx, cancel := context.WithTimeout(ctx, resyncShipTimeout)
	defer cancel()
	ms, err := src.MutationsSince(fctx, since, 0)
	if err != nil {
		if errors.Is(err, vecdb.ErrSeqTruncated) {
			return nil, errDeltaUnavailable
		}
		return nil, fmt.Errorf("fetch delta: %w", err)
	}
	if len(ms) == 0 {
		// The source's seq is ahead of since but its journal serves
		// nothing past it (e.g. the gap predates seq framing): the delta
		// path cannot converge.
		return nil, errDeltaUnavailable
	}
	return ms, nil
}

// shipSnapshot replaces dst's contents with a full snapshot of src.
func shipSnapshot(ctx context.Context, src, dst Backend) error {
	fctx, cancel := context.WithTimeout(ctx, resyncShipTimeout)
	seq, docs, err := src.SnapshotDocs(fctx)
	cancel()
	if err != nil {
		return fmt.Errorf("fetch snapshot: %w", err)
	}
	actx, cancel := context.WithTimeout(ctx, resyncShipTimeout)
	err = dst.ApplySnapshot(actx, seq, docs)
	cancel()
	if err != nil {
		return fmt.Errorf("apply snapshot: %w", err)
	}
	return nil
}
