package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Online shard migration. A migration moves one shard onto a fresh
// backend with zero read downtime and zero lost or duplicated
// documents, in phases:
//
//	planned → seeding → catchup → cutover → done
//	                └──── (any failure) ───→ aborted
//
//   - seeding: the target adopts a full snapshot of the source
//     (/shard/snapshot), taken while the source keeps serving.
//   - catchup: delta rounds ship the mutations the source accepted
//     since the snapshot (/shard/mutations → /shard/resync) until the
//     target trails by at most catchupLag.
//   - cutover: under the shard's write barrier the remaining delta is
//     drained to exact seq+checksum parity and the ring flips
//     atomically to a new epoch with the target as the shard's sole
//     backend. No write is in flight across the flip, so every write
//     lands entirely on the source before it (and is drained) or on
//     the target after it. Reads never stop: they serve from the old
//     assignment up to the flip and the new one after it.
//   - retire: the new ring is distributed to the nodes; the source
//     (and any replicas of the moved shard) are handed Serving=false,
//     after which they 409 stale traffic toward the new ring.
//
// Any failure before the ring flip aborts the migration and leaves
// the old assignment fully intact — the target is garbage to be
// reused or discarded, never half-authoritative. After the flip the
// migration is committed; retire-side push failures are logged, not
// fatal, because stale clients also self-heal through the 409
// handshake. Router.Close aborts a running migration by cancelling
// its context, whatever transfer call it is blocked in.

// ErrMigrationActive reports that a migration is already running; the
// router allows one at a time.
var ErrMigrationActive = errors.New("cluster: a shard migration is already in progress")

// migrationTimeout bounds a background StartRebalance run end to end.
const migrationTimeout = 15 * time.Minute

// migHistoryMax bounds the finished-migration ring buffer in /stats.
const migHistoryMax = 8

// catchupLag is the seq gap at which background catch-up stops and
// the write-barrier drain takes over: small enough that the barrier
// drains in one round, large enough that a busy source doesn't keep
// catch-up spinning forever.
const catchupLag = 64

// cutoverTimeout bounds the write-barrier critical section: a stuck
// target aborts the migration instead of stalling the shard's writes.
const cutoverTimeout = 10 * time.Second

// MigrationPhase numbers the orchestrator's states; the numeric value
// is what migration_phase{shard} exports.
type MigrationPhase int32

const (
	MigIdle MigrationPhase = iota
	MigPlanned
	MigSeeding
	MigCatchup
	MigCutover
	MigDone
	MigAborted
)

func (p MigrationPhase) String() string {
	switch p {
	case MigIdle:
		return "idle"
	case MigPlanned:
		return "planned"
	case MigSeeding:
		return "seeding"
	case MigCatchup:
		return "catchup"
	case MigCutover:
		return "cutover"
	case MigDone:
		return "done"
	case MigAborted:
		return "aborted"
	}
	return "unknown"
}

// migration is one in-flight (or finished) shard move.
type migration struct {
	id     int64
	shard  int
	src    *backendHealth
	target Backend
	// done is closed once the outcome is recorded.
	done chan struct{}

	phase   atomic.Int32
	shipped atomic.Uint64
	lag     atomic.Uint64

	mu       sync.Mutex
	prev     []*backendHealth // shard backends replaced at the flip
	started  time.Time
	finished time.Time
	epoch    uint64 // ring epoch installed at cutover
	outcome  string
	errMsg   string
	retired  bool
}

func (m *migration) setPhase(p MigrationPhase) { m.phase.Store(int32(p)) }

// transfer is where the migration's catch-up rounds count: delta
// records in shipped, the last seq gap in lag. Snapshot transfers are
// not counted; they are not resyncs.
func (m *migration) transfer() transfer {
	return transfer{shipped: &m.shipped, lag: &m.lag}
}

// MigrationStatus is one migration's observable state, exposed as
// cluster.migrations in /stats.
type MigrationStatus struct {
	ID     int64  `json:"id"`
	Shard  int    `json:"shard"`
	Source string `json:"source"`
	Target string `json:"target"`
	Phase  string `json:"phase"`
	// Epoch is the ring epoch installed at cutover (0 until then).
	Epoch uint64 `json:"epoch,omitempty"`
	// ShippedMutations counts delta records streamed to the target.
	ShippedMutations uint64 `json:"shipped_mutations"`
	// ParityLag is the last observed source−target seq gap.
	ParityLag uint64 `json:"parity_lag"`
	// Outcome is "ok" or "aborted" once finished, empty while running.
	Outcome string `json:"outcome,omitempty"`
	Error   string `json:"error,omitempty"`
	// SourceRetired reports that the retired source acknowledged the
	// new ring (false also while running, or when the push failed and
	// the 409 handshake is the only self-heal path).
	SourceRetired bool  `json:"source_retired,omitempty"`
	StartedAtMS   int64 `json:"started_at_ms"`
	FinishedAtMS  int64 `json:"finished_at_ms,omitempty"`
}

func (m *migration) status() MigrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MigrationStatus{
		ID:               m.id,
		Shard:            m.shard,
		Source:           m.src.backend.Name(),
		Target:           m.target.Name(),
		Phase:            MigrationPhase(m.phase.Load()).String(),
		Epoch:            m.epoch,
		ShippedMutations: m.shipped.Load(),
		ParityLag:        m.lag.Load(),
		Outcome:          m.outcome,
		Error:            m.errMsg,
		SourceRetired:    m.retired,
		StartedAtMS:      m.started.UnixMilli(),
	}
	if !m.finished.IsZero() {
		st.FinishedAtMS = m.finished.UnixMilli()
	}
	return st
}

// Rebalance synchronously moves shard si onto target, returning the
// finished migration's status. The error is non-nil only when the
// migration could not start (bad shard, busy router, dead source); a
// migration that started and aborted reports that through
// Status.Outcome == "aborted", because the abort path restoring the
// old assignment is the operation working as designed.
func (r *Router) Rebalance(ctx context.Context, si int, target Backend) (MigrationStatus, error) {
	m, err := r.beginMigration(si, target)
	if err != nil {
		return MigrationStatus{}, err
	}
	return r.runMigration(ctx, m), nil
}

// StartRebalance begins a migration and returns immediately; progress
// is observable through Migrations. The run is bounded by
// migrationTimeout.
func (r *Router) StartRebalance(si int, target Backend) (MigrationStatus, error) {
	m, err := r.beginMigration(si, target)
	if err != nil {
		return MigrationStatus{}, err
	}
	// Read the status before the run starts: a small shard can move
	// before this goroutine would get to it.
	st := m.status()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), migrationTimeout)
		defer cancel()
		r.runMigration(ctx, m)
	}()
	return st, nil
}

// Migrations snapshots the active migration (first, when one runs)
// plus recently finished ones, newest first.
func (r *Router) Migrations() []MigrationStatus {
	var out []MigrationStatus
	if m := r.mig.Load(); m != nil {
		out = append(out, m.status())
	}
	r.migMu.Lock()
	for i := len(r.migHistory) - 1; i >= 0; i-- {
		out = append(out, r.migHistory[i])
	}
	r.migMu.Unlock()
	return out
}

// beginMigration validates the move and claims the router's single
// migration slot.
func (r *Router) beginMigration(si int, target Backend) (*migration, error) {
	if target == nil {
		return nil, errors.New("cluster: nil migration target")
	}
	if si < 0 || si >= r.nshards {
		return nil, fmt.Errorf("cluster: shard %d out of range [0,%d)", si, r.nshards)
	}
	rs := r.ring.Load()
	for osi, bs := range rs.shards {
		for _, h := range bs {
			if h.backend.Name() == target.Name() {
				return nil, fmt.Errorf("cluster: target %s already serves shard %d", target.Name(), osi)
			}
		}
	}
	var src *backendHealth
	for _, h := range rs.shards[si] {
		if h.serving() {
			src = h
			break
		}
	}
	if src == nil {
		return nil, fmt.Errorf("%w: shard %d has no serving backend to migrate from", ErrShardUnavailable, si)
	}
	m := &migration{id: r.migSeq.Add(1), shard: si, src: src, target: target, done: make(chan struct{}), started: time.Now()}
	m.setPhase(MigPlanned)
	if !r.mig.CompareAndSwap(nil, m) {
		return nil, ErrMigrationActive
	}
	if r.cfg.Telemetry != nil {
		if ts, ok := target.(telemetrySink); ok {
			ts.setTelemetry(r.cfg.Telemetry)
		}
	}
	return m, nil
}

// runMigration drives a claimed migration through its phases. See the
// package comment at the top of this file for the protocol; every
// phase transition lands on the migration span as an event, so one
// trace reads as the full story of the move.
func (r *Router) runMigration(ctx context.Context, m *migration) MigrationStatus {
	// Router.Close cancels r.ctx: the run aborts out of whatever
	// transfer call it is in.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(r.ctx, cancel)()
	ctx, sp := telemetry.StartSpan(ctx, "migration")
	sp.Annotate("shard", strconv.Itoa(m.shard))
	sp.Annotate("source", m.src.backend.Name())
	sp.Annotate("target", m.target.Name())
	var failErr error
	defer func() { sp.End(failErr) }()

	abort := func(stage string, err error) MigrationStatus {
		failErr = fmt.Errorf("%s: %w", stage, err)
		sp.Event("phase aborted: " + stage + ": " + err.Error())
		r.finishMigration(m, "aborted", failErr)
		return m.status()
	}

	// Seeding: (re)activate the target under the current ring, then
	// ship it a full snapshot. The source keeps serving throughout.
	m.setPhase(MigSeeding)
	sp.Event(fmt.Sprintf("phase seeding: snapshot %s → %s", m.src.backend.Name(), m.target.Name()))
	if rr, ok := m.target.(RingReceiver); ok {
		ictx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		err := rr.InstallRing(ictx, RingUpdate{Ring: r.Ring(), Serving: true})
		cancel()
		if err != nil {
			return abort("activate target", err)
		}
	}
	if err := shipSnapshot(ctx, m.src.backend, m.target); err != nil {
		return abort("seed snapshot", err)
	}

	// Catch-up: delta rounds until the target trails by at most
	// catchupLag, still without touching the write path.
	m.setPhase(MigCatchup)
	sp.Event("phase catchup: delta rounds to lag ≤ " + strconv.Itoa(catchupLag))
	if _, err := r.catchUp(ctx, m.src.backend, m.target, catchupLag, m.transfer()); err != nil {
		return abort("catchup", err)
	}

	// Cutover: block the shard's writes, drain to exact seq+checksum
	// parity, and flip the ring to a new epoch with the target as the
	// shard's sole backend. The barrier is bounded by cutoverTimeout so
	// a stuck target cannot stall live writes; writes it held go to
	// whichever backend owns the shard once it opens.
	m.setPhase(MigCutover)
	sp.Event("phase cutover: drain to parity under the write barrier and flip the ring")
	r.wmu[m.shard].Lock()
	bctx, bcancel := context.WithTimeout(ctx, cutoverTimeout)
	tgt, err := r.catchUp(bctx, m.src.backend, m.target, 0, m.transfer())
	bcancel()
	var epoch uint64
	if err == nil {
		epoch = r.flipRing(m, tgt)
	}
	r.wmu[m.shard].Unlock()
	if err != nil {
		return abort("cutover", err)
	}
	m.mu.Lock()
	m.epoch = epoch
	m.mu.Unlock()
	sp.Event(fmt.Sprintf("ring flipped: epoch %d, shard %d → %s", epoch, m.shard, m.target.Name()))

	// Distribute the new ring: the target serves under it, the old
	// shard backends are retired (Serving=false → they 409 stale
	// traffic), everyone else just learns the epoch. All best-effort:
	// the flip is already committed, and the 409 handshake self-heals
	// clients the push misses.
	r.distributeRing(ctx, m, sp)

	sp.Event("phase done: source retired")
	r.finishMigration(m, "ok", nil)
	return m.status()
}

// flipRing installs the post-migration ring: a new epoch with the
// target as the moved shard's sole backend, seeded with its last
// observed stat, and every other shard untouched. Called with the
// shard's write barrier held, so no write is in flight across the flip.
func (r *Router) flipRing(m *migration, tgt ShardStat) uint64 {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	old := r.ring.Load()
	shards := make([][]*backendHealth, len(old.shards))
	copy(shards, old.shards)
	th := &backendHealth{backend: m.target, stat: tgt, statValid: true}
	if r.cfg.Resilience.BreakerThreshold > 0 {
		th.br = newBreaker(r.cfg.Resilience)
	}
	m.mu.Lock()
	m.prev = old.shards[m.shard]
	m.mu.Unlock()
	shards[m.shard] = []*backendHealth{th}
	ns := &ringState{epoch: old.epoch + 1, shards: shards}
	r.ring.Store(ns)
	return ns.epoch
}

// distributeRing pushes the post-cutover ring to the nodes: the
// retired shard backends get Serving=false, everyone else (target
// included) Serving=true. Push failures are logged and annotated but
// never fail the migration — the flip is committed, and nodes the
// push misses are healed by the stale-epoch 409 handshake.
func (r *Router) distributeRing(ctx context.Context, m *migration, sp *telemetry.Span) {
	rg := r.Ring()
	push := func(b Backend, serving bool) error {
		rr, ok := b.(RingReceiver)
		if !ok {
			return nil
		}
		ictx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
		return rr.InstallRing(ictx, RingUpdate{Ring: rg, Serving: serving})
	}
	// Retire the moved shard's old backends first: until they hold the
	// new ring, a stale client writing through them would still land on
	// a store nobody reads anymore.
	m.mu.Lock()
	prev := m.prev
	m.mu.Unlock()
	retired := true
	for _, h := range prev {
		if err := push(h.backend, false); err != nil {
			retired = false
			log.Printf("cluster: migration %d: retire %s: %v", m.id, h.backend.Name(), err)
			sp.Event("retire push failed: " + h.backend.Name() + ": " + err.Error())
		}
	}
	m.mu.Lock()
	m.retired = retired
	m.mu.Unlock()
	for _, bs := range r.ring.Load().shards {
		for _, h := range bs {
			if err := push(h.backend, true); err != nil {
				log.Printf("cluster: migration %d: push ring to %s: %v", m.id, h.backend.Name(), err)
				sp.Event("ring push failed: " + h.backend.Name() + ": " + err.Error())
			}
		}
	}
}

// finishMigration records the terminal state, releases the migration
// slot, and appends to the bounded history.
func (r *Router) finishMigration(m *migration, outcome string, err error) {
	m.mu.Lock()
	m.finished = time.Now()
	m.outcome = outcome
	if err != nil {
		m.errMsg = err.Error()
	}
	m.mu.Unlock()
	if outcome == "ok" {
		m.setPhase(MigDone)
		r.migOK.Add(1)
	} else {
		m.setPhase(MigAborted)
		r.migAborted.Add(1)
	}
	r.migMu.Lock()
	r.migHistory = append(r.migHistory, m.status())
	if len(r.migHistory) > migHistoryMax {
		r.migHistory = r.migHistory[len(r.migHistory)-migHistoryMax:]
	}
	r.migMu.Unlock()
	r.mig.Store(nil)
	close(m.done)
}

// ShardLoad is one shard's load observation in a RebalancePlan.
type ShardLoad struct {
	Shard int `json:"shard"`
	// Docs is the live document count (last observed when the shard is
	// unreachable).
	Docs int `json:"docs"`
	// Reads and Writes count the shard's routed operations since the
	// router started — the QPS numerator a dry-run planner weighs.
	Reads    uint64   `json:"reads"`
	Writes   uint64   `json:"writes"`
	Backends []string `json:"backends"`
}

// RebalancePlan is the dry-run planner's output: per-shard load plus
// the move it would make. It never mutates anything.
type RebalancePlan struct {
	Epoch  uint64      `json:"epoch"`
	Shards []ShardLoad `json:"shards"`
	// ProposedShard is the shard the planner would move: the one with
	// the most documents, ties broken by read count.
	ProposedShard int    `json:"proposed_shard"`
	Reason        string `json:"reason"`
}

// Plan reads per-shard document counts and routed-operation counters
// and proposes which shard a rebalance should move.
func (r *Router) Plan(ctx context.Context) RebalancePlan {
	rs := r.ring.Load()
	lens := r.Lens(ctx)
	plan := RebalancePlan{Epoch: rs.epoch}
	best := 0
	for si, bs := range rs.shards {
		names := make([]string, len(bs))
		for i, h := range bs {
			names[i] = h.backend.Name()
		}
		sl := ShardLoad{
			Shard:    si,
			Docs:     lens[si],
			Reads:    r.shardReads[si].Load(),
			Writes:   r.shardWrites[si].Load(),
			Backends: names,
		}
		plan.Shards = append(plan.Shards, sl)
		b := plan.Shards[best]
		if sl.Docs > b.Docs || (sl.Docs == b.Docs && sl.Reads > b.Reads) {
			best = si
		}
	}
	plan.ProposedShard = best
	b := plan.Shards[best]
	plan.Reason = fmt.Sprintf("shard %d carries the most load: %d docs, %d reads, %d writes observed", best, b.Docs, b.Reads, b.Writes)
	return plan
}
