package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/vecdb"
)

// ErrUnavailable reports that no shard has any healthy backend — the
// cluster as a whole cannot serve. The serving layer's admission gate
// checks for this before doing any work, so traffic against a dead
// cluster is shed immediately instead of timing out per request.
var ErrUnavailable = errors.New("cluster: no healthy backends")

// ErrShardUnavailable reports that one shard has no healthy backend.
// Reads degrade around it; writes routed to it fail fast with this
// error rather than waiting out a transport timeout.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ShardBackends names the backends serving one shard: a primary and
// zero or more replicas, tried in order.
type ShardBackends struct {
	Primary  Backend
	Replicas []Backend
}

// Router owns the hash ring over a set of shards, each served by one
// or more Backends. Queries fan out to every shard in parallel and
// merge per-shard top-k; reads fail over from an unhealthy primary to
// its replicas; writes go to every healthy backend of the owning
// shard. Health state comes from the embedded active checker plus
// live-traffic outcomes.
//
// Replication is convergent: a replica that was ejected (or failed a
// write its peers acknowledged) is marked for catch-up and held out
// of reads until the in-band resync manager has streamed it the
// mutations it missed from the most advanced backend's WAL — or a
// full snapshot when that WAL has been truncated past the gap. See
// resync.go and docs/cluster.md for the convergence semantics.
//
// The shard count is fixed for the router's lifetime — it is the
// modulus of the hash ring — but the backend assignment is not: an
// online migration (migrate.go) can move a shard onto a new backend,
// atomically swapping in a new ring under a bumped epoch. Every
// read/write snapshots the ring once, so it sees one consistent
// assignment; a request landing on a node that already moved on
// answers with a typed 409 carrying the new ring, which the router
// adopts on the spot (adoptRing).
type Router struct {
	cfg     HealthConfig
	nshards int
	// ring is the current epoch-versioned shard→backend assignment,
	// swapped wholesale at a migration cutover (or when a stale-epoch
	// 409 carries a newer ring). ringMu serializes the swaps.
	ring    atomic.Pointer[ringState]
	ringMu  sync.Mutex
	checker *checker
	resync  *resyncer
	// ctx parents the resync sweeps and every migration; Close cancels
	// it, so neither outlives the router inside a transfer call.
	ctx    context.Context
	cancel context.CancelFunc

	// wmu is the per-shard write barrier: Apply holds the read side
	// around its backend writes; a migration's cutover holds the write
	// side while it drains to parity and flips the ring, so no write is
	// in flight across the flip and none is missing from the target.
	wmu []sync.RWMutex

	// mig is the single in-flight migration (nil when none); see
	// migrate.go for the rest of the migration state.
	mig        atomic.Pointer[migration]
	migSeq     atomic.Int64
	migMu      sync.Mutex
	migHistory []MigrationStatus
	migOK      atomic.Uint64
	migAborted atomic.Uint64

	failovers       atomic.Uint64
	degradedQueries atomic.Uint64
	shardsSkipped   atomic.Uint64
	writeFailures   atomic.Uint64
	partialWrites   atomic.Uint64
	staleEpochs     atomic.Uint64
	epochAdoptions  atomic.Uint64

	// Per-shard routed-operation counters feeding the rebalance
	// planner's load view (fixed size nshards).
	shardReads  []atomic.Uint64
	shardWrites []atomic.Uint64

	// Resilience-layer counters (see ResilienceConfig); all stay zero
	// when the corresponding feature is disabled.
	hedges           atomic.Uint64
	hedgeWins        atomic.Uint64
	readRetries      atomic.Uint64
	breakerFastFails atomic.Uint64

	// Query-path stage timers, bound at construction from
	// cfg.Telemetry; nil (no-op) without a registry.
	fanoutH *telemetry.Histogram
	mergeH  *telemetry.Histogram
}

// ringState is one immutable shard→backend assignment. Mutations
// build a new ringState and swap the pointer; readers load it once
// per operation and work against that consistent snapshot.
type ringState struct {
	epoch  uint64
	shards [][]*backendHealth // primary first
}

// telemetrySink is implemented by backends that can be instrumented
// (HTTPBackend). NewRouter injects the registry before the health
// checker starts, so backends never see it change mid-flight.
type telemetrySink interface {
	setTelemetry(*telemetry.Registry)
}

// NewRouter builds a router over the given shard set and starts its
// health checker (stopped by Close). The shard count — and therefore
// the hash ring — is fixed for the router's lifetime; the backend
// assignment starts at ring epoch 1 and advances by migration.
func NewRouter(shards []ShardBackends, cfg HealthConfig) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: no shards")
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:         cfg,
		nshards:     len(shards),
		wmu:         make([]sync.RWMutex, len(shards)),
		shardReads:  make([]atomic.Uint64, len(shards)),
		shardWrites: make([]atomic.Uint64, len(shards)),
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	rs := &ringState{epoch: 1, shards: make([][]*backendHealth, len(shards))}
	var all []*backendHealth
	for i, sb := range shards {
		if sb.Primary == nil {
			return nil, fmt.Errorf("cluster: shard %d has no primary backend", i)
		}
		bs := make([]*backendHealth, 0, 1+len(sb.Replicas))
		for _, b := range append([]Backend{sb.Primary}, sb.Replicas...) {
			if b == nil {
				return nil, fmt.Errorf("cluster: shard %d has a nil backend", i)
			}
			h := &backendHealth{backend: b}
			if cfg.Resilience.BreakerThreshold > 0 {
				h.br = newBreaker(cfg.Resilience)
			}
			bs = append(bs, h)
			all = append(all, h)
		}
		rs.shards[i] = bs
	}
	r.ring.Store(rs)
	if cfg.Telemetry != nil {
		const help = "Hot-path stage latency in seconds."
		r.fanoutH = cfg.Telemetry.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "shard_fanout"))
		r.mergeH = cfg.Telemetry.Histogram("stage_duration_seconds", help, nil, telemetry.L("stage", "merge"))
		for _, h := range all {
			if ts, ok := h.backend.(telemetrySink); ok {
				ts.setTelemetry(cfg.Telemetry)
			}
		}
	}
	r.checker = newChecker(cfg, r.allHealth)
	r.resync = newResyncer(r)
	if cfg.Telemetry != nil {
		r.registerMetrics(cfg.Telemetry, all)
	}
	return r, nil
}

// allHealth flattens the current ring's backend set — the health
// checker's probe list, reloaded every round so migrated-in backends
// are probed and retired ones are not.
func (r *Router) allHealth() []*backendHealth {
	rs := r.ring.Load()
	var all []*backendHealth
	for _, bs := range rs.shards {
		all = append(all, bs...)
	}
	return all
}

// Ring renders the current assignment in wire form (backend names per
// shard, primary first).
func (r *Router) Ring() Ring {
	rs := r.ring.Load()
	shards := make([][]string, len(rs.shards))
	for si, bs := range rs.shards {
		names := make([]string, len(bs))
		for i, h := range bs {
			names[i] = h.backend.Name()
		}
		shards[si] = names
	}
	return Ring{Epoch: rs.epoch, Shards: shards}
}

// Epoch reports the current ring epoch.
func (r *Router) Epoch() uint64 { return r.ring.Load().epoch }

// noteStale inspects a backend error for the typed stale-epoch 409
// and self-heals by adopting the newer ring it carries.
func (r *Router) noteStale(sp *telemetry.Span, err error) {
	var se *StaleEpochError
	if !errors.As(err, &se) {
		return
	}
	r.staleEpochs.Add(1)
	if r.adoptRing(se.Ring) {
		sp.Event(fmt.Sprintf("adopted ring epoch %d from stale-epoch 409", se.Ring.Epoch))
	}
}

// adoptRing installs a ring learned from a stale-epoch 409: same
// shard count (the hash ring modulus never changes), strictly newer
// epoch. Backends already in the current ring are reused with their
// health state intact; names the router has never seen become fresh
// HTTP backends. Returns false when the ring is not adoptable.
func (r *Router) adoptRing(rg Ring) bool {
	if rg.Validate() != nil || len(rg.Shards) != r.nshards {
		return false
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	cur := r.ring.Load()
	if rg.Epoch <= cur.epoch {
		return false
	}
	known := make(map[string]*backendHealth)
	for _, bs := range cur.shards {
		for _, h := range bs {
			known[h.backend.Name()] = h
		}
	}
	ns := &ringState{epoch: rg.Epoch, shards: make([][]*backendHealth, r.nshards)}
	for si, names := range rg.Shards {
		bs := make([]*backendHealth, 0, len(names))
		for _, name := range names {
			if h, ok := known[name]; ok {
				bs = append(bs, h)
				continue
			}
			b, err := NewHTTPBackend(name, nil)
			if err != nil {
				return false
			}
			if r.cfg.Telemetry != nil {
				b.setTelemetry(r.cfg.Telemetry)
			}
			h := &backendHealth{backend: b}
			if r.cfg.Resilience.BreakerThreshold > 0 {
				h.br = newBreaker(r.cfg.Resilience)
			}
			bs = append(bs, h)
		}
		ns.shards[si] = bs
	}
	r.ring.Store(ns)
	r.epochAdoptions.Add(1)
	return true
}

// registerMetrics bridges the router's (and its resyncer's and
// breakers') atomic counters into the registry as scrape-time reads,
// so /metrics carries what until now only /stats showed.
func (r *Router) registerMetrics(reg *telemetry.Registry, all []*backendHealth) {
	reg.CounterFunc("router_failovers_total", "Reads served by a non-first backend.", r.failovers.Load)
	reg.CounterFunc("router_degraded_queries_total", "Searches that lost at least one shard.", r.degradedQueries.Load)
	reg.CounterFunc("read_hedges_total", "Hedged shard reads launched after HedgeAfter elapsed.", r.hedges.Load)
	reg.CounterFunc("read_hedge_wins_total", "Hedged reads where the hedge answered first.", r.hedgeWins.Load)
	reg.CounterFunc("read_retries_total", "Extra read rounds taken after a full failover pass failed.", r.readRetries.Load)
	reg.CounterFunc("breaker_fast_fails_total", "Reads skipped because a backend's breaker was open.", r.breakerFastFails.Load)

	reg.CounterFunc("cluster_resyncs_total",
		"Anti-entropy repairs completed (a diverged backend restored to parity).", func() uint64 { return r.resync.resyncs.Load() })
	reg.CounterFunc("cluster_resync_mutations_shipped_total",
		"Mutations streamed to lagging replicas by the resync manager.", func() uint64 { return r.resync.shipped.Load() })
	reg.CounterFunc("cluster_resync_snapshot_fallbacks_total",
		"Resyncs that fell back to a full snapshot because the WAL delta was truncated.", func() uint64 { return r.resync.snapshots.Load() })
	reg.CounterFunc("cluster_resync_errors_total",
		"Resync attempts that failed and will be retried.", func() uint64 { return r.resync.errors.Load() })

	reg.CounterFunc("migrations_total",
		"Shard migrations finished, by outcome.", r.migOK.Load, telemetry.L("outcome", "ok"))
	reg.CounterFunc("migrations_total",
		"Shard migrations finished, by outcome.", r.migAborted.Load, telemetry.L("outcome", "aborted"))
	reg.CounterFunc("stale_epoch_rejections_total",
		"Requests answered with a stale-ring-epoch 409 by a node that moved on.", r.staleEpochs.Load)
	reg.CounterFunc("ring_epoch_adoptions_total",
		"Newer rings adopted from stale-epoch 409 responses.", r.epochAdoptions.Load)
	reg.GaugeFunc("ring_epoch", "Current ring epoch.",
		func() float64 { return float64(r.ring.Load().epoch) })
	for si := 0; si < r.nshards; si++ {
		si := si
		reg.GaugeFunc("migration_phase",
			"Active migration phase for the shard (0 idle, 1 planned, 2 seeding, 3 catchup, 4 cutover).",
			func() float64 {
				if m := r.mig.Load(); m != nil && m.shard == si {
					return float64(m.phase.Load())
				}
				return 0
			}, telemetry.L("shard", strconv.Itoa(si)))
	}

	for _, h := range all {
		if h.br == nil {
			continue
		}
		br, name := h.br, h.backend.Name()
		reg.GaugeFunc("breaker_state",
			"Per-backend circuit state: 0 closed, 1 open, 2 half-open.",
			br.stateValue, telemetry.L("backend", name))
		for _, t := range []struct {
			to string
			v  *atomic.Uint64
		}{{"open", &br.opens}, {"half-open", &br.halfOpens}, {"closed", &br.closes}} {
			reg.CounterFunc("breaker_transitions_total",
				"Circuit breaker state transitions by backend and destination state.",
				t.v.Load, telemetry.L("backend", name), telemetry.L("to", t.to))
		}
	}
}

// Close stops the health checker and the resync manager, and aborts
// any in-flight migration: cancelling the router's context ends
// whatever transfer call the migration is blocked in, and Close
// returns once it has recorded its outcome. Backends own no
// connections beyond their http.Client pools, so there is nothing else
// to release.
func (r *Router) Close() {
	r.cancel()
	if m := r.mig.Load(); m != nil {
		<-m.done
	}
	r.checker.Close()
	<-r.resync.done
}

// Shards reports the shard count (the modulus of the hash ring).
func (r *Router) Shards() int { return r.nshards }

// ShardFor maps a document ID onto its owning shard.
func (r *Router) ShardFor(id int64) int { return ShardIndex(id, r.nshards) }

// ctxFailure reports whether err is the caller's own context giving
// up, which must not count against the backend's health.
func ctxFailure(ctx context.Context, err error) bool {
	return ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// allowRead asks h's breaker (when armed) whether a read should even
// be sent. A denial is a fast-fail: counted, annotated on the current
// span, and the router moves on to the next backend with zero network
// wait. trial is true when the admission took the breaker's half-open
// trial slot — the caller must then resolve the attempt via
// liveSuccess, liveFailure, or (when the outcome says nothing about
// the backend) releaseTrial, or the breaker fast-fails the backend
// until its next state change.
func (r *Router) allowRead(ctx context.Context, h *backendHealth) (ok, trial bool) {
	ok, trial, transition := h.br.allow(time.Now())
	if transition != "" {
		telemetry.SpanFrom(ctx).Event("breaker half-open trial: " + h.backend.Name())
	}
	if !ok {
		r.breakerFastFails.Add(1)
		telemetry.SpanFrom(ctx).Event("breaker open: skipped " + h.backend.Name())
	}
	return ok, trial
}

// releaseTrial returns h's half-open trial slot when this attempt
// held it but finished without a verdict on the backend (the caller's
// own context gave up, or the attempt lost a decided hedge race).
func releaseTrial(h *backendHealth, trial bool) {
	if trial {
		h.br.release()
	}
}

// liveSuccess reports one successful live request to the health state
// machine and the breaker, annotating sp when the breaker closes.
func (r *Router) liveSuccess(sp *telemetry.Span, h *backendHealth) {
	h.reportSuccess(r.cfg)
	if t := h.br.success(); t != "" {
		sp.Event("breaker " + t + ": " + h.backend.Name())
	}
}

// liveFailure reports one failed live request, annotating sp when the
// breaker opens. A stale-epoch 409 additionally hands the router the
// newer ring to adopt.
func (r *Router) liveFailure(sp *telemetry.Span, h *backendHealth, err error) {
	h.reportFailure(r.cfg, err)
	if t := h.br.failure(time.Now()); t != "" {
		sp.Event("breaker " + t + ": " + h.backend.Name())
	}
	r.noteStale(sp, err)
}

// retryWait sleeps the full-jitter backoff before retry round n,
// returning false when the context (or its remaining deadline budget)
// does not cover the wait.
func (r *Router) retryWait(ctx context.Context, round int) bool {
	d := jitteredBackoff(retryBaseDelay, round)
	if d == 0 {
		return ctx.Err() == nil
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt is one backend's answer to a shard read.
type attempt[T any] struct {
	h     *backendHealth
	hedge bool
	v     T
	err   error
}

// readShard is the one path every shard read takes: read is asked of
// shard si's backends, each attempt traced as a span named span.
// Ejected backends are skipped without any network wait — that is the
// early shedding the health checker buys — and breaker-open backends
// fast-fail the same way. Each round reloads the ring, so a cutover
// mid-retry reaches the shard's new owner, and races the serving
// backends in ring order: the first one its breaker admits is asked at
// once, and an error fails over to the next at once. With hedging armed
// (HedgeAfter > 0, a second serving backend, and at least 2×HedgeAfter
// of deadline left) the next one is also asked once HedgeAfter passes
// without an answer. The first success wins, and so does a
// vecdb.ErrNotFound, which is authoritative; the losers are cancelled
// with no health penalty. Breaker admission happens only as an attempt
// launches, so a half-open trial slot is never taken by a backend the
// race does not ask. A round that fails on every backend is retried,
// up to RetryReads times, after a full-jitter backoff: the read is
// idempotent, so it can safely run twice.
func readShard[T any](ctx context.Context, r *Router, si int, span string, read func(context.Context, Backend) (T, error)) (T, error) {
	res := r.cfg.Resilience
	var (
		zero    T
		lastErr error
		first   *backendHealth // the first backend asked, in any round
	)
	for round := 0; round <= res.RetryReads; round++ {
		if round > 0 {
			if !r.retryWait(ctx, round) {
				break
			}
			r.readRetries.Add(1)
			telemetry.SpanFrom(ctx).Event(fmt.Sprintf("retry %s shard=%d round=%d", span, si, round))
		}
		rs := r.ring.Load()
		bs := rs.shards[si]
		rctx, cancel := context.WithCancel(withRingEpoch(ctx, rs.epoch))
		results := make(chan attempt[T], len(bs))
		next, inFlight := 0, 0
		// launch asks the next serving backend its breaker admits.
		launch := func(hedge bool) {
			for next < len(bs) {
				h := bs[next]
				next++
				if !h.serving() {
					continue
				}
				allowed, trial := r.allowRead(ctx, h)
				if !allowed {
					continue
				}
				if first == nil {
					first = h
				}
				if hedge {
					r.hedges.Add(1)
					telemetry.SpanFrom(ctx).Event("hedge launched: " + h.backend.Name())
				}
				inFlight++
				go func() {
					actx, sp := telemetry.StartSpan(rctx, span)
					sp.Annotate("backend", h.backend.Name())
					sp.Annotate("shard", strconv.Itoa(si))
					if hedge {
						sp.Annotate("hedge", "true")
					}
					v, err := read(actx, h.backend)
					sp.End(err)
					switch {
					case err == nil || errors.Is(err, vecdb.ErrNotFound):
						// An authoritative miss is a healthy backend
						// answering correctly: it resets the failure streak.
						r.liveSuccess(sp, h)
					case ctxFailure(rctx, err):
						// The loser of a decided race, or a caller that gave
						// up: not the backend's fault, so no health penalty —
						// but a held half-open trial slot goes back.
						releaseTrial(h, trial)
					default:
						r.liveFailure(sp, h, err)
					}
					results <- attempt[T]{h: h, hedge: hedge, v: v, err: err}
				}()
				return
			}
		}
		launch(false)

		// A request about to run out of budget gets no hedge: doubling the
		// load cannot help a reply that would arrive after the deadline.
		var (
			timer  *time.Timer
			hedgeC <-chan time.Time
		)
		if res.HedgeAfter > 0 && inFlight > 0 && servingAfter(bs[next:]) {
			if dl, ok := ctx.Deadline(); !ok || time.Until(dl) >= 2*res.HedgeAfter {
				timer = time.NewTimer(res.HedgeAfter)
				hedgeC = timer.C
			}
		}
		var won attempt[T]
		decided := false
		for inFlight > 0 && !decided {
			select {
			case <-hedgeC:
				hedgeC = nil
				launch(true)
			case a := <-results:
				inFlight--
				if a.err == nil || errors.Is(a.err, vecdb.ErrNotFound) || ctxFailure(ctx, a.err) {
					won, decided = a, true
				} else {
					lastErr = a.err
					launch(false)
				}
			}
		}
		cancel()
		if timer != nil {
			timer.Stop()
		}
		if !decided {
			continue
		}
		if ctxFailure(ctx, won.err) {
			return zero, won.err
		}
		if won.h != first {
			r.failovers.Add(1)
		}
		if won.hedge {
			r.hedgeWins.Add(1)
			telemetry.SpanFrom(ctx).Event("hedge won: " + won.h.backend.Name())
		}
		return won.v, won.err
	}
	if lastErr != nil {
		return zero, lastErr
	}
	return zero, fmt.Errorf("%w: shard %d", ErrShardUnavailable, si)
}

// servingAfter reports whether any of bs is serving: whether a hedge
// would have a backend to ask.
func servingAfter(bs []*backendHealth) bool {
	for _, h := range bs {
		if h.serving() {
			return true
		}
	}
	return false
}

// SearchVector fans an embedded query out to every shard in parallel
// and merges the per-shard top-k. A non-zero filter is pushed down to
// every shard, so each per-shard top-k already contains only matching
// docs and the merge is exact. Shards with no reachable backend
// are skipped — the query degrades to the surviving shards — and only
// a fully unreachable cluster errors with ErrUnavailable. The fan-out
// runs one worker per shard regardless of core count: remote shards
// are I/O-bound, so the requests must all be in flight at once.
func (r *Router) SearchVector(ctx context.Context, vec []float32, k int, f vecdb.Filter) ([]vecdb.Hit, error) {
	n := r.nshards
	lists := make([][]vecdb.Hit, n)
	errs := make([]error, n)
	fctx, fsp := telemetry.StartSpan(ctx, "shard_fanout")
	fsp.Annotate("shards", strconv.Itoa(n))
	fanoutStart := time.Now()
	search := func(ctx context.Context, b Backend) ([]vecdb.Hit, error) {
		return b.SearchVector(ctx, vec, k, f)
	}
	parallel.ForWorkers(n, n, func(i int) {
		r.shardReads[i].Add(1)
		lists[i], errs[i] = readShard(fctx, r, i, "shard_read", search)
	})
	r.fanoutH.ObserveSinceCtx(ctx, fanoutStart)
	fsp.End(nil)
	failed := 0
	for _, err := range errs {
		if err != nil {
			if ctxFailure(ctx, err) {
				return nil, err
			}
			failed++
		}
	}
	if failed == n {
		return nil, fmt.Errorf("%w: all %d shards failed: %v", ErrUnavailable, n, errors.Join(errs...))
	}
	if failed > 0 {
		r.degradedQueries.Add(1)
		r.shardsSkipped.Add(uint64(failed))
	}
	mergeStart := time.Now()
	hits := MergeTopK(lists, k)
	r.mergeH.ObserveSince(mergeStart)
	return hits, nil
}

// Apply executes a mutation batch that all routes to shard si,
// writing to every healthy backend of that shard (primary and
// replicas). It succeeds when at least one backend applied the batch;
// a shard with no healthy backend fails fast with
// ErrShardUnavailable. A vecdb.ErrNotFound (deleting an absent ID) is
// an authoritative answer, not a node failure, and carries no health
// penalty.
//
// The whole write runs under the shard's write-barrier read lock:
// uncontended it costs an atomic, but during a migration cutover it
// guarantees no batch is in flight while the orchestrator drains to
// parity and flips the ring — so every write lands entirely before the
// flip, where the drain carries it to the target, or entirely after it.
func (r *Router) Apply(ctx context.Context, si int, ms []vecdb.Mutation) error {
	if si < 0 || si >= r.nshards {
		return fmt.Errorf("cluster: shard %d out of range [0,%d)", si, r.nshards)
	}
	r.wmu[si].RLock()
	defer r.wmu[si].RUnlock()
	r.shardWrites[si].Add(1)
	rs := r.ring.Load()
	ctx = withRingEpoch(ctx, rs.epoch)
	var (
		ok       int
		notFound error
		lastErr  error
		failed   []*backendHealth
	)
	for _, h := range rs.shards[si] {
		if !h.serving() {
			continue
		}
		err := h.backend.Apply(ctx, ms)
		switch {
		case err == nil:
			ok++
			h.reportSuccess(r.cfg)
		case errors.Is(err, vecdb.ErrNotFound):
			notFound = err
		case ctxFailure(ctx, err):
			return err
		default:
			h.reportFailure(r.cfg, err)
			r.noteStale(telemetry.SpanFrom(ctx), err)
			r.writeFailures.Add(1)
			failed = append(failed, h)
			lastErr = err
		}
	}
	switch {
	case ok > 0:
		// The batch is durable on at least one backend; a backend that
		// failed it has diverged — count the partial write, hold the
		// diverged backend out of service, and nudge the resync manager
		// to repair it.
		if lastErr != nil {
			r.partialWrites.Add(1)
			for _, h := range failed {
				h.markResync()
			}
			r.resync.nudge()
		}
		return nil
	case notFound != nil:
		return notFound
	case lastErr != nil:
		return lastErr
	}
	return fmt.Errorf("%w: shard %d", ErrShardUnavailable, si)
}

// Get fetches one document from its owning shard through the same
// read path as a search: failover, hedging and retry rounds (a point
// read is idempotent). A vecdb.ErrNotFound from a live backend is
// authoritative and returned at once.
func (r *Router) Get(ctx context.Context, id int64) (vecdb.Document, error) {
	si := r.ShardFor(id)
	r.shardReads[si].Add(1)
	return readShard(ctx, r, si, "shard_get", func(ctx context.Context, b Backend) (vecdb.Document, error) {
		return b.Get(ctx, id)
	})
}

// statShard returns the freshest ShardStat for shard si: a live call
// to the first healthy backend, falling back to the checker's cached
// observation.
func (r *Router) statShard(ctx context.Context, si int) (ShardStat, bool) {
	rs := r.ring.Load()
	ctx = withRingEpoch(ctx, rs.epoch)
	for _, h := range rs.shards[si] {
		if !h.serving() {
			continue
		}
		if st, err := h.backend.Stat(ctx); err == nil {
			h.setStat(st)
			return st, true
		}
	}
	for _, h := range rs.shards[si] {
		h.mu.Lock()
		st, valid := h.stat, h.statValid
		h.mu.Unlock()
		if valid {
			return st, true
		}
	}
	return ShardStat{}, false
}

// Lens reports per-shard document counts (live where a backend
// answers, last-observed otherwise; zero for shards never reached).
func (r *Router) Lens(ctx context.Context) []int {
	lens := make([]int, r.nshards)
	parallel.ForWorkers(r.nshards, r.nshards, func(i int) {
		if st, ok := r.statShard(ctx, i); ok {
			lens[i] = st.Len
		}
	})
	return lens
}

// CollectionCounts merges per-collection document counts across all
// reachable shards (a shard with no answering backend contributes
// nothing, mirroring Lens' degradation).
func (r *Router) CollectionCounts(ctx context.Context) map[string]int {
	per := make([]map[string]int, r.nshards)
	parallel.ForWorkers(r.nshards, r.nshards, func(i int) {
		if st, ok := r.statShard(ctx, i); ok {
			per[i] = st.Collections
		}
	})
	out := map[string]int{}
	for _, m := range per {
		for c, n := range m {
			out[c] += n
		}
	}
	return out
}

// Len sums the per-shard document counts.
func (r *Router) Len(ctx context.Context) int {
	n := 0
	for _, l := range r.Lens(ctx) {
		n += l
	}
	return n
}

// MaxNextID reports the highest next-ID across all shards, for
// restoring a router-level ID allocator on boot. It errors if any
// shard is unreachable: allocating IDs below a dead shard's
// high-water mark would collide when that shard returns.
func (r *Router) MaxNextID(ctx context.Context) (int64, error) {
	var next int64 = 1
	for si := 0; si < r.nshards; si++ {
		st, ok := r.statShard(ctx, si)
		if !ok {
			return 0, fmt.Errorf("%w: shard %d unreachable, cannot restore ID allocator", ErrShardUnavailable, si)
		}
		if st.NextID > next {
			next = st.NextID
		}
	}
	return next, nil
}

// Available reports whether the cluster can serve anything at all:
// nil when at least one shard has a healthy backend, ErrUnavailable
// otherwise. The serving layer's admission gate calls this on every
// request, so a fully dead cluster sheds in microseconds.
func (r *Router) Available() error {
	for _, bs := range r.ring.Load().shards {
		for _, h := range bs {
			if h.serving() {
				return nil
			}
		}
	}
	return ErrUnavailable
}

// BackendHealth is one backend's health state as exposed in /stats.
type BackendHealth struct {
	Name                string `json:"name"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	// TotalFailures counts every failed probe or live request against
	// this backend since the router started — the per-node failure
	// ledger bulk and streamed ingest batches report into.
	TotalFailures uint64 `json:"total_failures"`
	Docs          int    `json:"docs"`
	// Seq is the backend's last observed mutation sequence number;
	// comparing it across a shard's backends shows who lags.
	Seq uint64 `json:"seq"`
	// NeedsResync reports that the backend is held out of reads until
	// the resync manager restores seq/checksum parity with its peers.
	NeedsResync bool   `json:"needs_resync,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// Breaker is the request-level circuit state (closed / open /
	// half-open); empty when breakers are disabled.
	Breaker string `json:"breaker,omitempty"`
}

// ShardHealth is one shard's health as exposed in /stats: Alive is
// true when any backend is serving, Docs is the last-observed
// document count.
type ShardHealth struct {
	Shard    int             `json:"shard"`
	Alive    bool            `json:"alive"`
	Docs     int             `json:"docs"`
	Backends []BackendHealth `json:"backends"`
}

// Health snapshots per-shard, per-backend health for /stats.
func (r *Router) Health() []ShardHealth {
	rs := r.ring.Load()
	out := make([]ShardHealth, len(rs.shards))
	for si, bs := range rs.shards {
		sh := ShardHealth{Shard: si}
		for _, h := range bs {
			b := h.snapshot()
			sh.Backends = append(sh.Backends, b)
			if b.State == StateHealthy.String() {
				sh.Alive = true
			}
			if b.Docs > sh.Docs {
				sh.Docs = b.Docs
			}
		}
		out[si] = sh
	}
	return out
}

// RouterStats counts fan-out outcomes since the router started.
type RouterStats struct {
	// Failovers counts reads served by a non-first backend.
	Failovers uint64 `json:"failovers"`
	// DegradedQueries counts searches that lost at least one shard.
	DegradedQueries uint64 `json:"degraded_queries"`
	// ShardsSkipped counts shard results missing from those degraded
	// searches (one query losing two shards counts two).
	ShardsSkipped uint64 `json:"shards_skipped"`
	// WriteFailures counts mutation batches that failed on an
	// individual backend (each failure is also charged to that
	// backend's TotalFailures).
	WriteFailures uint64 `json:"write_failures"`
	// PartialWrites counts batches acknowledged by at least one backend
	// of a shard while another healthy backend failed them — replicas
	// that diverged and need resync.
	PartialWrites uint64 `json:"partial_writes"`
	// Hedges counts duplicate reads launched after HedgeAfter elapsed;
	// HedgeWins counts the races the hedge won.
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// ReadRetries counts extra read rounds taken after a failed pass.
	ReadRetries uint64 `json:"read_retries"`
	// BreakerFastFails counts reads skipped at an open breaker.
	BreakerFastFails uint64 `json:"breaker_fast_fails"`
	// RingEpoch is the current assignment version; it starts at 1 and
	// bumps on every migration cutover (or adopted ring).
	RingEpoch uint64 `json:"ring_epoch"`
	// StaleEpochs counts requests a node rejected with a stale-ring
	// 409; EpochAdoptions counts the newer rings adopted from them.
	StaleEpochs    uint64 `json:"stale_epochs"`
	EpochAdoptions uint64 `json:"epoch_adoptions"`
}

// Stats reports the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Failovers:        r.failovers.Load(),
		DegradedQueries:  r.degradedQueries.Load(),
		ShardsSkipped:    r.shardsSkipped.Load(),
		WriteFailures:    r.writeFailures.Load(),
		PartialWrites:    r.partialWrites.Load(),
		Hedges:           r.hedges.Load(),
		HedgeWins:        r.hedgeWins.Load(),
		ReadRetries:      r.readRetries.Load(),
		BreakerFastFails: r.breakerFastFails.Load(),
		RingEpoch:        r.ring.Load().epoch,
		StaleEpochs:      r.staleEpochs.Load(),
		EpochAdoptions:   r.epochAdoptions.Load(),
	}
}
