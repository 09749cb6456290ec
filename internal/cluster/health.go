package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is one backend's position in the health state machine:
//
//	healthy --[FailThreshold consecutive failures]--> ejected
//	ejected --[one successful probe]--> half-open
//	half-open --[RecoverThreshold consecutive successes]--> healthy
//	half-open --[any failure]--> ejected
//
// Failures come from both the active prober and live-traffic errors
// reported by the router; successes for an ejected/half-open backend
// come only from probes, because the router sends live traffic only
// to healthy backends.
type State int32

const (
	StateHealthy State = iota
	StateEjected
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateEjected:
		return "ejected"
	case StateHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// HealthConfig tunes the active checker. Zero values take the
// documented defaults.
type HealthConfig struct {
	// Interval is the probe period (default 1s).
	Interval time.Duration
	// Timeout bounds one probe (default 2s).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that ejects a
	// backend (default 3).
	FailThreshold int
	// RecoverThreshold is the consecutive-success count that returns a
	// half-open backend to service (default 2).
	RecoverThreshold int
	// ResyncInterval is the anti-entropy sweep period — how often the
	// router compares seq/checksum across each shard's backends and
	// repairs laggards (default: the probe Interval; negative disables
	// background sweeps, leaving ResyncNow as the only trigger).
	ResyncInterval time.Duration
	// ResyncBatch is the number of mutations applied per catch-up RPC
	// (default 256). The delta is fetched from the source's WAL in one
	// scan and chunked by this for the apply legs.
	ResyncBatch int
	// Telemetry, when non-nil, receives the router's fan-out/merge
	// stage timings and per-backend RPC metrics. It must be set before
	// NewRouter so backends are instrumented before the first probe.
	Telemetry *telemetry.Registry
	// Resilience tunes the request-level tail-latency layer (circuit
	// breakers, read retries, hedged reads). The zero value disables
	// all three; see ResilienceConfig.
	Resilience ResilienceConfig
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RecoverThreshold <= 0 {
		c.RecoverThreshold = 2
	}
	if c.ResyncInterval == 0 {
		c.ResyncInterval = c.Interval
	}
	if c.ResyncBatch <= 0 {
		c.ResyncBatch = 256
	}
	c.Resilience = c.Resilience.withDefaults()
	return c
}

// backendHealth is the per-backend state machine plus the last
// observed ShardStat (for per-shard doc counts in /stats). Backends
// start healthy so a fresh cluster serves before its first probe
// round completes.
type backendHealth struct {
	backend Backend
	// br is the request-level circuit breaker, nil when
	// ResilienceConfig leaves breakers disabled. It is fed only by
	// live-traffic outcomes — probes stay the health state machine's
	// evidence — and only gates reads: skipping a write would fork the
	// replica, which is the resync manager's problem to avoid, not
	// cause.
	br *breaker

	mu         sync.Mutex
	state      State
	consecFail int
	consecOK   int
	totalFail  uint64
	lastErr    string
	stat       ShardStat
	statValid  bool
	// needsResync holds a recovering backend in half-open — probes may
	// succeed, but the backend missed writes and must not serve reads
	// until the resync manager has verified (or restored) seq parity
	// with its peers. Set on ejection and on partial writes; cleared
	// only by clearResync.
	needsResync bool
}

// serving reports whether the backend should receive live traffic.
func (h *backendHealth) serving() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state == StateHealthy
}

// reportFailure records one failed probe or live request, ejecting
// the backend when the consecutive-failure threshold is reached.
func (h *backendHealth) reportFailure(cfg HealthConfig, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFail++
	h.totalFail++
	h.consecOK = 0
	if err != nil {
		h.lastErr = err.Error()
	}
	switch h.state {
	case StateHealthy:
		if h.consecFail >= cfg.FailThreshold {
			// An ejected backend has (presumably) missed writes: hold it
			// out of service after recovery until the resync manager
			// verifies it against its peers. If nothing was written while
			// it was away, the next anti-entropy sweep clears the hold at
			// seq parity without shipping anything.
			h.state = StateEjected
			h.needsResync = true
		}
	case StateHalfOpen:
		h.state = StateEjected
		h.needsResync = true
	}
}

// reportSuccess records one successful probe or live request, walking
// an ejected backend through half-open back to healthy. A backend
// held by needsResync saturates in half-open: probes alone cannot
// re-admit it to reads — only the resync manager's clearResync, which
// first proves the backend converged with its peers.
func (h *backendHealth) reportSuccess(cfg HealthConfig) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.consecFail = 0
	h.lastErr = ""
	switch h.state {
	case StateEjected:
		h.state = StateHalfOpen
		h.consecOK = 1
	case StateHalfOpen:
		h.consecOK++
		if h.consecOK >= cfg.RecoverThreshold && !h.needsResync {
			h.state = StateHealthy
			h.consecOK = 0
		}
	}
}

// markResync flags the backend as diverged: it missed a write its
// shard peers acknowledged. A healthy backend is demoted to half-open
// on the spot — serving reads from a store known to be missing data
// is worse than losing a replica for the second or two catch-up
// takes, and taking further live writes would interleave local seq
// numbering with the resync stream.
func (h *backendHealth) markResync() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.needsResync = true
	if h.state == StateHealthy {
		h.state = StateHalfOpen
		h.consecOK = 0
	}
}

// clearResync releases the resync hold after the manager verified seq
// and checksum parity, promoting a backend whose probes already
// cleared the recovery threshold.
func (h *backendHealth) clearResync(cfg HealthConfig) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.needsResync = false
	if h.state == StateHalfOpen && h.consecOK >= cfg.RecoverThreshold {
		h.state = StateHealthy
		h.consecOK = 0
	}
}

// resyncNeeded reports whether the backend is held for catch-up.
func (h *backendHealth) resyncNeeded() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.needsResync
}

func (h *backendHealth) setStat(st ShardStat) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stat, h.statValid = st, true
}

// snapshot returns the state for /stats.
func (h *backendHealth) snapshot() BackendHealth {
	var brState string
	if h.br != nil {
		switch h.br.stateValue() {
		case 1:
			brState = "open"
		case 2:
			brState = "half-open"
		default:
			brState = "closed"
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return BackendHealth{
		Breaker:             brState,
		Name:                h.backend.Name(),
		State:               h.state.String(),
		ConsecutiveFailures: h.consecFail,
		TotalFailures:       h.totalFail,
		Docs:                h.stat.Len,
		Seq:                 h.stat.Seq,
		NeedsResync:         h.needsResync,
		LastError:           h.lastErr,
	}
}

// checker actively probes every backend of every shard each Interval,
// feeding the per-backend state machines. A successful probe also
// refreshes the backend's ShardStat, so /stats carries per-shard doc
// counts without a fan-out per scrape. The probe list is a provider,
// not a fixed slice: a migration can swap the ring between rounds,
// and the checker must probe whoever serves now.
type checker struct {
	cfg      HealthConfig
	backends func() []*backendHealth
	stop     chan struct{}
	done     chan struct{}
}

func newChecker(cfg HealthConfig, backends func() []*backendHealth) *checker {
	c := &checker{
		cfg:      cfg,
		backends: backends,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

func (c *checker) run() {
	defer close(c.done)
	// Probe immediately on start so stats (and ejections of nodes that
	// are already down) don't wait a full interval.
	c.probeAll()
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *checker) probeAll() {
	var wg sync.WaitGroup
	for _, h := range c.backends() {
		wg.Add(1)
		go func(h *backendHealth) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.Timeout)
			defer cancel()
			if err := h.backend.Probe(ctx); err != nil {
				h.reportFailure(c.cfg, err)
				return
			}
			h.reportSuccess(c.cfg)
			if st, err := h.backend.Stat(ctx); err == nil {
				h.setStat(st)
			}
		}(h)
	}
	wg.Wait()
}

func (c *checker) Close() {
	close(c.stop)
	<-c.done
}
