package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ResilienceConfig tunes the request-level tail-latency layer: circuit
// breakers, read retries, and hedged reads. The zero value disables
// all three — existing routers behave exactly as before — and each
// feature is enabled independently by its own field. All three act on
// the router's one read path (readShard), for searches and point reads
// alike:
//
//   - BreakerThreshold > 0 arms a per-backend circuit breaker fed by
//     live-traffic outcomes (probes stay the health checker's job).
//     Unlike health ejection — which takes seconds of probe evidence —
//     the breaker trips on the spot after a burst of request failures
//     and fast-fails around the backend until a cooldown trial passes.
//   - RetryReads > 0 grants idempotent reads (search, get) that many
//     extra rounds over the shard's backends, each after a full-jitter
//     backoff of base 2ms; a round is the whole race, hedge included.
//     Writes are never retried here: Apply has its own partial-write +
//     resync semantics.
//   - HedgeAfter > 0 launches a duplicate read to the next replica
//     when the first attempt has not answered within that delay; the
//     first success wins and the loser is cancelled. Hedging engages
//     only when at least 2×HedgeAfter of the deadline remains, so a
//     request about to expire is not doubled for nothing.
type ResilienceConfig struct {
	// BreakerThreshold is the consecutive live-request failure count
	// that opens a backend's breaker (0 disables breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fast-fails before
	// admitting one half-open trial request (default 2s).
	BreakerCooldown time.Duration
	// RetryReads is the number of extra read rounds after the first
	// pass over a shard's backends fails (0 disables retries).
	RetryReads int
	// HedgeAfter is the delay before a read is hedged to the next
	// replica (0 disables hedging).
	HedgeAfter time.Duration
}

// retryBaseDelay scales the full-jitter backoff before retry round n:
// a uniform draw from [0, retryBaseDelay·2ⁿ⁻¹].
const retryBaseDelay = 2 * time.Millisecond

func (c ResilienceConfig) withDefaults() ResilienceConfig {
	if c.BreakerThreshold > 0 && c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	return c
}

// breakerState is the request-level circuit state:
//
//	closed --[BreakerThreshold consecutive failures]--> open
//	open --[BreakerCooldown elapsed]--> half-open (one trial admitted)
//	half-open --[trial succeeds]--> closed
//	half-open --[trial fails]--> open
//
// This complements the health checker's ejection state machine: the
// checker reacts to probe evidence over seconds and controls resync
// holds; the breaker reacts to live-request failures within
// milliseconds and only controls whether the router bothers sending
// the next request.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is one backend's circuit. A nil breaker admits everything
// and records nothing, which is how a zero ResilienceConfig costs the
// hot path a single nil check.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu         sync.Mutex
	state      breakerState
	consecFail int
	openedAt   time.Time
	trialBusy  bool // half-open: one probe request at a time

	opens     atomic.Uint64 // transitions to open
	halfOpens atomic.Uint64 // transitions to half-open
	closes    atomic.Uint64 // transitions to closed
	fastFails atomic.Uint64 // requests denied while open/half-open
}

func newBreaker(cfg ResilienceConfig) *breaker {
	return &breaker{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown}
}

// allow reports whether a request may proceed, transitioning an open
// breaker to half-open once the cooldown has elapsed. trial is true
// when this admission took the single half-open trial slot — the
// caller then owns the slot and must resolve it with success(),
// failure(), or release(); leaking it would fast-fail the backend
// until the next state change. transition is the state newly entered
// ("" when none) so the caller can emit the span annotation.
func (b *breaker) allow(now time.Time) (ok, trial bool, transition string) {
	if b == nil {
		return true, false, ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false, ""
	case breakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.fastFails.Add(1)
			return false, false, ""
		}
		b.state = breakerHalfOpen
		b.halfOpens.Add(1)
		b.trialBusy = true
		return true, true, "half-open"
	default: // half-open
		if b.trialBusy {
			b.fastFails.Add(1)
			return false, false, ""
		}
		b.trialBusy = true
		return true, true, ""
	}
}

// release hands back a half-open trial slot whose attempt's outcome
// says nothing about the backend — the caller's context gave up, or a
// hedge race was decided elsewhere. The state stays half-open so the
// next allow admits a fresh trial instead of fast-failing forever. A
// no-op unless the breaker is still half-open: success() and
// failure() already clear the slot on their transitions.
func (b *breaker) release() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.state == breakerHalfOpen {
		b.trialBusy = false
	}
	b.mu.Unlock()
}

// success records one completed request, closing a half-open breaker.
func (b *breaker) success() (transition string) {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFail = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		b.trialBusy = false
		b.closes.Add(1)
		return "closed"
	}
	return ""
}

// failure records one failed request, opening the breaker when the
// threshold is reached (or immediately for a failed half-open trial).
func (b *breaker) failure(now time.Time) (transition string) {
	if b == nil {
		return ""
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFail++
	switch b.state {
	case breakerClosed:
		if b.consecFail >= b.threshold {
			b.state = breakerOpen
			b.openedAt = now
			b.opens.Add(1)
			return "open"
		}
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		b.trialBusy = false
		b.opens.Add(1)
		return "open"
	}
	return ""
}

// stateValue renders the state as a gauge: 0 closed, 1 open, 2
// half-open.
func (b *breaker) stateValue() float64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return 1
	case breakerHalfOpen:
		return 2
	}
	return 0
}

// jitteredBackoff returns the full-jitter delay before retry round n
// (n ≥ 1): uniform in [0, base·2ⁿ⁻¹].
func jitteredBackoff(base time.Duration, round int) time.Duration {
	max := int64(base) << uint(round-1)
	if max <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(max + 1))
}
