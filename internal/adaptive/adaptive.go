// Package adaptive implements the AIMD batch-tuning controller of the
// streaming ingest pipeline (internal/ingest; internal/serve owns the
// instance every stream shares). Instead of pinning a static
// MaxBatch/MaxWait, the controller moves a (batch limit, linger wait)
// pair inside configured bounds from two observed signals: how full
// dispatched batches run (occupancy) and whether work is queued behind
// the assembler (queue depth) — the same fields GET /stats exposes.
//
// The control law is classic AIMD:
//
//   - a batch that fills its limit before the linger timer, or flushes
//     with more work already queued, is evidence of pressure: the limit
//     grows additively (amortizing per-dispatch overhead over more
//     items);
//   - a batch flushed by the timer while mostly empty is evidence of
//     sparse traffic: the limit halves and the linger wait shrinks, so
//     a lone request stops paying latency waiting for company that is
//     not coming;
//   - a batch flushed by the timer at decent occupancy nudges the wait
//     up additively — a slightly longer linger would have filled it.
//
// Additive increase reacts within a handful of dispatches (batches are
// millisecond-scale), multiplicative decrease gives bursts back their
// latency as soon as they end.
package adaptive

import (
	"sync"
	"time"
)

// Config bounds the controller. Zero values take the documented
// defaults.
type Config struct {
	// MinBatch / MaxBatch clamp the batch limit (defaults 1 and 16).
	MinBatch int
	MaxBatch int
	// MinWait / MaxWait clamp the linger wait (defaults 200µs and 2ms).
	MinWait time.Duration
	MaxWait time.Duration
	// Static pins the controller at (MaxBatch, MaxWait) — the pre-AIMD
	// behaviour, kept for A/B benchmarks and operators who want fixed
	// knobs.
	Static bool
	// IncreaseStep is the additive limit increment under pressure
	// (default max(1, MaxBatch/8)).
	IncreaseStep int
	// LowOccupancy is the fill fraction below which a timer flush
	// triggers multiplicative decrease (default 0.5).
	LowOccupancy float64
}

func (c Config) withDefaults() Config {
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.MinWait <= 0 {
		c.MinWait = 200 * time.Microsecond
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.MaxWait < c.MinWait {
		c.MaxWait = c.MinWait
	}
	if c.IncreaseStep <= 0 {
		c.IncreaseStep = c.MaxBatch / 8
		if c.IncreaseStep < 1 {
			c.IncreaseStep = 1
		}
	}
	if c.LowOccupancy <= 0 || c.LowOccupancy >= 1 {
		c.LowOccupancy = 0.5
	}
	return c
}

// Controller is the shared AIMD state. All methods are safe for
// concurrent use; Limits/Observe are a few atomic-scale mutex ops, far
// below the cost of the dispatches they tune.
type Controller struct {
	cfg Config

	mu    sync.Mutex
	limit int
	wait  time.Duration

	grows   uint64
	shrinks uint64
}

// New builds a controller. An adaptive controller starts at
// (MinBatch, MinWait) — light traffic pays minimal latency from the
// first request, and bursts grow the limit within a few dispatches. A
// Static controller starts and stays at (MaxBatch, MaxWait).
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, limit: cfg.MinBatch, wait: cfg.MinWait}
	if cfg.Static {
		c.limit, c.wait = cfg.MaxBatch, cfg.MaxWait
	}
	return c
}

// Static reports whether the controller is pinned.
func (c *Controller) Static() bool { return c.cfg.Static }

// Limits returns the current (batch limit, linger wait) pair a
// collector should use for its next batch.
func (c *Controller) Limits() (limit int, wait time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.limit, c.wait
}

// Observe feeds one dispatch back into the controller: n items were
// flushed, full reports whether the batch hit its limit before the
// linger timer, and queued is the backlog visible behind the
// assembler at flush time.
func (c *Controller) Observe(n int, full bool, queued int) {
	if c.cfg.Static || n <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case queued > 0 || (full && c.limit > 1):
		// Pressure: more work wanted in than the limit allowed. A full
		// batch at limit 1 is vacuous (any lone request fills it), so
		// growth from the floor needs a real backlog behind the assembler.
		if c.limit < c.cfg.MaxBatch {
			c.limit += c.cfg.IncreaseStep
			if c.limit > c.cfg.MaxBatch {
				c.limit = c.cfg.MaxBatch
			}
			c.grows++
		}
	case full:
		// Limit 1, no backlog: lone requests arriving one at a time —
		// nothing to tune.
	// Inclusive comparison so the floor stays reachable: at limit 2,
	// a lone item is exactly LowOccupancy and must still shrink.
	case float64(n) <= c.cfg.LowOccupancy*float64(c.limit):
		// Timer flush, mostly empty: traffic is sparse, stop waiting.
		if c.limit > c.cfg.MinBatch || c.wait > c.cfg.MinWait {
			c.shrinks++
		}
		c.limit /= 2
		if c.limit < c.cfg.MinBatch {
			c.limit = c.cfg.MinBatch
		}
		c.wait /= 2
		if c.wait < c.cfg.MinWait {
			c.wait = c.cfg.MinWait
		}
	default:
		// Timer flush at decent occupancy: a slightly longer linger
		// would have filled the batch.
		if c.wait < c.cfg.MaxWait {
			c.wait += c.cfg.MaxWait / 8
			if c.wait > c.cfg.MaxWait {
				c.wait = c.cfg.MaxWait
			}
		}
	}
}

// Stats is the controller's /stats section.
type Stats struct {
	// Adaptive is false when the controller is pinned Static.
	Adaptive bool `json:"adaptive"`
	// Limit / WaitMicros are the current operating point.
	Limit      int   `json:"limit"`
	WaitMicros int64 `json:"wait_micros"`
	// Grows / Shrinks count additive increases and multiplicative
	// decreases since start.
	Grows   uint64 `json:"grows"`
	Shrinks uint64 `json:"shrinks"`
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Adaptive:   !c.cfg.Static,
		Limit:      c.limit,
		WaitMicros: c.wait.Microseconds(),
		Grows:      c.grows,
		Shrinks:    c.shrinks,
	}
}
