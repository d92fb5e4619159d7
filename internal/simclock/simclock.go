// Package simclock provides a deterministic virtual clock used by every
// simulated device in this repository.
//
// The paper's evaluation runs on an NVRAM emulation board whose write
// latency is dialed in hardware. We have no such hardware, so instead of
// sleeping, every simulated component *charges* its latency to a shared
// Clock. Throughput numbers are then computed from virtual time, which
// makes every experiment exactly reproducible.
package simclock

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is
// ready to use and starts at time zero. All methods are safe for
// concurrent use; the counter is a single atomic word, so every device
// on a hot commit path can charge latency without lock contention.
type Clock struct {
	now atomic.Int64 // nanoseconds of virtual time
	// parent, when non-nil, makes this clock a lane of a global clock:
	// each advance pushes the parent forward to at least the lane's own
	// time, so the parent always reads max(lanes) — the wall time of a
	// system whose lanes run on parallel hardware.
	parent *Clock
}

// New returns a clock starting at virtual time zero.
func New() *Clock { return &Clock{} }

// NewLane returns a child clock modelling an independent execution lane
// (one shard's CPU + NVRAM bank set) of this clock. The lane starts at
// the parent's current time and advances independently; the parent is
// pushed to max over all lanes, so Throughput over the parent's elapsed
// time reflects parallel lanes overlapping rather than summing.
func (c *Clock) NewLane() *Clock {
	l := &Clock{parent: c}
	l.now.Store(int64(c.Now()))
	return l
}

// Now returns the current virtual time as a duration since the clock's
// origin.
func (c *Clock) Now() time.Duration {
	return time.Duration(c.now.Load())
}

// Advance moves the clock forward by d. Negative durations are ignored:
// simulated time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v := c.now.Add(int64(d))
	if c.parent != nil {
		c.parent.AdvanceTo(time.Duration(v))
	}
}

// AdvanceTo moves the clock forward to at least t (monotone max; a t in
// the past is a no-op). Cross-lane synchronization points — a 2PC
// coordinator waiting on every participant — use it to align lanes.
func (c *Clock) AdvanceTo(t time.Duration) {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			if c.parent != nil {
				c.parent.AdvanceTo(t)
			}
			return
		}
	}
}

// Reset rewinds the clock to zero. Intended for test and benchmark set-up
// only; devices sharing the clock must be reset together.
func (c *Clock) Reset() {
	c.now.Store(0)
}

// Since returns the virtual time elapsed since the given instant.
func (c *Clock) Since(start time.Duration) time.Duration {
	return c.Now() - start
}

// Throughput converts an operation count over a span of virtual time into
// operations per second. It returns 0 for a non-positive elapsed time: a
// measurement that did no work reports no throughput rather than NaN or
// +Inf, which encoding/json refuses.
func Throughput(ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}
