// Package timedcond is a sync.Cond whose waits can be bounded by a
// real-time deadline without allocating: one timer per condition,
// created at the first bounded wait and re-armed under the condition's
// lock, wakes the waiters when the earliest of their deadlines passes.
// A netsim conn's receive timeout and a primary's ack timeout are such
// waits, made once per message or per replicated write, where a
// time.AfterFunc or a context per wait would be the largest cost.
//
// A waiter judges expiry against its own deadline, never against the
// timer firing, so a timer armed for an earlier wait (one that returned
// because its condition came true) can only wake a later waiter early,
// which it treats like any spurious wake-up: it re-arms and waits again.
package timedcond

import (
	"sync"
	"time"
)

// Cond is a sync.Cond with deadline-bounded waits. Construct it with New.
type Cond struct {
	sync.Cond
	// Guarded by L. t is the one timer (nil before the first bounded
	// wait); at is when it fires, zero while it is not armed; waiting
	// counts the goroutines inside WaitUntil.
	t       *time.Timer
	at      time.Time
	waiting int
}

// New returns a Cond over l.
func New(l sync.Locker) *Cond {
	return &Cond{Cond: sync.Cond{L: l}}
}

// WaitUntil is Wait bounded by deadline: it returns after a Signal or
// Broadcast, or once deadline has passed, and reports whether deadline
// has passed. As with Wait, the caller holds c.L and re-checks its
// condition in a loop. A zero deadline waits without bound. The timer is
// stopped when the last bounded waiter returns, so no wake-up is left
// pending once nobody waits.
func (c *Cond) WaitUntil(deadline time.Time) (expired bool) {
	if deadline.IsZero() {
		c.Wait()
		return false
	}
	now := time.Now()
	if !now.Before(deadline) {
		return true
	}
	if c.at.IsZero() || deadline.Before(c.at) {
		if c.t == nil {
			c.t = time.AfterFunc(deadline.Sub(now), c.fire)
		} else {
			c.t.Reset(deadline.Sub(now))
		}
		c.at = deadline
	}
	c.waiting++
	c.Wait()
	c.waiting--
	if c.waiting == 0 {
		c.t.Stop()
		c.at = time.Time{}
	}
	return !time.Now().Before(deadline)
}

// fire is the timer's callback. A firing that was already on its way
// when the timer was re-armed only clears at early, which makes the next
// bounded waiter arm the timer again.
func (c *Cond) fire() {
	c.L.Lock()
	c.at = time.Time{}
	c.Broadcast()
	c.L.Unlock()
}

// Deadline is the deadline a wait of timeout from now ends at: zero, an
// unbounded wait, when timeout is not positive.
func Deadline(timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(timeout)
}
