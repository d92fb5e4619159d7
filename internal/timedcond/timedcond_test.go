package timedcond

import (
	"sync"
	"testing"
	"time"
)

// waitFor waits on c until ready() or the deadline, the loop every
// caller of WaitUntil runs, and reports whether the deadline ended it.
func waitFor(c *Cond, ready func() bool, deadline time.Time) bool {
	c.L.Lock()
	defer c.L.Unlock()
	for !ready() {
		if c.WaitUntil(deadline) && !ready() {
			return true
		}
	}
	return false
}

// Waiters with different deadlines on one Cond each expire at their own:
// never before it, and not long after it either.
func TestWaitersExpireAtTheirOwnDeadlines(t *testing.T) {
	var mu sync.Mutex
	c := New(&mu)
	never := func() bool { return false }
	timeouts := []time.Duration{60 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond}
	var wg sync.WaitGroup
	took := make([]time.Duration, len(timeouts))
	for i, d := range timeouts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if !waitFor(c, never, start.Add(d)) {
				t.Errorf("waiter %d returned without expiring", i)
			}
			took[i] = time.Since(start)
		}()
	}
	wg.Wait()
	for i, d := range timeouts {
		if took[i] < d || took[i] > d+time.Second {
			t.Errorf("waiter with a %v deadline expired after %v", d, took[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if c.waiting != 0 || !c.at.IsZero() {
		t.Fatalf("after the last waiter: %d waiting, timer armed for %v", c.waiting, c.at)
	}
}

// A wait ended by its condition leaves no timer armed, and a timer
// re-armed while an earlier firing is on its way still wakes the waiter
// that relies on it.
func TestTimerStoppedWhenNobodyWaits(t *testing.T) {
	var mu sync.Mutex
	c := New(&mu)
	ready := false
	go func() {
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		ready = true
		c.Broadcast()
		mu.Unlock()
	}()
	if waitFor(c, func() bool { return ready }, time.Now().Add(time.Hour)) {
		t.Fatal("the condition came true but the wait expired")
	}
	mu.Lock()
	if !c.at.IsZero() {
		t.Fatalf("timer still armed for %v with nobody waiting", c.at)
	}
	// A firing already past its Stop (the callback waits for the lock
	// held here) clears at; the next bounded waiter must re-arm.
	mu.Unlock()
	c.fire()
	start := time.Now()
	if !waitFor(c, func() bool { return false }, start.Add(15*time.Millisecond)) {
		t.Fatal("wait did not expire")
	}
	if took := time.Since(start); took < 15*time.Millisecond {
		t.Fatalf("wait expired after %v, before its 15ms", took)
	}
}

func TestZeroDeadlineWaitsUnbounded(t *testing.T) {
	var mu sync.Mutex
	c := New(&mu)
	if !Deadline(0).IsZero() || !Deadline(-time.Second).IsZero() {
		t.Fatal("a non-positive timeout must mean no deadline")
	}
	done := false
	go func() {
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		done = true
		c.Signal()
		mu.Unlock()
	}()
	if waitFor(c, func() bool { return done }, time.Time{}) {
		t.Fatal("an unbounded wait expired")
	}
	if c.t != nil {
		t.Fatal("an unbounded wait armed the timer")
	}
}
