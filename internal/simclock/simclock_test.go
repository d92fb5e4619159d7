package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := New()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestAdvanceAccumulates(t *testing.T) {
	c := New()
	c.Advance(3 * time.Microsecond)
	c.Advance(2 * time.Microsecond)
	if got, want := c.Now(), 5*time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceIgnoresNonPositive(t *testing.T) {
	c := New()
	c.Advance(time.Microsecond)
	c.Advance(-time.Second)
	c.Advance(0)
	if got, want := c.Now(), time.Microsecond; got != want {
		t.Fatalf("Now() = %v, want %v (negative/zero advances must be ignored)", got, want)
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(time.Hour)
	c.Reset()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() after Reset = %v, want 0", got)
	}
}

func TestSince(t *testing.T) {
	c := New()
	c.Advance(10 * time.Millisecond)
	start := c.Now()
	c.Advance(7 * time.Millisecond)
	if got, want := c.Since(start), 7*time.Millisecond; got != want {
		t.Fatalf("Since = %v, want %v", got, want)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput(1000, 1s) = %v, want 1000", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput with zero elapsed = %v, want 0", got)
	}
}

func TestConcurrentAdvance(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), 8000*time.Nanosecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestLaneTracksMaxOfLanes(t *testing.T) {
	parent := New()
	parent.Advance(5 * time.Nanosecond)
	a := parent.NewLane()
	b := parent.NewLane()
	if a.Now() != 5*time.Nanosecond || b.Now() != 5*time.Nanosecond {
		t.Fatalf("lanes must start at parent time: a=%v b=%v", a.Now(), b.Now())
	}
	a.Advance(100 * time.Nanosecond)
	b.Advance(30 * time.Nanosecond)
	if got, want := parent.Now(), 105*time.Nanosecond; got != want {
		t.Fatalf("parent = %v, want max(lanes) = %v", got, want)
	}
	if got, want := b.Now(), 35*time.Nanosecond; got != want {
		t.Fatalf("lane b advanced to %v, want %v (lanes are independent)", got, want)
	}
}

func TestAdvanceToIsMonotoneMax(t *testing.T) {
	c := New()
	c.Advance(50 * time.Nanosecond)
	c.AdvanceTo(20 * time.Nanosecond)
	if got, want := c.Now(), 50*time.Nanosecond; got != want {
		t.Fatalf("AdvanceTo into the past moved the clock: %v, want %v", got, want)
	}
	c.AdvanceTo(80 * time.Nanosecond)
	if got, want := c.Now(), 80*time.Nanosecond; got != want {
		t.Fatalf("AdvanceTo = %v, want %v", got, want)
	}
}

func TestAdvanceToPropagatesToParent(t *testing.T) {
	parent := New()
	lane := parent.NewLane()
	lane.AdvanceTo(time.Microsecond)
	if got, want := parent.Now(), time.Microsecond; got != want {
		t.Fatalf("parent = %v, want %v after lane AdvanceTo", got, want)
	}
}

func TestConcurrentLanes(t *testing.T) {
	parent := New()
	// Every lane exists before any runs: a lane starts at the parent's
	// current time, so one created after another has advanced is not equal.
	var lanes [8]*Clock
	for i := range lanes {
		lanes[i] = parent.NewLane()
	}
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				lane.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got, want := parent.Now(), 1000*time.Nanosecond; got != want {
		t.Fatalf("parent = %v, want %v (max of equal lanes, not sum)", got, want)
	}
}
