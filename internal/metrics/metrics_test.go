package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestZeroValueUsable(t *testing.T) {
	var c Counters
	if got := c.Count(CacheLineFlush); got != 0 {
		t.Fatalf("fresh counter = %d, want 0", got)
	}
	c.Inc(CacheLineFlush, 3)
	if got := c.Count(CacheLineFlush); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestAddTime(t *testing.T) {
	var c Counters
	c.AddTime(TimeFlush, time.Microsecond)
	c.AddTime(TimeFlush, 2*time.Microsecond)
	if got, want := c.Time(TimeFlush), 3*time.Microsecond; got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestReset(t *testing.T) {
	var c Counters
	c.Inc(Syscall, 5)
	c.AddTime(TimeSyscall, time.Second)
	c.Reset()
	if c.Count(Syscall) != 0 || c.Time(TimeSyscall) != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	var c Counters
	c.Inc(WALFrames, 1)
	s := c.Snapshot()
	c.Inc(WALFrames, 10)
	if got := s.Count(WALFrames); got != 1 {
		t.Fatalf("snapshot mutated: %d, want 1", got)
	}
}

func TestSnapshotSub(t *testing.T) {
	var c Counters
	c.Inc(Transactions, 2)
	c.AddTime(TimeCPU, time.Millisecond)
	before := c.Snapshot()
	c.Inc(Transactions, 5)
	c.Inc(Fsync, 1)
	c.AddTime(TimeCPU, 3*time.Millisecond)
	d := c.Snapshot().Sub(before)
	if got := d.Count(Transactions); got != 5 {
		t.Fatalf("delta transactions = %d, want 5", got)
	}
	if got := d.Count(Fsync); got != 1 {
		t.Fatalf("delta fsync = %d, want 1", got)
	}
	if got := d.Time(TimeCPU); got != 3*time.Millisecond {
		t.Fatalf("delta cpu time = %v, want 3ms", got)
	}
}

func TestSnapshotSubMissingKeys(t *testing.T) {
	var a, b Counters
	a.Inc(HeapFree, 4)
	b.AddTime(TimeTotalTxn, time.Second)
	d := Snapshot{Counts: map[string]int64{}, Times: map[string]time.Duration{}}.Sub(a.Snapshot())
	if got := d.Count(HeapFree); got != -4 {
		t.Fatalf("missing-key delta = %d, want -4", got)
	}
	d2 := Snapshot{Counts: map[string]int64{}, Times: map[string]time.Duration{}}.Sub(b.Snapshot())
	if got := d2.Time(TimeTotalTxn); got != -time.Second {
		t.Fatalf("missing-time delta = %v, want -1s", got)
	}
}

func TestString(t *testing.T) {
	var c Counters
	c.Inc(CacheLineFlush, 7)
	c.AddTime(TimeFlush, time.Microsecond)
	s := c.Snapshot().String()
	if !strings.Contains(s, CacheLineFlush) || !strings.Contains(s, "7") {
		t.Fatalf("String() missing counter: %q", s)
	}
	if !strings.Contains(s, TimeFlush) {
		t.Fatalf("String() missing time key: %q", s)
	}
}

func TestConcurrentUse(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc(NVRAMBytes, 2)
				c.AddTime(TimeMemcpy, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := c.Count(NVRAMBytes); got != 8000 {
		t.Fatalf("concurrent Inc total = %d, want 8000", got)
	}
	if got := c.Time(TimeMemcpy); got != 4000*time.Nanosecond {
		t.Fatalf("concurrent AddTime total = %v, want 4µs", got)
	}
}
