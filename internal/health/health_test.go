package health

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

func newTestMonitor(m *metrics.Counters) (*Monitor, *simclock.Clock) {
	clk := simclock.New()
	mon := NewMonitor(Options{
		Now:             clk.Now,
		BeatTimeout:     100 * time.Millisecond,
		DegradedLatency: 10 * time.Millisecond,
		Alpha:           0.5,
		Metrics:         m,
	})
	return mon, clk
}

func TestStallLatchesAndClearsOnBeat(t *testing.T) {
	var m metrics.Counters
	mon, clk := newTestMonitor(&m)
	tr := mon.Tracker("checkpointer")

	// Disarmed silence is idleness, not failure.
	clk.Advance(time.Second)
	if got := tr.State(); got != OK {
		t.Fatalf("disarmed idle state = %v, want ok", got)
	}

	tr.Arm()
	clk.Advance(50 * time.Millisecond)
	if got := tr.State(); got != OK {
		t.Fatalf("armed within timeout = %v, want ok", got)
	}
	clk.Advance(51 * time.Millisecond)
	if got := tr.State(); got != Stalled {
		t.Fatalf("armed past timeout = %v, want stalled", got)
	}
	// Latched: time moving on does not un-stall it.
	clk.Advance(time.Hour)
	if got := tr.State(); got != Stalled {
		t.Fatalf("latched stall = %v, want stalled", got)
	}
	if m.Count(metrics.HealthStalled) != 1 {
		t.Fatalf("health_stalled = %d, want 1", m.Count(metrics.HealthStalled))
	}

	tr.Beat()
	if got := tr.State(); got != OK {
		t.Fatalf("after beat = %v, want ok", got)
	}
	if m.Count(metrics.HealthState) != 0 {
		t.Fatalf("health_state gauge = %d, want 0 after recovery", m.Count(metrics.HealthState))
	}
}

func TestDegradedHysteresis(t *testing.T) {
	var m metrics.Counters
	mon, _ := newTestMonitor(&m)
	tr := mon.Tracker("replica")

	if got := tr.EWMA(); got != 0 {
		t.Fatalf("EWMA before any observation = %v, want 0", got)
	}
	tr.Observe(2 * time.Millisecond)
	if got := tr.State(); got != OK {
		t.Fatalf("fast observe = %v, want ok", got)
	}
	if got := tr.EWMA(); got != 2*time.Millisecond {
		t.Fatalf("first observation seeds EWMA = %v, want 2ms", got)
	}
	// Push the EWMA (alpha=0.5) well over the 10ms budget.
	tr.Observe(40 * time.Millisecond)
	tr.Observe(40 * time.Millisecond)
	if got := tr.State(); got != Degraded {
		t.Fatalf("slow observes = %v, want degraded", got)
	}
	if m.Count(metrics.HealthDegraded) != 1 {
		t.Fatalf("health_degraded = %d, want 1", m.Count(metrics.HealthDegraded))
	}
	// Recovery needs the EWMA below half the budget, not just below it.
	tr.Observe(7 * time.Millisecond) // ewma ≈ 19ms
	tr.Observe(7 * time.Millisecond) // ewma ≈ 13ms
	tr.Observe(1 * time.Millisecond) // ewma ≈ 7ms — below budget, above half
	if got := tr.State(); got != Degraded {
		t.Fatalf("within hysteresis band = %v, want degraded", got)
	}
	tr.Observe(0)
	tr.Observe(0) // ewma ≈ 1.8ms — below half the budget
	if got := tr.State(); got != OK {
		t.Fatalf("recovered = %v, want ok", got)
	}
	if m.Count(metrics.HealthState) != 0 {
		t.Fatalf("health_state gauge = %d, want 0", m.Count(metrics.HealthState))
	}
}

func TestDisarmClearsStall(t *testing.T) {
	var m metrics.Counters
	mon, clk := newTestMonitor(&m)
	tr := mon.Tracker("flusher")
	tr.Arm()
	clk.Advance(time.Second)
	if got := tr.State(); got != Stalled {
		t.Fatalf("state = %v, want stalled", got)
	}
	tr.Disarm()
	if got := tr.State(); got != OK {
		t.Fatalf("disarmed state = %v, want ok", got)
	}
	// Re-arming restarts the silence window rather than inheriting it.
	tr.Arm()
	clk.Advance(50 * time.Millisecond)
	if got := tr.State(); got != OK {
		t.Fatalf("re-armed state = %v, want ok", got)
	}
}

func TestMonitorStates(t *testing.T) {
	var m metrics.Counters
	mon, clk := newTestMonitor(&m)
	mon.Tracker("a").Beat()
	b := mon.Tracker("b")
	b.Arm()
	clk.Advance(time.Second)

	states := mon.States()
	if states["a"] != OK || states["b"] != Stalled {
		t.Fatalf("states = %v, want a=ok b=stalled", states)
	}
	if Stalled.String() != "stalled" || OK.String() != "ok" || Degraded.String() != "degraded" {
		t.Fatal("State.String mismatch")
	}
}
