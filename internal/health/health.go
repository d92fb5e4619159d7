// Package health implements progress watchdogs for gray-failure
// detection. Fail-stop faults announce themselves — a crashed component
// returns errors and every caller notices. Gray faults do not: a
// checkpointer that still runs but at 1/50th speed, a replica whose
// acks drift from microseconds to seconds, a flusher stuck behind one
// slow fsync. Nothing errors, everything merely waits.
//
// The watchdog model is deliberately simple and deterministic:
//
//   - Every supervised component owns a Tracker and calls Beat() each
//     time it makes real progress (a checkpoint round drained, a group
//     flushed, a replica ack applied).
//   - Latency-shaped evidence goes in through Observe(d), which feeds a
//     rolling EWMA compared against a per-component budget.
//   - A Tracker is "armed" while the component is expected to make
//     progress (the checkpointer with frames pending, the ack stream
//     with unacked writes). Silence while armed — no Beat within
//     BeatTimeout — latches the Stalled state; silence while disarmed
//     is idleness, not failure.
//
// States escalate OK → Degraded → Stalled and recover with hysteresis:
// a stall clears only on the next Beat, and a degraded EWMA must fall
// below half its budget before the component reads OK again. The
// latching matters because callers poll health at decision points
// (admission control, hedging, quarantine) and must not see a stall
// flicker off between two checks just because the clock moved.
//
// Time is injected via Options.Now so the same watchdog runs against
// the simulation's virtual clock in tests and the wall clock in a real
// deployment; NodeClock picks between the two for a node.
package health

import (
	"maps"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// State is a component's latched health.
type State int

const (
	// OK: progressing within budget.
	OK State = iota
	// Degraded: progressing, but the latency EWMA exceeds the budget.
	Degraded
	// Stalled: armed but silent past BeatTimeout — no progress at all.
	Stalled
)

func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	}
	return "unknown"
}

// Options configures a Monitor. The zero value of every field has a
// usable default except Now, which must be provided.
type Options struct {
	// Now is the time source: a node's NodeClock.
	Now func() time.Duration
	// BeatTimeout is how long an armed tracker may go without a Beat
	// before it is declared Stalled. Default 100ms (virtual).
	BeatTimeout time.Duration
	// DegradedLatency is the EWMA budget: a tracker whose observed
	// latency EWMA exceeds it reads Degraded. Default 10ms.
	DegradedLatency time.Duration
	// Alpha is the EWMA smoothing factor in (0, 1]. Default 0.2.
	Alpha float64
	// Metrics receives health_state (a gauge over all components,
	// maintained by delta-increments) and the degraded/stalled
	// transition counters. Optional.
	Metrics *metrics.Counters
}

// Monitor is a set of named Trackers sharing one clock and one metrics
// sink. The zero value is not usable; construct with NewMonitor.
type Monitor struct {
	opts Options

	mu       sync.Mutex
	trackers map[string]*Tracker
}

// NodeClock is a node's one time source: clk's Now on a simulated node,
// wall time since the call when clk is nil.
func NodeClock(clk *simclock.Clock) func() time.Duration {
	if clk != nil {
		return clk.Now
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// NewMonitor returns a Monitor with defaults applied.
func NewMonitor(opts Options) *Monitor {
	if opts.Now == nil {
		panic("health: Options.Now is required")
	}
	if opts.BeatTimeout <= 0 {
		opts.BeatTimeout = 100 * time.Millisecond
	}
	if opts.DegradedLatency <= 0 {
		opts.DegradedLatency = 10 * time.Millisecond
	}
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		opts.Alpha = 0.2
	}
	return &Monitor{opts: opts, trackers: make(map[string]*Tracker)}
}

// Tracker returns the named tracker, creating it on first use.
func (m *Monitor) Tracker(name string) *Tracker {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.trackers[name]
	if !ok {
		t = &Tracker{mon: m, name: name, lastBeat: m.opts.Now()}
		m.trackers[name] = t
	}
	return t
}

// States returns a snapshot of every tracker's current state, keyed by
// name. Staleness checks run as part of the snapshot, so an armed-but-
// silent component reads Stalled here without anyone polling it.
func (m *Monitor) States() map[string]State {
	out := make(map[string]State)
	for name, t := range m.snapshot() {
		out[name] = t.State()
	}
	return out
}

// EWMAs returns every tracker's latency estimate, keyed by name.
func (m *Monitor) EWMAs() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, t := range m.snapshot() {
		out[name] = t.EWMA()
	}
	return out
}

// snapshot copies the tracker table: a tracker's lock is never taken
// under the monitor's.
func (m *Monitor) snapshot() map[string]*Tracker {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.trackers)
}

// Tracker supervises one component. All methods are safe for concurrent
// use.
type Tracker struct {
	mon  *Monitor
	name string

	mu       sync.Mutex
	armed    bool
	lastBeat time.Duration
	ewma     time.Duration
	seeded   bool // ewma has at least one observation
	state    State
}

// Arm declares that the component is expected to make progress from now
// on; silence past BeatTimeout while armed latches Stalled. Arming
// resets the silence window so old idle time is not counted.
func (t *Tracker) Arm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.armed {
		t.armed = true
		t.lastBeat = t.mon.opts.Now()
	}
}

// Disarm declares the component idle: no progress is expected, so
// silence is not a stall. A latched stall clears — the component is no
// longer behind.
func (t *Tracker) Disarm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.armed = false
	if t.state == Stalled {
		t.setStateLocked(t.latencyStateLocked())
	}
}

// Beat records progress: the silence window restarts and a latched
// stall clears (down to whatever the latency EWMA says).
func (t *Tracker) Beat() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastBeat = t.mon.opts.Now()
	if t.state == Stalled {
		t.setStateLocked(t.latencyStateLocked())
	}
}

// Observe feeds one latency sample into the rolling EWMA and
// re-evaluates the Degraded threshold. It does not count as a Beat:
// observing the latency of a still-slower operation is evidence of
// sickness, not progress. Callers typically Observe then Beat when the
// operation actually completed.
func (t *Tracker) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.seeded {
		t.ewma = d
		t.seeded = true
	} else {
		a := t.mon.opts.Alpha
		t.ewma = time.Duration(a*float64(d) + (1-a)*float64(t.ewma))
	}
	if t.state != Stalled {
		t.setStateLocked(t.latencyStateLocked())
	}
}

// EWMA returns the current latency estimate (zero before the first
// observation).
func (t *Tracker) EWMA() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ewma
}

// State evaluates and returns the component's health. The staleness
// check runs here, so a stalled component is detected by whoever asks —
// no background poller needed in virtual time.
func (t *Tracker) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.armed && t.state != Stalled {
		if t.mon.opts.Now()-t.lastBeat > t.mon.opts.BeatTimeout {
			t.setStateLocked(Stalled)
		}
	}
	return t.state
}

// latencyStateLocked maps the EWMA to OK/Degraded with 2× hysteresis:
// escalate above the budget, recover below half of it.
func (t *Tracker) latencyStateLocked() State {
	budget := t.mon.opts.DegradedLatency
	if t.ewma > budget {
		return Degraded
	}
	if t.state >= Degraded && t.ewma > budget/2 {
		return Degraded
	}
	return OK
}

// setStateLocked applies a transition, maintaining the health_state
// gauge (delta-increments against a counter sink) and the transition
// counters.
func (t *Tracker) setStateLocked(next State) {
	prev := t.state
	if next == prev {
		return
	}
	t.state = next
	m := t.mon.opts.Metrics
	if m == nil {
		return
	}
	m.Inc(metrics.HealthState, int64(next)-int64(prev))
	if next == Degraded && prev < Degraded {
		m.Inc(metrics.HealthDegraded, 1)
	}
	if next == Stalled {
		m.Inc(metrics.HealthStalled, 1)
	}
}
