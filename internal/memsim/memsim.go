// Package memsim simulates the memory hierarchy the paper's NVRAM
// experiments depend on: a write-back CPU cache in front of byte-
// addressable NVRAM, with explicit cache-line flush (ARM dccmvac), data
// memory barrier (dmb) and persist-barrier operations, and a power-failure
// switch.
//
// Go offers no control over real cache lines (the repro gate called out
// for this paper), so the simulator is *functional*: writes land in a
// simulated cache overlay and only reach the simulated NVRAM cells when
// they are flushed and a persist barrier drains the memory-controller
// queue. A crash (PowerFail) discards everything that has not been
// persisted, which lets the test suite mechanically verify the paper's
// §4.3 recovery arguments instead of hand-waving them.
//
// # Cost model
//
// Every operation charges virtual time to a shared simclock.Clock:
//
//   - Stores charge a per-line CPU cost (TimeMemcpy). If the cache
//     capacity overflows, the LRU dirty line is written back: its
//     completion is enqueued on the memory controller, masking later
//     flush cost exactly as §5.1 describes.
//   - dccmvac on a dirty line charges a fixed issue cost and enqueues the
//     write-back on the (serial) memory controller. The instruction is
//     non-blocking, as on ARMv7.
//   - dmb blocks until all outstanding write-backs complete. The waiting
//     time is attributed to the flush phase (it is flush completion), the
//     barrier's own fixed cost to the barrier phase — matching how
//     Figure 5 presents the breakdown.
//   - The persist barrier also blocks, then marks the queued lines
//     durable. Its cost defaults to the 1 µs nop-loop emulation of §5.3.
//
// Eager versus lazy synchronization therefore differ exactly as in the
// paper: an eager scheme pays (issue + write latency) per line because a
// dmb follows every log entry, while a lazy scheme issues the whole batch
// back-to-back and overlaps issue with the controller's drain, paying
// roughly the write latency alone.
package memsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Config parameterizes a Domain. Zero fields are replaced by defaults
// matching the Tuna board used in §5 (32 B cache lines, 500 ns NVRAM
// write latency, 1 µs persist barrier).
type Config struct {
	// Size is the size of the NVRAM address space in bytes.
	Size int
	// CacheLineSize is the cache line size in bytes (Tuna: 32, Nexus 5: 64).
	CacheLineSize int
	// CacheCapacityLines bounds the number of dirty lines held in the
	// simulated cache before LRU write-back eviction. 0 selects the
	// default (a 512 KB L2 worth of lines).
	CacheCapacityLines int
	// NVRAMWriteLatency is the memory controller's per-line write-back
	// service time into NVRAM cells.
	NVRAMWriteLatency time.Duration
	// NVRAMBanks is the number of memory banks the controller services
	// concurrently. Lines map to banks by address, so a batch of lazy
	// flushes drains up to NVRAMBanks lines per write latency — the
	// §4.1 motivation ("so that the processors can better utilize
	// caches and memory banks").
	NVRAMBanks int
	// FlushIssueCost is the CPU cost of issuing one dccmvac instruction.
	FlushIssueCost time.Duration
	// BarrierCost is the fixed cost of a dmb instruction (excluding any
	// waiting for outstanding write-backs).
	BarrierCost time.Duration
	// PersistBarrierCost is the fixed cost of the persist barrier, on top
	// of draining the controller queue (§5.3 emulates it with a 1 µs
	// delay).
	PersistBarrierCost time.Duration
	// StoreCostPerLine is the CPU cost of storing one cache line's worth
	// of data (the memcpy component of Figure 5).
	StoreCostPerLine time.Duration
}

// Defaults for Config fields; exported so experiments can reference the
// calibration in one place.
const (
	DefaultSize               = 64 << 20
	DefaultCacheLineSize      = 32
	DefaultCacheCapacityLines = (512 << 10) / 32
	DefaultNVRAMWriteLatency  = 500 * time.Nanosecond
	DefaultNVRAMBanks         = 4
	DefaultFlushIssueCost     = 115 * time.Nanosecond
	DefaultBarrierCost        = 20 * time.Nanosecond
	DefaultPersistBarrierCost = 1 * time.Microsecond
	DefaultStoreCostPerLine   = 18 * time.Nanosecond
)

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = DefaultSize
	}
	if c.CacheLineSize <= 0 {
		c.CacheLineSize = DefaultCacheLineSize
	}
	if c.CacheCapacityLines <= 0 {
		c.CacheCapacityLines = (512 << 10) / c.CacheLineSize
	}
	if c.NVRAMWriteLatency <= 0 {
		c.NVRAMWriteLatency = DefaultNVRAMWriteLatency
	}
	if c.NVRAMBanks <= 0 {
		c.NVRAMBanks = DefaultNVRAMBanks
	}
	if c.FlushIssueCost <= 0 {
		c.FlushIssueCost = DefaultFlushIssueCost
	}
	if c.BarrierCost <= 0 {
		c.BarrierCost = DefaultBarrierCost
	}
	if c.PersistBarrierCost <= 0 {
		c.PersistBarrierCost = DefaultPersistBarrierCost
	}
	if c.StoreCostPerLine <= 0 {
		c.StoreCostPerLine = DefaultStoreCostPerLine
	}
	return c
}

// FailPolicy selects what survives a PowerFail.
type FailPolicy int

const (
	// FailDropAll loses every line that has not been persisted by a
	// persist barrier: the conservative model the paper's recovery
	// argument assumes.
	FailDropAll FailPolicy = iota
	// FailKeepCompleted keeps queued write-backs whose controller
	// completion time has already passed; in-cache dirty lines are lost.
	FailKeepCompleted
	// FailAdversarial persists an arbitrary (seeded) subset of both
	// queued write-backs and still-dirty cache lines, at whole-line
	// granularity. Dirty cache lines may persist because real hardware
	// may evict them at any time; this is the strongest test of the
	// commit-mark ordering protocol.
	FailAdversarial
)

type lineState struct {
	addr       uint64 // line-aligned address: the state's key in Domain.lines
	dirty      bool   // in cache, not yet flushed/evicted
	lruElem    *lruNode
	queued     bool          // write-back accepted by the memory controller
	queuedData []byte        // content snapshot at flush/eviction time
	completion time.Duration // virtual time the controller finishes the write-back
	// node is the LRU list element backing lruElem, embedded so a
	// clean→dirty transition costs no allocation. queuedData is likewise
	// kept (not nil-ed) after a persist as a reusable snapshot buffer —
	// persistLineLocked copies out of it immediately, so no consumer
	// ever retains it.
	node lruNode
}

type lruNode struct {
	addr       uint64
	prev, next *lruNode
}

// maxStatePool bounds the lineState recycle pool (host memory only).
const maxStatePool = 1 << 14

// snapBuf returns the line's snapshot scratch sized to one cache line,
// reusing the previous snapshot's backing array when possible.
func (st *lineState) snapBuf(lineSize int) []byte {
	if cap(st.queuedData) < lineSize {
		return make([]byte, lineSize)
	}
	return st.queuedData[:lineSize]
}

// crashArm is a one-shot power-failure trigger: when the domain's
// persistence-operation counter reaches target, the durable image that
// would survive a PowerFail at that exact instant is frozen. Execution
// continues afterwards (the still-running goroutines are ghosts of a
// machine whose power already failed), and the next PowerFail call
// restores the frozen image instead of resolving the then-current state.
// This is what lets a crash-consistency fuzzer fail power in the middle
// of an operation — after the Nth flush or barrier — without having to
// stop every goroutine at that instant.
type crashArm struct {
	target    int64
	policy    FailPolicy
	seed      int64
	onTrigger func()
	triggered bool
}

// Domain is one NVRAM persistence domain: an address space, the cache
// overlay in front of it, and the memory-controller queue between them.
// Domain is safe for concurrent use, though the simulated database is
// single-writer (SQLite allows one write transaction at a time, §4.1).
type Domain struct {
	mu    sync.Mutex
	cfg   Config
	clock *simclock.Clock
	m     *metrics.Counters

	volatileMem []byte // current logical content (read-your-writes view)
	persisted   []byte // content guaranteed to survive PowerFail

	lines map[uint64]*lineState // keyed by line-aligned address
	// statePool recycles lineStates (and their snapshot buffers) that
	// the persist-barrier cleanup evicted from the map, so steady-state
	// store traffic does not allocate per touched line. Host memory
	// only; simulated cost is unaffected.
	statePool []*lineState
	// queued lists every line whose write-back the memory controller
	// accepted since the last barrier drained it, so a barrier's host
	// cost follows the lines it persists instead of the size d.lines
	// once grew to (a Go map never shrinks). Each entry is in d.lines
	// (under its addr) with queued set, exactly once.
	queued []*lineState
	// LRU list of dirty lines; head = most recent.
	lruHead, lruTail *lruNode
	dirtyCount       int

	// bankFree[i] is the time bank i finishes its queued write-backs;
	// lastCompletion is the max across banks (what barriers wait for).
	bankFree       []time.Duration
	lastCompletion time.Duration

	// ops counts persistence operations (stores, per-line flushes,
	// barriers) for the ArmCrash trigger.
	ops    int64
	arm    *crashArm
	frozen []byte // durable image captured when the armed trigger fired

	faults *faultState // media-fault model; nil when not injected

	failed bool
}

// New creates a Domain with the given configuration, clock and metrics
// sink. clock and m must not be nil.
func New(cfg Config, clock *simclock.Clock, m *metrics.Counters) *Domain {
	cfg = cfg.withDefaults()
	return &Domain{
		cfg:         cfg,
		clock:       clock,
		m:           m,
		volatileMem: make([]byte, cfg.Size),
		persisted:   make([]byte, cfg.Size),
		lines:       make(map[uint64]*lineState),
		bankFree:    make([]time.Duration, cfg.NVRAMBanks),
	}
}

// Size returns the domain's address-space size in bytes.
func (d *Domain) Size() int { return d.cfg.Size }

// Metrics returns the counters this domain charges its events to, so
// components layered on the domain (e.g. the heap manager) can share
// the same sink.
func (d *Domain) Metrics() *metrics.Counters { return d.m }

// Clock returns the virtual clock this domain charges latency to.
func (d *Domain) Clock() *simclock.Clock { return d.clock }

// LineSize returns the cache line size in bytes.
func (d *Domain) LineSize() int { return d.cfg.CacheLineSize }

// WriteLatency returns the configured per-line NVRAM write latency.
func (d *Domain) WriteLatency() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfg.NVRAMWriteLatency
}

// SetWriteLatency changes the NVRAM write latency, mirroring the Tuna
// board's adjustable latency knob used by Figures 7 and 9.
func (d *Domain) SetWriteLatency(w time.Duration) {
	d.mu.Lock()
	d.cfg.NVRAMWriteLatency = w
	d.mu.Unlock()
}

func (d *Domain) lineAddr(addr uint64) uint64 {
	return addr &^ (uint64(d.cfg.CacheLineSize) - 1)
}

func (d *Domain) checkRange(addr uint64, n int) {
	if int(addr)+n > d.cfg.Size || int(addr) < 0 {
		panic(fmt.Sprintf("memsim: access [%d,%d) outside domain of %d bytes", addr, int(addr)+n, d.cfg.Size))
	}
}

// Write stores p at addr through the cache. The data becomes visible to
// Read immediately but is not durable until flushed and persisted.
//
// A store to a failed domain is silently dropped: the power is off, so
// the write never happens. (It used to panic, but a crash-injection
// harness may fail power while other goroutines still have stores in
// flight, and those stragglers must not take the process down.)
func (d *Domain) Write(addr uint64, p []byte) {
	if len(p) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(p))
	if d.failed {
		return
	}
	copy(d.volatileMem[addr:], p)

	first := d.lineAddr(addr)
	last := d.lineAddr(addr + uint64(len(p)) - 1)
	nLines := int((last-first)/uint64(d.cfg.CacheLineSize)) + 1
	d.clock.Advance(time.Duration(nLines) * d.cfg.StoreCostPerLine)
	d.m.AddTime(metrics.TimeMemcpy, time.Duration(nLines)*d.cfg.StoreCostPerLine)
	d.applySlowFaultLocked(first, last, nLines)

	for la := first; la <= last; la += uint64(d.cfg.CacheLineSize) {
		d.touchDirty(la)
	}
	d.countOpLocked()
}

// WriteV stores the concatenation of parts contiguously at addr, with
// the exact cost model of a single Write over the combined range: one
// lock acquisition, one store-burst charge over the spanned lines, one
// op count. It exists so a caller can place a frame header and its
// payload into adjacent NVRAM without first gluing them together in an
// intermediate DRAM buffer (the zero-copy commit path).
func (d *Domain) WriteV(addr uint64, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, n)
	if d.failed {
		return
	}
	pos := addr
	for _, p := range parts {
		copy(d.volatileMem[pos:], p)
		pos += uint64(len(p))
	}

	first := d.lineAddr(addr)
	last := d.lineAddr(addr + uint64(n) - 1)
	nLines := int((last-first)/uint64(d.cfg.CacheLineSize)) + 1
	d.clock.Advance(time.Duration(nLines) * d.cfg.StoreCostPerLine)
	d.m.AddTime(metrics.TimeMemcpy, time.Duration(nLines)*d.cfg.StoreCostPerLine)
	d.applySlowFaultLocked(first, last, nLines)

	for la := first; la <= last; la += uint64(d.cfg.CacheLineSize) {
		d.touchDirty(la)
	}
	d.countOpLocked()
}

// touchDirty marks line la dirty and most-recently-used, evicting the LRU
// dirty line if the cache is over capacity. Caller holds d.mu.
func (d *Domain) touchDirty(la uint64) {
	st := d.lines[la]
	if st == nil {
		if n := len(d.statePool); n > 0 {
			st = d.statePool[n-1]
			d.statePool = d.statePool[:n-1]
		} else {
			st = &lineState{}
		}
		st.addr = la
		d.lines[la] = st
	}
	if st.dirty {
		d.lruMoveFront(st.lruElem)
		return
	}
	st.dirty = true
	st.node = lruNode{addr: la}
	st.lruElem = &st.node
	d.lruPushFront(st.lruElem)
	d.dirtyCount++
	for d.dirtyCount > d.cfg.CacheCapacityLines {
		victim := d.lruTail
		if victim == nil {
			break
		}
		// Hardware eviction: the write-back is enqueued on the controller
		// and its cost is absorbed by the ongoing memcpy phase — this is
		// the "masking" of flush overhead §5.1 observes under lazy
		// synchronization.
		d.writeBackLocked(victim.addr, metrics.TimeMemcpy)
	}
}

// writeBackLocked executes one dccmvac on a dirty line: the issue cost
// is charged to timeKey, then the memory controller receives the
// write-back. Caller holds d.mu.
func (d *Domain) writeBackLocked(la uint64, timeKey string) {
	st := d.lines[la]
	if st == nil || !st.dirty {
		return
	}
	// The controller receives the write-back when the instruction
	// completes, so the issue cost is charged before the line's bank
	// schedules it.
	d.clock.Advance(d.cfg.FlushIssueCost)
	d.m.AddTime(timeKey, d.cfg.FlushIssueCost)
	d.enqueueLocked(la, st)
}

// enqueueLocked moves dirty line la from the cache to the controller
// queue: its content is snapshotted and its bank services it after the
// bank's queued predecessors. Caller holds d.mu.
func (d *Domain) enqueueLocked(la uint64, st *lineState) {
	st.dirty = false
	d.lruRemove(st.lruElem)
	st.lruElem = nil
	d.dirtyCount--

	snap := st.snapBuf(d.cfg.CacheLineSize)
	copy(snap, d.volatileMem[la:la+uint64(d.cfg.CacheLineSize)])
	if !st.queued {
		d.queued = append(d.queued, st)
	}
	st.queued = true
	st.queuedData = snap

	bank := int(la/uint64(d.cfg.CacheLineSize)) % d.cfg.NVRAMBanks
	start := d.clock.Now()
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	st.completion = start + d.cfg.NVRAMWriteLatency
	d.bankFree[bank] = st.completion
	if st.completion > d.lastCompletion {
		d.lastCompletion = st.completion
	}
	d.m.Inc(metrics.NVRAMLineWrites, 1)
	d.m.Inc(metrics.NVRAMBytes, int64(d.cfg.CacheLineSize))
}

// drainQueueLocked makes every queued write-back durable and drops the
// lines that are clean afterwards from the map, recycling their state.
// Caller holds d.mu.
func (d *Domain) drainQueueLocked() {
	for i, st := range d.queued {
		d.persistLineLocked(d.persisted, st.addr, st.queuedData)
		st.queued = false
		// queuedData is kept as the line's snapshot scratch; the persist
		// above copied it into the durable image.
		if !st.dirty {
			delete(d.lines, st.addr)
			if len(d.statePool) < maxStatePool {
				d.statePool = append(d.statePool, st)
			}
		}
		d.queued[i] = nil
	}
	d.queued = d.queued[:0]
}

// Read copies the current logical content at addr into p (read-your-
// writes through the cache overlay). Reads are charged no latency: the
// experiments measure the write path, and NVRAM read latency is within
// DRAM's order of magnitude (§3).
func (d *Domain) Read(addr uint64, p []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(p))
	src := d.volatileMem
	if d.failed {
		src = d.persisted
	}
	copy(p, src[addr:])
}

// ReadPersisted copies the durable content at addr into p: what a crash
// at this instant would preserve under FailDropAll.
func (d *Domain) ReadPersisted(addr uint64, p []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(addr, len(p))
	copy(p, d.persisted[addr:])
}

// CacheLineFlush issues dccmvac for every cache line overlapping
// [start, end), the loop body of the cache_line_flush() syscall of
// Algorithm 2. The flushes are non-blocking; call MemoryBarrier to wait
// for their completion. The kernel-mode-switch cost is charged
// separately via Syscall — dccmvac needs privileged register access on
// ARMv7, so user code pays one Syscall per flush batch while kernel
// components (the Heapo heap manager) flush for free.
func (d *Domain) CacheLineFlush(start, end uint64) {
	if end <= start {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(start, int(end-start))
	if d.failed {
		return
	}
	first := d.lineAddr(start)
	last := d.lineAddr(end - 1)
	for la := first; la <= last; la += uint64(d.cfg.CacheLineSize) {
		d.m.Inc(metrics.CacheLineFlush, 1)
		st := d.lines[la]
		if st != nil && st.dirty {
			d.writeBackLocked(la, metrics.TimeFlush)
		} else {
			// Clean or already-evicted line: dccmvac still executes but
			// finds nothing to write back.
			d.clock.Advance(d.cfg.FlushIssueCost)
			d.m.AddTime(metrics.TimeFlush, d.cfg.FlushIssueCost)
		}
		d.countOpLocked()
	}
}

// SyscallCost is the simulated kernel-mode switch overhead per system
// call (§4: "System call is expensive. It crosses the protection
// boundary and the parameters are copied.").
const SyscallCost = 800 * time.Nanosecond

// Syscall charges one kernel-mode switch. Components that cross the
// user/kernel boundary (cache_line_flush batches, Heapo heap calls) call
// this once per crossing.
func (d *Domain) Syscall() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock.Advance(SyscallCost)
	d.m.Inc(metrics.Syscall, 1)
	d.m.AddTime(metrics.TimeSyscall, SyscallCost)
}

// MemoryBarrier models dmb: it blocks until every outstanding write-back
// has been serviced by the memory controller. The waiting time is
// attributed to the flush phase; the barrier's fixed cost to the barrier
// phase.
func (d *Domain) MemoryBarrier() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return
	}
	d.m.Inc(metrics.MemoryBarrier, 1)
	now := d.clock.Now()
	if d.lastCompletion > now {
		wait := d.lastCompletion - now
		d.clock.Advance(wait)
		d.m.AddTime(metrics.TimeFlush, wait)
	}
	d.clock.Advance(d.cfg.BarrierCost)
	d.m.AddTime(metrics.TimeBarrier, d.cfg.BarrierCost)
	d.countOpLocked()
}

// PersistBarrier drains the memory-controller queue into NVRAM cells and
// guarantees durability of everything flushed before it, at the fixed
// persist-barrier cost (§5.3 emulates it as a 1 µs delay).
func (d *Domain) PersistBarrier() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return
	}
	d.m.Inc(metrics.PersistBarrier, 1)
	now := d.clock.Now()
	if d.lastCompletion > now {
		wait := d.lastCompletion - now
		d.clock.Advance(wait)
		d.m.AddTime(metrics.TimeFlush, wait)
	}
	d.clock.Advance(d.cfg.PersistBarrierCost)
	d.m.AddTime(metrics.TimePersist, d.cfg.PersistBarrierCost)
	d.drainQueueLocked()
	// Counted after the queue drains, so a crash armed at this op index
	// observes the barrier's durability effect (a crash "at" a persist
	// barrier means the barrier completed; crashes inside the drain are
	// exercised by arming on the flushes that precede it).
	d.countOpLocked()
}

// EpochBarrier models the persist barrier of an epoch-persistency
// architecture (§4.4, following BPFS): the hardware itself writes back
// every dirty line and guarantees all persists before the barrier occur
// before any after it. No explicit dccmvac instructions (and no
// kernel-mode switches for them) are needed — the programming-
// simplicity argument of relaxed persistency.
func (d *Domain) EpochBarrier() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return
	}
	d.m.Inc(metrics.PersistBarrier, 1)
	// Hardware write-back of all dirty lines: enqueue without per-line
	// issue cost (no instructions are executed for them).
	for d.lruTail != nil {
		la := d.lruTail.addr
		d.enqueueLocked(la, d.lines[la])
	}
	now := d.clock.Now()
	if d.lastCompletion > now {
		wait := d.lastCompletion - now
		d.clock.Advance(wait)
		d.m.AddTime(metrics.TimeFlush, wait)
	}
	d.clock.Advance(d.cfg.PersistBarrierCost)
	d.m.AddTime(metrics.TimePersist, d.cfg.PersistBarrierCost)
	d.drainQueueLocked()
}

// PowerFail simulates pulling the power. Everything not yet persisted is
// resolved according to the policy; afterwards the domain serves only
// persisted content until Recover is called. seed drives the adversarial
// policy's line-survival choices.
//
// If an ArmCrash trigger has fired, the durable image frozen at the
// trigger instant is restored instead: the machine's power failed back
// then, and everything executed since was a ghost. PowerFail is safe to
// call concurrently with in-flight stores, flushes and barriers from
// other goroutines — they serialize on the domain mutex and become
// no-ops once failed is set.
func (d *Domain) PowerFail(policy FailPolicy, seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.frozen != nil {
		copy(d.persisted, d.frozen)
		d.frozen = nil
	} else {
		d.resolveSurvivorsLocked(d.persisted, policy, seed)
	}
	// Retention bit rot is observed at the reboot following an outage:
	// damage the finalized durable image, seeded by this crash.
	d.applyCrashFaultsLocked(seed)
	d.arm = nil
	for la := range d.lines {
		delete(d.lines, la)
	}
	clear(d.queued)
	d.queued = d.queued[:0]
	d.lruHead, d.lruTail = nil, nil
	d.dirtyCount = 0
	d.lastCompletion = 0
	for i := range d.bankFree {
		d.bankFree[i] = 0
	}
	copy(d.volatileMem, d.persisted)
	d.failed = true
}

// resolveSurvivorsLocked applies a fail policy to the current cache and
// controller-queue state, writing surviving lines into dst. Lines are
// visited in ascending address order so the adversarial policy's seeded
// choices are deterministic (map iteration order is not). Caller holds
// d.mu.
func (d *Domain) resolveSurvivorsLocked(dst []byte, policy FailPolicy, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	now := d.clock.Now()
	addrs := make([]uint64, 0, len(d.lines))
	for la := range d.lines {
		addrs = append(addrs, la)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, la := range addrs {
		st := d.lines[la]
		switch policy {
		case FailDropAll:
			// nothing survives
		case FailKeepCompleted:
			if st.queued && st.completion <= now {
				d.persistLineLocked(dst, la, st.queuedData)
			}
		case FailAdversarial:
			if st.queued && rng.Intn(2) == 0 {
				d.persistLineLocked(dst, la, st.queuedData)
			}
			if st.dirty && rng.Intn(4) == 0 {
				// Spontaneous hardware eviction made this line durable
				// even though it was never explicitly flushed.
				d.persistLineLocked(dst, la, d.volatileMem[la:la+uint64(d.cfg.CacheLineSize)])
			}
		}
	}
}

// countOpLocked advances the persistence-operation counter and fires the
// armed crash trigger when the counter reaches its target: the durable
// image a PowerFail at this instant would leave behind is captured into
// d.frozen under the same mutex hold, so no concurrent store can slip
// into it. Caller holds d.mu.
func (d *Domain) countOpLocked() {
	d.ops++
	if d.arm == nil || d.arm.triggered || d.ops < d.arm.target {
		return
	}
	d.arm.triggered = true
	d.frozen = make([]byte, len(d.persisted))
	copy(d.frozen, d.persisted)
	d.resolveSurvivorsLocked(d.frozen, d.arm.policy, d.arm.seed)
	if d.arm.onTrigger != nil {
		d.arm.onTrigger()
	}
}

// ArmCrash installs a one-shot power-failure trigger that fires after
// afterOps further persistence operations (stores, per-line flushes,
// barriers; minimum 1). When it fires, the durable image that would
// survive a PowerFail at that exact operation is frozen under the given
// policy and seed; execution continues, and the next PowerFail restores
// the frozen image. onTrigger (may be nil) runs synchronously inside the
// trigger with the domain mutex held — it must not call back into the
// domain; it exists so sibling devices (file system, block device) can
// freeze their own durable state at the same instant.
func (d *Domain) ArmCrash(afterOps int64, policy FailPolicy, seed int64, onTrigger func()) {
	if afterOps < 1 {
		afterOps = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm = &crashArm{
		target:    d.ops + afterOps,
		policy:    policy,
		seed:      seed,
		onTrigger: onTrigger,
	}
	d.frozen = nil
}

// DisarmCrash removes any armed trigger and discards a frozen image, so
// a subsequent PowerFail resolves the then-current state normally.
func (d *Domain) DisarmCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm = nil
	d.frozen = nil
}

// CrashTriggered reports whether an armed trigger has fired. A commit
// acknowledged while this still reads false completed strictly before
// the crash instant and must be durable after the PowerFail — the
// classification edge a crash-consistency oracle needs.
func (d *Domain) CrashTriggered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arm != nil && d.arm.triggered
}

// OpCount returns the persistence-operation counter, the coordinate
// space ArmCrash targets live in.
func (d *Domain) OpCount() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Recover clears the failed state after a PowerFail, modelling reboot:
// the volatile view is re-initialized from persisted NVRAM content.
func (d *Domain) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.failed {
		return
	}
	copy(d.volatileMem, d.persisted)
	d.failed = false
}

// Failed reports whether the domain is in the post-PowerFail state.
func (d *Domain) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// DirtyLines reports the number of dirty lines currently cached; useful
// for tests and for the Table 1 accounting.
func (d *Domain) DirtyLines() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dirtyCount
}

// lru helpers; caller holds d.mu.

func (d *Domain) lruPushFront(n *lruNode) {
	n.prev = nil
	n.next = d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = n
	}
	d.lruHead = n
	if d.lruTail == nil {
		d.lruTail = n
	}
}

func (d *Domain) lruRemove(n *lruNode) {
	if n == nil {
		return
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		d.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		d.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (d *Domain) lruMoveFront(n *lruNode) {
	if d.lruHead == n {
		return
	}
	d.lruRemove(n)
	d.lruPushFront(n)
}
