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
	"math"
	"math/bits"
	"math/rand"
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

	lineShift uint      // log2 of the cache line size
	t         lineTable // per-line cache and controller-queue state

	// What the current call owes the clock and the counters, accumulated
	// line by line and barrier by barrier under d.mu and published once by
	// publishLocked before the call returns (and before an armed crash
	// trigger fires, so the frozen image is resolved at the right time).
	// Virtual "now" under the lock is nowLocked, which includes owed.
	owed                   time.Duration
	owedMemcpy, owedFlush  time.Duration
	owedFlushes, owedLines int64
	owedDmbs, owedPersists int64
	owedSyscalls           int64

	// The cells this domain adds to on its store, flush and barrier
	// paths, bound once; the rare fault counters go by name.
	cFlushes, cLineWrites, cBytes, cDmb, cPersistBarriers, cSyscalls *metrics.Cell
	tMemcpy, tFlush, tDmb, tPersist, tSyscall                        *metrics.Cell

	// bankFree[i] is the time bank i finishes its queued write-backs;
	// lastCompletion is the max across banks (what barriers wait for).
	bankFree       []time.Duration
	lastCompletion time.Duration

	// ops counts persistence operations (stores, per-line flushes,
	// barriers) for the ArmCrash trigger; armAt is the count at which an
	// armed, unfired trigger fires (MaxInt64 when there is none), so the
	// per-line check is one compare.
	ops    int64
	armAt  int64
	arm    *crashArm
	frozen []byte // durable image captured when the armed trigger fired

	faults *faultState // media-fault model; nil when not injected

	failed bool
}

// New creates a Domain with the given configuration, clock and metrics
// sink. clock and m must not be nil; the cache line size must be a power
// of two.
func New(cfg Config, clock *simclock.Clock, m *metrics.Counters) *Domain {
	cfg = cfg.withDefaults()
	if cfg.CacheLineSize&(cfg.CacheLineSize-1) != 0 {
		panic(fmt.Sprintf("memsim: cache line size %d is not a power of two", cfg.CacheLineSize))
	}
	return &Domain{
		cfg:         cfg,
		clock:       clock,
		m:           m,
		volatileMem: make([]byte, cfg.Size),
		persisted:   make([]byte, cfg.Size),
		lineShift:   uint(bits.TrailingZeros(uint(cfg.CacheLineSize))),
		t:           newLineTable(cfg.Size, cfg.CacheLineSize),
		bankFree:    make([]time.Duration, cfg.NVRAMBanks),
		armAt:       math.MaxInt64,

		cFlushes:         m.Cell(metrics.CacheLineFlush),
		cLineWrites:      m.Cell(metrics.NVRAMLineWrites),
		cBytes:           m.Cell(metrics.NVRAMBytes),
		cDmb:             m.Cell(metrics.MemoryBarrier),
		cPersistBarriers: m.Cell(metrics.PersistBarrier),
		cSyscalls:        m.Cell(metrics.Syscall),
		tMemcpy:          m.Cell(metrics.TimeMemcpy),
		tFlush:           m.Cell(metrics.TimeFlush),
		tDmb:             m.Cell(metrics.TimeBarrier),
		tPersist:         m.Cell(metrics.TimePersist),
		tSyscall:         m.Cell(metrics.TimeSyscall),
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

// nowLocked is the virtual time as this call has advanced it so far.
// Caller holds d.mu.
func (d *Domain) nowLocked() time.Duration { return d.clock.Now() + d.owed }

// publishLocked pays what the call accumulated: one clock advance and
// one add per counter instead of one of each per line or barrier. A
// counter is added to only when the call moved it, so Snapshot lists
// the names it always listed. Caller holds d.mu.
func (d *Domain) publishLocked() {
	d.clock.Advance(d.owed)
	if d.owedMemcpy > 0 {
		d.tMemcpy.Add(int64(d.owedMemcpy))
	}
	if d.owedFlush > 0 {
		d.tFlush.Add(int64(d.owedFlush))
	}
	if d.owedFlushes > 0 {
		d.cFlushes.Add(d.owedFlushes)
	}
	if d.owedLines > 0 {
		d.cLineWrites.Add(d.owedLines)
		d.cBytes.Add(d.owedLines << d.lineShift)
	}
	if d.owedDmbs > 0 {
		d.cDmb.Add(d.owedDmbs)
		d.tDmb.Add(d.owedDmbs * int64(d.cfg.BarrierCost))
	}
	if d.owedPersists > 0 {
		d.cPersistBarriers.Add(d.owedPersists)
		d.tPersist.Add(d.owedPersists * int64(d.cfg.PersistBarrierCost))
	}
	if d.owedSyscalls > 0 {
		d.cSyscalls.Add(d.owedSyscalls)
		d.tSyscall.Add(d.owedSyscalls * int64(SyscallCost))
	}
	d.owed, d.owedMemcpy, d.owedFlush, d.owedFlushes, d.owedLines = 0, 0, 0, 0, 0
	d.owedDmbs, d.owedPersists, d.owedSyscalls = 0, 0, 0
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
	d.storedLocked(addr, len(p))
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
	d.storedLocked(addr, n)
}

// storedLocked accounts for one store burst of n bytes at addr whose
// data is already in volatileMem: the per-line CPU cost, the lines it
// dirtied (and any evictions they forced), one op. Caller holds d.mu.
func (d *Domain) storedLocked(addr uint64, n int) {
	first := int32(addr >> d.lineShift)
	last := int32((addr + uint64(n) - 1) >> d.lineShift)
	nLines := int(last-first) + 1
	cost := time.Duration(nLines) * d.cfg.StoreCostPerLine
	d.owed += cost
	d.owedMemcpy += cost
	d.applySlowFaultLocked(uint64(first)<<d.lineShift, uint64(last)<<d.lineShift, nLines)

	for line := first; line <= last; line++ {
		d.touchDirty(line)
	}
	d.countOpLocked()
	d.publishLocked()
}

// touchDirty marks a line dirty and most-recently-used, evicting the LRU
// dirty line if the cache is over capacity. Caller holds d.mu.
func (d *Domain) touchDirty(line int32) {
	t := &d.t
	s := t.index[line]
	if s == 0 {
		s = t.acquire(line)
	}
	if t.slots[s].dirty {
		t.lruMoveFront(s)
		return
	}
	t.slots[s].dirty = true
	t.lruPushFront(s)
	t.dirty++
	for t.dirty > d.cfg.CacheCapacityLines && t.lruTail != 0 {
		// Hardware eviction: the write-back is enqueued on the controller
		// and its cost is absorbed by the ongoing memcpy phase — this is
		// the "masking" of flush overhead §5.1 observes under lazy
		// synchronization.
		d.owed += d.cfg.FlushIssueCost
		d.owedMemcpy += d.cfg.FlushIssueCost
		d.enqueueLocked(t.lruTail)
	}
}

// enqueueLocked moves dirty slot s from the cache to the controller
// queue: the line's content is snapshotted and its bank services it
// after the bank's queued predecessors. The controller receives the
// write-back when the dccmvac (or eviction) completes, so the caller
// has already added the issue cost to d.owed. Caller holds d.mu.
func (d *Domain) enqueueLocked(s int32) {
	t := &d.t
	sl := &t.slots[s]
	sl.dirty = false
	t.lruRemove(s)
	t.dirty--

	la := uint64(sl.line) << d.lineShift
	copy(t.snap(s), d.volatileMem[la:])
	if !sl.queued {
		sl.queued = true
		t.queued = append(t.queued, s)
	}

	bank := int(sl.line) % d.cfg.NVRAMBanks
	start := d.nowLocked()
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	sl.completion = start + d.cfg.NVRAMWriteLatency
	d.bankFree[bank] = sl.completion
	if sl.completion > d.lastCompletion {
		d.lastCompletion = sl.completion
	}
	d.owedLines++
}

// drainQueueLocked makes every queued write-back durable and releases
// the slots of the lines that are clean afterwards. Caller holds d.mu.
func (d *Domain) drainQueueLocked() {
	t := &d.t
	for _, s := range t.queued {
		sl := &t.slots[s]
		d.persistLineLocked(d.persisted, uint64(sl.line)<<d.lineShift, t.snap(s))
		sl.queued = false
		if !sl.dirty {
			t.release(s)
		}
	}
	t.queued = t.queued[:0]
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
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushLocked(start, end)
	d.publishLocked()
}

// flushLocked is CacheLineFlush's body. Caller holds d.mu.
func (d *Domain) flushLocked(start, end uint64) {
	if end <= start {
		return
	}
	d.checkRange(start, int(end-start))
	if d.failed {
		return
	}
	t := &d.t
	first := int32(start >> d.lineShift)
	last := int32((end - 1) >> d.lineShift)
	for line := first; line <= last; line++ {
		// The instruction executes, and costs its issue time, whether or
		// not it finds a dirty line to write back.
		d.owedFlushes++
		d.owed += d.cfg.FlushIssueCost
		d.owedFlush += d.cfg.FlushIssueCost
		if s := t.index[line]; s != 0 && t.slots[s].dirty {
			d.enqueueLocked(s)
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
	d.syscallLocked()
	d.publishLocked()
}

// syscallLocked is Syscall's body. It is charged on a failed domain
// too: the crossing is CPU work, not a store. Caller holds d.mu.
func (d *Domain) syscallLocked() {
	d.owedSyscalls++
	d.owed += SyscallCost
}

// barrierLocked blocks until the memory controller has serviced every
// outstanding write-back, then pays the barrier's own fixed cost. The
// wait is flush completion, so it is attributed to the flush phase; the
// fixed cost (counted by the caller) to the barrier's phase. Caller
// holds d.mu.
func (d *Domain) barrierLocked(cost time.Duration) {
	if wait := d.lastCompletion - d.nowLocked(); wait > 0 {
		d.owed += wait
		d.owedFlush += wait
	}
	d.owed += cost
}

// MemoryBarrier models dmb: it blocks until every outstanding write-back
// has been serviced by the memory controller. The waiting time is
// attributed to the flush phase; the barrier's fixed cost to the barrier
// phase.
func (d *Domain) MemoryBarrier() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dmbLocked()
	d.publishLocked()
}

// dmbLocked is MemoryBarrier's body. Caller holds d.mu.
func (d *Domain) dmbLocked() {
	if d.failed {
		return
	}
	d.owedDmbs++
	d.barrierLocked(d.cfg.BarrierCost)
	d.countOpLocked()
}

// PersistBarrier drains the memory-controller queue into NVRAM cells and
// guarantees durability of everything flushed before it, at the fixed
// persist-barrier cost (§5.3 emulates it as a 1 µs delay).
func (d *Domain) PersistBarrier() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.persistLocked()
	d.publishLocked()
}

// persistLocked is PersistBarrier's body. Caller holds d.mu.
func (d *Domain) persistLocked() {
	if d.failed {
		return
	}
	d.owedPersists++
	d.barrierLocked(d.cfg.PersistBarrierCost)
	d.drainQueueLocked()
	// Counted after the queue drains, so a crash armed at this op index
	// observes the barrier's durability effect (a crash "at" a persist
	// barrier means the barrier completed; crashes inside the drain are
	// exercised by arming on the flushes that precede it).
	d.countOpLocked()
}

// SyncPhase selects the optional steps of a Sync call.
type SyncPhase uint8

const (
	// SyncFence opens the phase with a dmb, ordering the stores before
	// it ahead of its flushes (Algorithm 1 line 21).
	SyncFence SyncPhase = 1 << iota
	// SyncSyscall charges one kernel-mode switch before each range's
	// flushes: the cache_line_flush() system call user code makes.
	SyncSyscall
	// SyncPersist closes the phase with a persist barrier after its
	// closing dmb.
	SyncPersist
)

// Sync runs one synchronization phase of Algorithm 1 in one call: a dmb
// if p has SyncFence; for each range, shifted by base, a kernel-mode
// switch if p has SyncSyscall and the dccmvac loop over its lines; a
// dmb; a persist barrier if p has SyncPersist. It runs the bodies of
// MemoryBarrier, Syscall, CacheLineFlush and PersistBarrier in that
// order under one hold of the domain mutex, so the virtual costs, the
// counters and the op numbering ArmCrash targets are exactly those of
// the separate calls; the clock and the counters are published once, at
// the end (or at an armed crash's instant, as every call does).
func (d *Domain) Sync(base uint64, ranges []AddrRange, p SyncPhase) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p&SyncFence != 0 {
		d.dmbLocked()
	}
	for _, r := range ranges {
		if p&SyncSyscall != 0 {
			d.syscallLocked()
		}
		d.flushLocked(base+r.Start, base+r.End)
	}
	d.dmbLocked()
	if p&SyncPersist != 0 {
		d.persistLocked()
	}
	d.publishLocked()
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
	d.owedPersists++
	// Hardware write-back of all dirty lines: enqueue without per-line
	// issue cost (no instructions are executed for them).
	for d.t.lruTail != 0 {
		d.enqueueLocked(d.t.lruTail)
	}
	d.barrierLocked(d.cfg.PersistBarrierCost)
	d.drainQueueLocked()
	d.publishLocked()
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
	d.arm, d.armAt = nil, math.MaxInt64
	d.t.reset()
	d.lastCompletion = 0
	for i := range d.bankFree {
		d.bankFree[i] = 0
	}
	// The volatile view a reboot starts from. Nothing changes either
	// image while failed (stores, flushes and barriers are dropped), so
	// Recover has nothing left to copy.
	copy(d.volatileMem, d.persisted)
	d.failed = true
}

// resolveSurvivorsLocked applies a fail policy to the current cache and
// controller-queue state, writing surviving lines into dst. Lines are
// visited in ascending address order — the order of the index — so the
// adversarial policy's seeded choices are deterministic. Caller holds
// d.mu.
func (d *Domain) resolveSurvivorsLocked(dst []byte, policy FailPolicy, seed int64) {
	t := &d.t
	remaining := t.live()
	if policy == FailDropAll || remaining == 0 {
		return // nothing survives
	}
	rng := rand.New(rand.NewSource(seed))
	now := d.clock.Now()
	for line, s := range t.index {
		if s == 0 {
			continue
		}
		sl := &t.slots[s]
		la := uint64(line) << d.lineShift
		switch policy {
		case FailKeepCompleted:
			if sl.queued && sl.completion <= now {
				d.persistLineLocked(dst, la, t.snap(s))
			}
		case FailAdversarial:
			if sl.queued && rng.Intn(2) == 0 {
				d.persistLineLocked(dst, la, t.snap(s))
			}
			if sl.dirty && rng.Intn(4) == 0 {
				// Spontaneous hardware eviction made this line durable
				// even though it was never explicitly flushed.
				d.persistLineLocked(dst, la, d.volatileMem[la:la+uint64(d.cfg.CacheLineSize)])
			}
		}
		if remaining--; remaining == 0 {
			break
		}
	}
}

// countOpLocked advances the persistence-operation counter and fires the
// armed crash trigger when the counter reaches its target. Small enough
// to inline: it runs once per flushed line. Caller holds d.mu.
func (d *Domain) countOpLocked() {
	d.ops++
	if d.ops >= d.armAt {
		d.fireCrashLocked()
	}
}

// fireCrashLocked captures the durable image a PowerFail at this instant
// would leave behind into d.frozen, under the same mutex hold as the
// operation that reached the target, so no concurrent store can slip
// into it. Caller holds d.mu.
func (d *Domain) fireCrashLocked() {
	d.armAt = math.MaxInt64
	d.arm.triggered = true
	// The crash instant is now: the clock must read it before the
	// survivors are resolved and the sibling devices freeze.
	d.publishLocked()
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
		policy:    policy,
		seed:      seed,
		onTrigger: onTrigger,
	}
	d.armAt = d.ops + afterOps
	d.frozen = nil
}

// DisarmCrash removes any armed trigger and discards a frozen image, so
// a subsequent PowerFail resolves the then-current state normally.
func (d *Domain) DisarmCrash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arm, d.armAt = nil, math.MaxInt64
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

// Recover clears the failed state after a PowerFail, modelling reboot.
// The volatile view already equals the persisted content: PowerFail left
// it so, and a failed domain drops every store.
func (d *Domain) Recover() {
	d.mu.Lock()
	defer d.mu.Unlock()
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
	return d.t.dirty
}
