// Property test for the line table: seeded random scripts run against
// the Domain and against refDomain, the bookkeeping the Domain had
// before the table (a map of pointers to per-line states, a pointer LRU,
// a sorted walk of the map's keys at a power failure, one clock advance
// and four by-name counter updates per line). refDomain lives in this
// file only; it is the reference, not a second implementation to keep
// in step with features.
package memsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

type refLine struct {
	dirty      bool
	lru        *refNode
	queued     bool
	snap       []byte
	completion time.Duration
}

type refNode struct {
	addr       uint64
	prev, next *refNode
}

type refDomain struct {
	cfg   Config
	clock *simclock.Clock
	m     *metrics.Counters

	volatileMem, persisted []byte

	lines            map[uint64]*refLine
	queued           []uint64
	lruHead, lruTail *refNode
	dirtyCount       int

	bankFree       []time.Duration
	lastCompletion time.Duration

	ops      int64
	armed    bool
	armAt    int64
	armSeed  int64
	armPol   FailPolicy
	frozen   []byte
	faults   *faultState
	failed   bool
	lineSize uint64
}

func newRefDomain(cfg Config) *refDomain {
	cfg = cfg.withDefaults()
	return &refDomain{
		cfg:         cfg,
		clock:       simclock.New(),
		m:           &metrics.Counters{},
		volatileMem: make([]byte, cfg.Size),
		persisted:   make([]byte, cfg.Size),
		lines:       make(map[uint64]*refLine),
		bankFree:    make([]time.Duration, cfg.NVRAMBanks),
		lineSize:    uint64(cfg.CacheLineSize),
	}
}

func (d *refDomain) injectFaults(cfg FaultConfig) {
	d.faults = &faultState{
		cfg:     cfg,
		slowRng: rand.New(rand.NewSource(int64(splitmix64(uint64(cfg.Seed) ^ 0x510Afa17)))),
		stuck:   make(map[uint64][]byte),
	}
}

func (d *refDomain) lineAddr(a uint64) uint64 { return a &^ (d.lineSize - 1) }

func (d *refDomain) write(addr uint64, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || d.failed {
		return
	}
	pos := addr
	for _, p := range parts {
		copy(d.volatileMem[pos:], p)
		pos += uint64(len(p))
	}
	first, last := d.lineAddr(addr), d.lineAddr(addr+uint64(n)-1)
	nLines := int((last-first)/d.lineSize) + 1
	d.clock.Advance(time.Duration(nLines) * d.cfg.StoreCostPerLine)
	d.m.AddTime(metrics.TimeMemcpy, time.Duration(nLines)*d.cfg.StoreCostPerLine)
	d.slowFault(first, last, nLines)
	for la := first; la <= last; la += d.lineSize {
		d.touchDirty(la)
	}
	d.countOp()
}

func (d *refDomain) slowFault(first, last uint64, nLines int) {
	f := d.faults
	if f == nil || !f.cfg.slowEnabled() {
		return
	}
	var extra time.Duration
	if f.cfg.SlowFactor > 1 {
		for _, r := range f.cfg.SlowRanges {
			if first < r.End && last >= r.Start {
				extra += time.Duration(nLines) * d.cfg.StoreCostPerLine * time.Duration(f.cfg.SlowFactor-1)
				break
			}
		}
	}
	if f.cfg.SlowOpRate > 0 && f.slowRng.Float64() < f.cfg.SlowOpRate {
		extra += f.cfg.SlowOpDelay
	}
	if extra > 0 {
		d.clock.Advance(extra)
		d.m.Inc(metrics.SlowFaultStalls, 1)
		d.m.Inc(metrics.SlowFaultStallNs, extra.Nanoseconds())
	}
}

func (d *refDomain) touchDirty(la uint64) {
	st := d.lines[la]
	if st == nil {
		st = &refLine{}
		d.lines[la] = st
	}
	if st.dirty {
		if d.lruHead != st.lru {
			d.lruRemove(st.lru)
			d.lruPushFront(st.lru)
		}
		return
	}
	st.dirty = true
	st.lru = &refNode{addr: la}
	d.lruPushFront(st.lru)
	d.dirtyCount++
	for d.dirtyCount > d.cfg.CacheCapacityLines && d.lruTail != nil {
		d.writeBack(d.lruTail.addr, metrics.TimeMemcpy)
	}
}

func (d *refDomain) writeBack(la uint64, timeKey string) {
	d.clock.Advance(d.cfg.FlushIssueCost)
	d.m.AddTime(timeKey, d.cfg.FlushIssueCost)
	d.enqueue(la, d.lines[la])
}

func (d *refDomain) enqueue(la uint64, st *refLine) {
	st.dirty = false
	d.lruRemove(st.lru)
	st.lru = nil
	d.dirtyCount--
	if !st.queued {
		d.queued = append(d.queued, la)
	}
	st.queued = true
	st.snap = append(st.snap[:0], d.volatileMem[la:la+d.lineSize]...)

	bank := int(la/d.lineSize) % d.cfg.NVRAMBanks
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
	d.m.Inc(metrics.NVRAMBytes, int64(d.lineSize))
}

func (d *refDomain) persistLine(dst []byte, la uint64, src []byte) {
	if f := d.faults; f != nil && f.isStuck(la) {
		frozen, ok := f.stuck[la]
		if !ok {
			frozen = append([]byte(nil), dst[la:la+d.lineSize]...)
			f.stuck[la] = frozen
			d.m.Inc(metrics.MediaStuckLines, 1)
		}
		copy(dst[la:], frozen)
		return
	}
	copy(dst[la:], src)
}

func (d *refDomain) drain() {
	for _, la := range d.queued {
		st := d.lines[la]
		d.persistLine(d.persisted, la, st.snap)
		st.queued = false
		if !st.dirty {
			delete(d.lines, la)
		}
	}
	d.queued = d.queued[:0]
}

func (d *refDomain) flush(start, end uint64) {
	if end <= start || d.failed {
		return
	}
	for la := d.lineAddr(start); la <= d.lineAddr(end-1); la += d.lineSize {
		d.m.Inc(metrics.CacheLineFlush, 1)
		if st := d.lines[la]; st != nil && st.dirty {
			d.writeBack(la, metrics.TimeFlush)
		} else {
			d.clock.Advance(d.cfg.FlushIssueCost)
			d.m.AddTime(metrics.TimeFlush, d.cfg.FlushIssueCost)
		}
		d.countOp()
	}
}

func (d *refDomain) await() {
	if now := d.clock.Now(); d.lastCompletion > now {
		d.clock.Advance(d.lastCompletion - now)
		d.m.AddTime(metrics.TimeFlush, d.lastCompletion-now)
	}
}

func (d *refDomain) memoryBarrier() {
	if d.failed {
		return
	}
	d.m.Inc(metrics.MemoryBarrier, 1)
	d.await()
	d.clock.Advance(d.cfg.BarrierCost)
	d.m.AddTime(metrics.TimeBarrier, d.cfg.BarrierCost)
	d.countOp()
}

func (d *refDomain) persistBarrier(epoch bool) {
	if d.failed {
		return
	}
	d.m.Inc(metrics.PersistBarrier, 1)
	if epoch {
		for d.lruTail != nil {
			d.enqueue(d.lruTail.addr, d.lines[d.lruTail.addr])
		}
	}
	d.await()
	d.clock.Advance(d.cfg.PersistBarrierCost)
	d.m.AddTime(metrics.TimePersist, d.cfg.PersistBarrierCost)
	d.drain()
	if !epoch {
		d.countOp()
	}
}

func (d *refDomain) syscall() {
	d.clock.Advance(SyscallCost)
	d.m.Inc(metrics.Syscall, 1)
	d.m.AddTime(metrics.TimeSyscall, SyscallCost)
}

// sync is a Sync phase as the separate calls it stands for.
func (d *refDomain) sync(ranges []AddrRange, p SyncPhase) {
	if p&SyncFence != 0 {
		d.memoryBarrier()
	}
	for _, r := range ranges {
		if p&SyncSyscall != 0 {
			d.syscall()
		}
		d.flush(r.Start, r.End)
	}
	d.memoryBarrier()
	if p&SyncPersist != 0 {
		d.persistBarrier(false)
	}
}

func (d *refDomain) resolveSurvivors(dst []byte, policy FailPolicy, seed int64) {
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
		case FailKeepCompleted:
			if st.queued && st.completion <= now {
				d.persistLine(dst, la, st.snap)
			}
		case FailAdversarial:
			if st.queued && rng.Intn(2) == 0 {
				d.persistLine(dst, la, st.snap)
			}
			if st.dirty && rng.Intn(4) == 0 {
				d.persistLine(dst, la, d.volatileMem[la:la+d.lineSize])
			}
		}
	}
}

func (d *refDomain) countOp() {
	d.ops++
	if !d.armed || d.ops < d.armAt {
		return
	}
	d.armed = false
	d.frozen = append([]byte(nil), d.persisted...)
	d.resolveSurvivors(d.frozen, d.armPol, d.armSeed)
}

func (d *refDomain) armCrash(afterOps int64, policy FailPolicy, seed int64) {
	d.armed, d.armAt, d.armPol, d.armSeed = true, d.ops+afterOps, policy, seed
	d.frozen = nil
}

func (d *refDomain) powerFail(policy FailPolicy, seed int64) {
	if d.frozen != nil {
		copy(d.persisted, d.frozen)
		d.frozen = nil
	} else {
		d.resolveSurvivors(d.persisted, policy, seed)
	}
	d.armed = false
	d.lines = make(map[uint64]*refLine)
	d.queued = d.queued[:0]
	d.lruHead, d.lruTail, d.dirtyCount = nil, nil, 0
	d.lastCompletion = 0
	for i := range d.bankFree {
		d.bankFree[i] = 0
	}
	copy(d.volatileMem, d.persisted)
	d.failed = true
}

func (d *refDomain) recover() {
	copy(d.volatileMem, d.persisted)
	d.failed = false
}

func (d *refDomain) lruPushFront(n *refNode) {
	n.prev, n.next = nil, d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = n
	}
	d.lruHead = n
	if d.lruTail == nil {
		d.lruTail = n
	}
}

func (d *refDomain) lruRemove(n *refNode) {
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

// TestLineTableMatchesMapReference: after every step of a random script
// the Domain and the reference agree on the durable image, the volatile
// view, the clock, the op count, the dirty-line count and the counters
// as rendered text. The cache holds 24 lines, so evictions are routine;
// a quarter of the domain is a slow range, stores stall at a seeded
// rate, some lines are stuck; crashes are armed and power fails under
// the policy of the subtest.
func TestLineTableMatchesMapReference(t *testing.T) {
	const (
		size  = 16 << 10
		hot   = 2 << 10
		steps = 3000
	)
	for _, policy := range []FailPolicy{FailDropAll, FailKeepCompleted, FailAdversarial} {
		policy := policy
		t.Run(fmt.Sprint("policy", int(policy)), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				cfg := Config{Size: size, CacheCapacityLines: 24}
				if seed%2 == 0 {
					cfg.CacheLineSize, cfg.NVRAMBanks = 64, 2
				}
				faults := FaultConfig{
					Seed:          seed,
					StuckLineRate: 0.01,
					SlowOpRate:    0.05,
					SlowOpDelay:   3 * time.Microsecond,
					SlowRanges:    []AddrRange{{Start: size / 2, End: 3 * size / 4}, {Start: 0, End: 256}},
					SlowFactor:    4,
				}
				clock, m := simclock.New(), &metrics.Counters{}
				d := New(cfg, clock, m)
				d.InjectFaults(faults)
				ref := newRefDomain(cfg)
				ref.injectFaults(faults)

				rng := rand.New(rand.NewSource(seed*977 + int64(policy)))
				// Same package, one goroutine: the images are compared in place.
				check := func(step int, what string) {
					t.Helper()
					if !bytes.Equal(d.persisted, ref.persisted) {
						t.Fatalf("seed %d step %d (%s): durable images differ", seed, step, what)
					}
					if !bytes.Equal(d.volatileMem, ref.volatileMem) {
						t.Fatalf("seed %d step %d (%s): volatile views differ", seed, step, what)
					}
					if d.Failed() != ref.failed {
						t.Fatalf("seed %d step %d (%s): failed %v, reference %v", seed, step, what, d.Failed(), ref.failed)
					}
					if clock.Now() != ref.clock.Now() || d.OpCount() != ref.ops || d.DirtyLines() != ref.dirtyCount {
						t.Fatalf("seed %d step %d (%s): clock %v/%v ops %d/%d dirty %d/%d (got/reference)", seed, step, what,
							clock.Now(), ref.clock.Now(), d.OpCount(), ref.ops, d.DirtyLines(), ref.dirtyCount)
					}
					if g, w := m.Snapshot().String(), ref.m.Snapshot().String(); g != w {
						t.Fatalf("seed %d step %d (%s): counters differ\n got:\n%s\nwant:\n%s", seed, step, what, g, w)
					}
				}
				addr := func(n int) uint64 {
					if rng.Intn(4) == 0 {
						return uint64(rng.Intn(size - n))
					}
					return uint64(rng.Intn(hot - n))
				}
				payload := func() []byte {
					p := make([]byte, 1+rng.Intn(200))
					rng.Read(p)
					return p
				}
				for i := 0; i < steps; i++ {
					var what string
					switch r := rng.Intn(100); {
					case r < 35:
						what = "write"
						p := payload()
						a := addr(len(p))
						d.Write(a, p)
						ref.write(a, p)
					case r < 45:
						what = "writev"
						p, q := payload(), payload()
						a := addr(len(p) + len(q))
						d.WriteV(a, p, q)
						ref.write(a, p, q)
					case r < 54:
						what = "flush"
						n := 1 + rng.Intn(600)
						a := addr(n)
						d.CacheLineFlush(a, a+uint64(n))
						ref.flush(a, a+uint64(n))
					case r < 62:
						what = "sync"
						ranges, phase := syncScript(rng, addr)
						d.Sync(0, ranges, phase)
						ref.sync(ranges, phase)
					case r < 72:
						what = "dmb"
						d.MemoryBarrier()
						ref.memoryBarrier()
					case r < 84:
						what = "persist"
						d.PersistBarrier()
						ref.persistBarrier(false)
					case r < 88:
						what = "epoch"
						d.EpochBarrier()
						ref.persistBarrier(true)
					case r < 94:
						what = "arm"
						after, s := int64(1+rng.Intn(30)), rng.Int63()
						d.ArmCrash(after, policy, s, nil)
						ref.armCrash(after, policy, s)
					case r < 97:
						what = "powerfail"
						s := rng.Int63()
						d.PowerFail(policy, s)
						ref.powerFail(policy, s)
						check(i, what)
						// A ghost store against the failed domain is dropped.
						p := payload()
						a := addr(len(p))
						d.Write(a, p)
						ref.write(a, p)
						check(i, "ghost write")
						what = "recover"
						d.Recover()
						ref.recover()
					default:
						what = "big write"
						p := make([]byte, 30*d.LineSize())
						rng.Read(p)
						a := addr(len(p))
						d.Write(a, p)
						ref.write(a, p)
					}
					check(i, what)
				}
			}
		})
	}
}

// syncScript draws a Sync phase: one to four ranges from addr (an empty
// one now and then) and any combination of the optional steps.
func syncScript(rng *rand.Rand, addr func(n int) uint64) ([]AddrRange, SyncPhase) {
	ranges := make([]AddrRange, 1+rng.Intn(4))
	for i := range ranges {
		n := rng.Intn(300)
		a := addr(n + 1)
		ranges[i] = AddrRange{Start: a, End: a + uint64(n)}
	}
	return ranges, SyncPhase(rng.Intn(8))
}

// TestSyncMatchesSeparateCalls arms a crash at every op index of a Sync
// phase — its dmbs, each flushed line, its persist barrier — and one
// past it, on a domain that runs the phase as one Sync call and on one
// that runs the separate calls it stands for. At the trigger instant
// (read by onTrigger) and after the phase, the clocks, the counters and
// the op counts agree, and so do the frozen durable images.
func TestSyncMatchesSeparateCalls(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Size: 16 << 10, CacheCapacityLines: 24}
		if seed%2 == 0 {
			cfg.CacheLineSize, cfg.NVRAMBanks = 64, 2
		}
		var setup []func(d *Domain)
		for i := 0; i < 40; i++ {
			p := make([]byte, 1+rng.Intn(200))
			rng.Read(p)
			a := uint64(rng.Intn(cfg.Size - len(p)))
			setup = append(setup, func(d *Domain) { d.Write(a, p) })
		}
		ranges, phase := syncScript(rng, func(n int) uint64 { return uint64(rng.Intn(cfg.Size - n)) })
		separate := func(d *Domain) {
			if phase&SyncFence != 0 {
				d.MemoryBarrier()
			}
			for _, r := range ranges {
				if phase&SyncSyscall != 0 {
					d.Syscall()
				}
				d.CacheLineFlush(r.Start, r.End)
			}
			d.MemoryBarrier()
			if phase&SyncPersist != 0 {
				d.PersistBarrier()
			}
		}
		type outcome struct {
			atTrigger, after string
			frozen           []byte
		}
		// run arms a crash at op after (0: none) and runs setup and the
		// phase, in one call or as separate calls.
		run := func(after int64, policy FailPolicy, oneCall bool) outcome {
			clock, m := simclock.New(), &metrics.Counters{}
			d := New(cfg, clock, m)
			var o outcome
			if after > 0 {
				d.ArmCrash(after, policy, seed, func() {
					o.atTrigger = fmt.Sprintf("clock %v ops %d\n%s", clock.Now(), d.ops, m.Snapshot())
				})
			}
			for _, f := range setup {
				f(d)
			}
			if oneCall {
				d.Sync(0, ranges, phase)
			} else {
				separate(d)
			}
			o.after = fmt.Sprintf("clock %v ops %d\n%s", clock.Now(), d.OpCount(), m.Snapshot())
			o.frozen = d.frozen
			return o
		}
		if got, want := run(0, FailDropAll, true), run(0, FailDropAll, false); got.after != want.after {
			t.Fatalf("seed %d: after the phase\n got: %s\nwant: %s", seed, got.after, want.after)
		}
		d := New(cfg, simclock.New(), &metrics.Counters{})
		for _, f := range setup {
			f(d)
		}
		separate(d)
		phaseEnd := d.OpCount()
		for _, policy := range []FailPolicy{FailDropAll, FailKeepCompleted, FailAdversarial} {
			// setup's stores are one op each; the phase's ops follow.
			for after := int64(len(setup)) + 1; after <= phaseEnd+1; after++ {
				got, want := run(after, policy, true), run(after, policy, false)
				if fired := got.atTrigger != ""; fired != (after <= phaseEnd) {
					t.Fatalf("seed %d crash at op %d of %d: fired %v", seed, after, phaseEnd, fired)
				}
				if got.atTrigger != want.atTrigger {
					t.Fatalf("seed %d policy %d crash at op %d: at the trigger\n got: %s\nwant: %s", seed, policy, after, got.atTrigger, want.atTrigger)
				}
				if got.after != want.after {
					t.Fatalf("seed %d policy %d crash at op %d: after the phase\n got: %s\nwant: %s", seed, policy, after, got.after, want.after)
				}
				if !bytes.Equal(got.frozen, want.frozen) {
					t.Fatalf("seed %d policy %d crash at op %d: frozen images differ", seed, policy, after)
				}
			}
		}
	}
}

// TestStoreWhileFailedInvisibleAfterRecover: Recover copies nothing, so
// what keeps a ghost store out of the rebooted view is that it was
// dropped in the first place — under every policy, and also when the
// store raced into the window between PowerFail and Recover together
// with a flush and both barriers.
func TestStoreWhileFailedInvisibleAfterRecover(t *testing.T) {
	for _, policy := range []FailPolicy{FailDropAll, FailKeepCompleted, FailAdversarial} {
		d, _, _ := newDomain(t, Config{Size: 1 << 16})
		durable := bytes.Repeat([]byte{0xAA}, 96)
		writePersist(d, 128, durable)
		d.Write(512, []byte("dirty, never flushed"))
		d.PowerFail(policy, 7)
		afterFail := make([]byte, 1<<16)
		d.Read(0, afterFail)

		ghost := bytes.Repeat([]byte{0x55}, 96)
		d.Write(128, ghost)
		d.WriteV(4096, ghost, ghost)
		d.CacheLineFlush(0, 8192)
		d.MemoryBarrier()
		d.PersistBarrier()
		d.Sync(0, []AddrRange{{Start: 0, End: 8192}}, SyncFence|SyncSyscall|SyncPersist)
		d.EpochBarrier()
		d.Recover()

		got := make([]byte, 1<<16)
		d.Read(0, got)
		if !bytes.Equal(got, afterFail) {
			t.Fatalf("policy %d: a store made while failed is visible after Recover", policy)
		}
		d.ReadPersisted(0, got)
		if !bytes.Equal(got, afterFail) {
			t.Fatalf("policy %d: a store made while failed reached the durable image", policy)
		}
		if !bytes.Equal(got[128:128+96], durable) {
			t.Fatalf("policy %d: persisted bytes lost", policy)
		}
		// The rebooted domain works: a fresh store is visible and persists.
		writePersist(d, 128, ghost)
		d.ReadPersisted(128, got[:96])
		if !bytes.Equal(got[:96], ghost) {
			t.Fatalf("policy %d: store after Recover did not persist", policy)
		}
	}
}
