package memsim

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/alloctest"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func newDomain(t testing.TB, cfg Config) (*Domain, *simclock.Clock, *metrics.Counters) {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	if cfg.Size == 0 {
		cfg.Size = 1 << 20
	}
	return New(cfg, clock, m), clock, m
}

func TestReadYourWrites(t *testing.T) {
	d, _, _ := newDomain(t, Config{})
	data := []byte("hello nvram")
	d.Write(100, data)
	got := make([]byte, len(data))
	d.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
}

func TestUnpersistedDataLostOnPowerFail(t *testing.T) {
	d, _, _ := newDomain(t, Config{})
	d.Write(0, []byte("volatile"))
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	got := make([]byte, 8)
	d.Read(0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unflushed write survived power failure: %q", got)
	}
}

func TestFlushAloneDoesNotPersist(t *testing.T) {
	d, _, _ := newDomain(t, Config{})
	d.Write(0, []byte("flushed"))
	d.CacheLineFlush(0, 8)
	// No persist barrier: the line sits in the controller queue.
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	got := make([]byte, 8)
	d.Read(0, got)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("flushed-but-unpersisted write survived FailDropAll: %q", got)
	}
}

func TestFlushPlusPersistSurvives(t *testing.T) {
	d, _, _ := newDomain(t, Config{})
	data := []byte("durable!")
	d.Write(64, data)
	d.CacheLineFlush(64, 64+uint64(len(data)))
	d.MemoryBarrier()
	d.PersistBarrier()
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	got := make([]byte, len(data))
	d.Read(64, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("persisted write lost: got %q, want %q", got, data)
	}
}

func TestFailKeepCompletedKeepsDrainedLines(t *testing.T) {
	d, clock, _ := newDomain(t, Config{NVRAMWriteLatency: 100 * time.Nanosecond})
	d.Write(0, []byte("aaaa"))
	d.CacheLineFlush(0, 4)
	// Give the controller time to drain the write-back.
	clock.Advance(time.Millisecond)
	d.PowerFail(FailKeepCompleted, 1)
	d.Recover()
	got := make([]byte, 4)
	d.Read(0, got)
	if !bytes.Equal(got, []byte("aaaa")) {
		t.Fatalf("completed write-back lost under FailKeepCompleted: %q", got)
	}
}

func TestFailKeepCompletedDropsInFlightLines(t *testing.T) {
	d, _, _ := newDomain(t, Config{NVRAMWriteLatency: time.Hour})
	d.Write(0, []byte("aaaa"))
	d.CacheLineFlush(0, 4)
	// Controller needs an hour; crash immediately.
	d.PowerFail(FailKeepCompleted, 1)
	d.Recover()
	got := make([]byte, 4)
	d.Read(0, got)
	if !bytes.Equal(got, make([]byte, 4)) {
		t.Fatalf("in-flight write-back survived: %q", got)
	}
}

func TestPersistedViewTracksOnlyDurableBytes(t *testing.T) {
	d, _, _ := newDomain(t, Config{})
	d.Write(0, []byte("first"))
	d.CacheLineFlush(0, 5)
	d.MemoryBarrier()
	d.PersistBarrier()
	d.Write(0, []byte("second"))
	got := make([]byte, 6)
	d.ReadPersisted(0, got)
	if !bytes.Equal(got[:5], []byte("first")) {
		t.Fatalf("persisted view = %q, want prefix %q", got, "first")
	}
	d.Read(0, got)
	if !bytes.Equal(got, []byte("second")) {
		t.Fatalf("volatile view = %q, want %q", got, "second")
	}
}

func TestRewriteAfterFlushKeepsSnapshot(t *testing.T) {
	// A line flushed and then re-dirtied must persist the flushed
	// snapshot, not the newer content, if only the old flush is persisted.
	d, _, _ := newDomain(t, Config{})
	d.Write(0, []byte("AAAA"))
	d.CacheLineFlush(0, 4)
	d.Write(0, []byte("BBBB")) // re-dirty the same line
	d.MemoryBarrier()
	d.PersistBarrier()
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	got := make([]byte, 4)
	d.Read(0, got)
	if !bytes.Equal(got, []byte("AAAA")) {
		t.Fatalf("persisted content = %q, want snapshot %q", got, "AAAA")
	}
}

func TestEvictionWritesBackAndSurvivesPersist(t *testing.T) {
	// A tiny cache forces LRU eviction; evicted lines reach the
	// controller queue and persist at the next persist barrier.
	d, _, m := newDomain(t, Config{CacheCapacityLines: 2, CacheLineSize: 32})
	for i := 0; i < 8; i++ {
		d.Write(uint64(i*32), []byte{byte('a' + i)})
	}
	if got := d.DirtyLines(); got > 2 {
		t.Fatalf("dirty lines = %d, want <= 2", got)
	}
	if got := m.Count(metrics.NVRAMLineWrites); got < 6 {
		t.Fatalf("evictions wrote back %d lines, want >= 6", got)
	}
	d.PersistBarrier()
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	buf := make([]byte, 1)
	for i := 0; i < 6; i++ {
		d.Read(uint64(i*32), buf)
		if buf[0] != byte('a'+i) {
			t.Fatalf("evicted line %d lost: got %q", i, buf)
		}
	}
}

func TestMetricsCountsFlushesAndBarriers(t *testing.T) {
	d, _, m := newDomain(t, Config{CacheLineSize: 32})
	d.Write(0, make([]byte, 100)) // touches 4 lines
	d.CacheLineFlush(0, 100)
	d.MemoryBarrier()
	d.PersistBarrier()
	if got := m.Count(metrics.CacheLineFlush); got != 4 {
		t.Fatalf("flush count = %d, want 4", got)
	}
	if got := m.Count(metrics.MemoryBarrier); got != 1 {
		t.Fatalf("dmb count = %d, want 1", got)
	}
	if got := m.Count(metrics.PersistBarrier); got != 1 {
		t.Fatalf("persist count = %d, want 1", got)
	}
	if got := m.Count(metrics.NVRAMBytes); got != 4*32 {
		t.Fatalf("nvram bytes = %d, want %d", got, 4*32)
	}
}

func TestLazyBatchingCheaperThanEagerPerLine(t *testing.T) {
	// The §5.1 experiment in miniature: flushing N lines then issuing one
	// dmb must cost less virtual time than flush+dmb per line, because
	// issue overlaps the controller drain.
	run := func(eager bool) time.Duration {
		d, clock, _ := newDomain(t, Config{NVRAMWriteLatency: 500 * time.Nanosecond})
		const lines = 64
		for i := 0; i < lines; i++ {
			d.Write(uint64(i*32), make([]byte, 32))
		}
		start := clock.Now()
		if eager {
			for i := 0; i < lines; i++ {
				d.CacheLineFlush(uint64(i*32), uint64(i*32+32))
				d.MemoryBarrier()
			}
		} else {
			for i := 0; i < lines; i++ {
				d.CacheLineFlush(uint64(i*32), uint64(i*32+32))
			}
			d.MemoryBarrier()
		}
		d.PersistBarrier()
		return clock.Now() - start
	}
	lazy, eager := run(false), run(true)
	if lazy >= eager {
		t.Fatalf("lazy sync (%v) not cheaper than eager (%v)", lazy, eager)
	}
	// The gap should be meaningful (paper: dccmvac+dmb up to 23% slower
	// eager), not a rounding artifact.
	if float64(eager) < 1.10*float64(lazy) {
		t.Fatalf("eager/lazy ratio too small: %v vs %v", eager, lazy)
	}
}

func TestSetWriteLatencyScalesFlushTime(t *testing.T) {
	run := func(w time.Duration) time.Duration {
		d, clock, _ := newDomain(t, Config{NVRAMWriteLatency: w})
		for i := 0; i < 16; i++ {
			d.Write(uint64(i*32), make([]byte, 32))
		}
		start := clock.Now()
		d.CacheLineFlush(0, 16*32)
		d.MemoryBarrier()
		d.PersistBarrier()
		return clock.Now() - start
	}
	slow, fast := run(2000*time.Nanosecond), run(400*time.Nanosecond)
	if slow <= fast {
		t.Fatalf("higher NVRAM latency did not increase flush time: %v vs %v", slow, fast)
	}
}

func TestWriteToFailedDomainIsDropped(t *testing.T) {
	// The power is off: a straggler store from a goroutine that has not
	// noticed the crash yet must vanish without taking the process down.
	d, _, _ := newDomain(t, Config{})
	d.Write(0, []byte("x"))
	d.CacheLineFlush(0, 1)
	d.MemoryBarrier()
	d.PersistBarrier()
	d.PowerFail(FailDropAll, 1)
	d.Write(0, []byte("y"))
	d.CacheLineFlush(0, 1)
	d.MemoryBarrier()
	d.PersistBarrier()
	buf := make([]byte, 1)
	d.Read(0, buf)
	if buf[0] != 'x' {
		t.Fatalf("store to failed domain took effect: got %q, want %q", buf, "x")
	}
	d.Recover()
	d.Read(0, buf)
	if buf[0] != 'x' {
		t.Fatalf("post-recover content = %q, want %q", buf, "x")
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	d, _, _ := newDomain(t, Config{Size: 4096})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range write did not panic")
		}
	}()
	d.Write(4090, make([]byte, 100))
}

func TestSyscallChargesTimeAndCount(t *testing.T) {
	d, clock, m := newDomain(t, Config{})
	before := clock.Now()
	d.Syscall()
	if got := m.Count(metrics.Syscall); got != 1 {
		t.Fatalf("syscall count = %d, want 1", got)
	}
	if clock.Now() == before {
		t.Fatal("syscall charged no time")
	}
}

func TestAdversarialFailureRespectsLineGranularity(t *testing.T) {
	// Under adversarial failure each line independently survives or not,
	// but never partially.
	d, _, _ := newDomain(t, Config{CacheLineSize: 32})
	line := bytes.Repeat([]byte{0xAB}, 32)
	for i := 0; i < 32; i++ {
		d.Write(uint64(i*32), line)
	}
	d.CacheLineFlush(0, 32*32)
	d.PowerFail(FailAdversarial, 42)
	d.Recover()
	buf := make([]byte, 32)
	for i := 0; i < 32; i++ {
		d.Read(uint64(i*32), buf)
		allSet := bytes.Equal(buf, line)
		allZero := bytes.Equal(buf, make([]byte, 32))
		if !allSet && !allZero {
			t.Fatalf("line %d partially persisted: %x", i, buf)
		}
	}
}

func TestAdversarialCanPersistUnflushedDirtyLines(t *testing.T) {
	// Dirty cache lines may be evicted by hardware at any moment, so an
	// adversarial crash may persist them even without a flush. Verify
	// that at least one seed does so — this is what forces the
	// commit-mark protocol to be order-robust.
	persisted := false
	for seed := int64(0); seed < 64 && !persisted; seed++ {
		d, _, _ := newDomain(t, Config{CacheLineSize: 32})
		d.Write(0, []byte("dirty"))
		d.PowerFail(FailAdversarial, seed)
		d.Recover()
		buf := make([]byte, 5)
		d.Read(0, buf)
		if bytes.Equal(buf, []byte("dirty")) {
			persisted = true
		}
	}
	if !persisted {
		t.Fatal("no adversarial seed ever persisted an unflushed dirty line")
	}
}

// Property: after arbitrary writes, flush-all + barrier + persist makes
// the volatile and persisted views identical.
func TestPropertyFlushAllPersistsEverything(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, _, _ := newDomain(t, Config{Size: 1 << 16})
		for i := 0; i < 50; i++ {
			addr := uint64(rng.Intn(1<<16 - 256))
			n := 1 + rng.Intn(255)
			p := make([]byte, n)
			rng.Read(p)
			d.Write(addr, p)
		}
		d.CacheLineFlush(0, 1<<16)
		d.MemoryBarrier()
		d.PersistBarrier()
		vol := make([]byte, 1<<16)
		per := make([]byte, 1<<16)
		d.Read(0, vol)
		d.ReadPersisted(0, per)
		return bytes.Equal(vol, per)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: a power failure never invents bytes — the persisted view is
// always explainable as a mix of old persisted content and whole lines
// of written content.
func TestPropertyCrashNeverTearsWithinLine(t *testing.T) {
	f := func(seed int64) bool {
		d, _, _ := newDomain(t, Config{Size: 1 << 14, CacheLineSize: 32})
		pattern := bytes.Repeat([]byte{0x5A}, 32)
		rng := rand.New(rand.NewSource(seed))
		var flushed []uint64
		for i := 0; i < 64; i++ {
			addr := uint64(rng.Intn(1<<14/32)) * 32
			d.Write(addr, pattern)
			if rng.Intn(2) == 0 {
				d.CacheLineFlush(addr, addr+32)
				flushed = append(flushed, addr)
			}
		}
		d.PowerFail(FailAdversarial, seed)
		d.Recover()
		buf := make([]byte, 32)
		for a := uint64(0); a < 1<<14; a += 32 {
			d.Read(a, buf)
			if !bytes.Equal(buf, pattern) && !bytes.Equal(buf, make([]byte, 32)) {
				return false
			}
		}
		_ = flushed
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochBarrierPersistsAllDirtyLines(t *testing.T) {
	d, _, m := newDomain(t, Config{})
	d.Write(0, []byte("epoch-a"))
	d.Write(4096, []byte("epoch-b"))
	flushesBefore := m.Count(metrics.CacheLineFlush)
	d.EpochBarrier()
	// No dccmvac instructions were executed — hardware did the work.
	if got := m.Count(metrics.CacheLineFlush) - flushesBefore; got != 0 {
		t.Fatalf("epoch barrier issued %d flush instructions", got)
	}
	d.PowerFail(FailDropAll, 1)
	d.Recover()
	buf := make([]byte, 7)
	d.Read(0, buf)
	if !bytes.Equal(buf, []byte("epoch-a")) {
		t.Fatal("epoch barrier did not persist line A")
	}
	d.Read(4096, buf)
	if !bytes.Equal(buf, []byte("epoch-b")) {
		t.Fatal("epoch barrier did not persist line B")
	}
	if d.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after epoch barrier")
	}
}

func TestEpochBarrierChargesDrainTime(t *testing.T) {
	d, clock, _ := newDomain(t, Config{NVRAMWriteLatency: time.Microsecond, NVRAMBanks: 2})
	for i := 0; i < 16; i++ {
		d.Write(uint64(i*32), make([]byte, 32))
	}
	before := clock.Now()
	d.EpochBarrier()
	elapsed := clock.Now() - before
	// 16 lines over 2 banks at 1 µs each: at least 8 µs of drain.
	if elapsed < 8*time.Microsecond {
		t.Fatalf("epoch barrier charged only %v", elapsed)
	}
}

func TestEpochBarrierOnCleanDomainIsCheap(t *testing.T) {
	d, clock, _ := newDomain(t, Config{})
	before := clock.Now()
	d.EpochBarrier()
	if got := clock.Now() - before; got > 2*DefaultPersistBarrierCost {
		t.Fatalf("empty epoch barrier cost %v", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{}, simclock.New(), &metrics.Counters{})
	if d.Size() != DefaultSize {
		t.Fatalf("default size = %d, want %d", d.Size(), DefaultSize)
	}
	if d.LineSize() != DefaultCacheLineSize {
		t.Fatalf("default line size = %d, want %d", d.LineSize(), DefaultCacheLineSize)
	}
	if d.WriteLatency() != DefaultNVRAMWriteLatency {
		t.Fatalf("default write latency = %v, want %v", d.WriteLatency(), DefaultNVRAMWriteLatency)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestCommitShapedFlushAllocatesNothing holds the simulated hardware
// every commit runs on to no allocation at all: one commit-shaped burst
// (BenchmarkCommitShapedFlush's 48-line gather store, the flush batch,
// dmb, persist barrier) goes through the line table and the counter cells
// without a heap allocation. The bound, 0.05 per burst, is about 1/1000 of
// one per line.
func TestCommitShapedFlushAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const lines = 48
	d, _, _ := newDomain(t, Config{Size: 16 << 20})
	ls := uint64(d.LineSize())
	hdr, payload := make([]byte, ls), make([]byte, (lines-1)*ls)
	i := 0
	allocs, bytes := alloctest.PerRun(1000, func() {
		addr := uint64(i%1024) * lines * ls
		i++
		d.WriteV(addr, hdr, payload)
		d.CacheLineFlush(addr, addr+lines*ls)
		d.MemoryBarrier()
		d.PersistBarrier()
	})
	if allocs > 0.05 || bytes > 2048 {
		t.Fatalf("a 48-line commit burst allocates %.3f times and %.1f bytes, want 0", allocs, bytes)
	}
}
