package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/dbfile"
	"repro/internal/ext4"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/pager"
	"repro/internal/simclock"
)

// testEnv bundles the NVRAM heap and a flash-backed database file.
type testEnv struct {
	clock *simclock.Clock
	m     *metrics.Counters
	dev   *nvram.Device
	heap  *heapo.Manager
	fs    *ext4.FS
	db    pager.DBFile
	// wrap, when set, wraps the database file reopen hands the log.
	wrap func(pager.DBFile) pager.DBFile
}

func newEnv(t testing.TB) *testEnv {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	dev := nvram.NewDevice(nvram.Config{Size: 8 << 20}, clock, m)
	h, err := heapo.Format(dev)
	if err != nil {
		t.Fatal(err)
	}
	bd := blockdev.New(blockdev.Config{Pages: 1 << 14}, clock, m)
	fs := ext4.New(bd)
	f, err := fs.Create("test.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{clock: clock, m: m, dev: dev, heap: h, fs: fs, db: dbfile.New(f, 4096)}
}

func (e *testEnv) open(t testing.TB, cfg Config) *NVWAL {
	t.Helper()
	w, err := Open(e.heap, e.db, cfg, e.m)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// reopen simulates a whole-system reboot: power-fail both the NVRAM
// domain and the flash file system, run the heap manager's pending-
// block reclamation, and reopen the log.
func (e *testEnv) reopen(t testing.TB, cfg Config, policy memsim.FailPolicy, seed int64) *NVWAL {
	t.Helper()
	e.dev.PowerFail(policy, seed)
	e.dev.Recover()
	e.fs.PowerFail()
	f, err := e.fs.OpenOrCreate("test.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	e.db = dbfile.New(f, 4096)
	if e.wrap != nil {
		e.db = e.wrap(e.db)
	}
	h, err := heapo.Attach(e.dev)
	if err != nil {
		t.Fatal(err)
	}
	h.ReclaimPending()
	e.heap = h
	w, err := Open(e.heap, e.db, cfg, e.m)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func fullPage(fill byte) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = fill
	}
	return p
}

// patchedPage returns base with [off, off+n) overwritten by fill.
func patchedPage(base []byte, off, n int, fill byte) []byte {
	p := make([]byte, len(base))
	copy(p, base)
	for i := off; i < off+n; i++ {
		p[i] = fill
	}
	return p
}

func commitPages(t testing.TB, w *NVWAL, pages map[uint32][]byte) {
	t.Helper()
	var frames []pager.Frame
	for pgno, data := range pages {
		frames = append(frames, pager.Frame{Pgno: pgno, Data: data})
	}
	if err := w.CommitTransaction(frames); err != nil {
		t.Fatal(err)
	}
}

func allVariants() []NamedConfig {
	vs := Figure7Variants()
	return append(vs,
		NamedConfig{"NVWAL E", VariantE()},
		NamedConfig{"NVWAL SP", VariantSP()},
		NamedConfig{"NVWAL EP", VariantEP()},
	)
}

func TestCommitAndPageVersionAllVariants(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.Cfg.Label(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, v.Cfg)
			p2 := fullPage(0xAA)
			commitPages(t, w, map[uint32][]byte{2: p2})
			got, ok := w.PageVersion(2)
			if !ok || !bytes.Equal(got, p2) {
				t.Fatalf("PageVersion(2) wrong (ok=%v)", ok)
			}
			if _, ok := w.PageVersion(3); ok {
				t.Fatal("PageVersion invented a page")
			}
		})
	}
}

func TestDifferentialSecondCommitLogsLessData(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x10)
	commitPages(t, w, map[uint32][]byte{2: base})
	logged1 := e.m.Count(MetricLoggedBytes)
	commitPages(t, w, map[uint32][]byte{2: patchedPage(base, 100, 120, 0x20)})
	logged2 := e.m.Count(MetricLoggedBytes) - logged1
	if logged1 < 4096 {
		t.Fatalf("first commit logged %d bytes, want full page", logged1)
	}
	if logged2 > 400 {
		t.Fatalf("differential commit logged %d bytes, want a small frame", logged2)
	}
	// The reconstructed version is still exact.
	got, _ := w.PageVersion(2)
	if !bytes.Equal(got, patchedPage(base, 100, 120, 0x20)) {
		t.Fatal("differential reconstruction mismatch")
	}
}

func TestNonDifferentialLogsFullPages(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLS())
	base := fullPage(0x10)
	commitPages(t, w, map[uint32][]byte{2: base})
	before := e.m.Count(MetricLoggedBytes)
	commitPages(t, w, map[uint32][]byte{2: patchedPage(base, 0, 4, 0x22)})
	delta := e.m.Count(MetricLoggedBytes) - before
	if delta < 4096 {
		t.Fatalf("non-differential commit logged %d bytes, want full page", delta)
	}
}

func TestMultiExtentDiffProducesMultipleFrames(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0)
	commitPages(t, w, map[uint32][]byte{2: base})
	before := e.m.Count(metrics.WALFrames)
	// Two dirty regions far apart -> two frames.
	mod := patchedPage(patchedPage(base, 10, 20, 1), 3000, 20, 2)
	commitPages(t, w, map[uint32][]byte{2: mod})
	if got := e.m.Count(metrics.WALFrames) - before; got != 2 {
		t.Fatalf("logged %d frames, want 2 extents", got)
	}
	got, _ := w.PageVersion(2)
	if !bytes.Equal(got, mod) {
		t.Fatal("multi-extent reconstruction mismatch")
	}
}

func TestIdenticalRewriteLogsNothing(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x33)
	commitPages(t, w, map[uint32][]byte{2: base})
	before := e.m.Count(metrics.WALFrames)
	commitPages(t, w, map[uint32][]byte{2: base})
	if got := e.m.Count(metrics.WALFrames) - before; got != 0 {
		t.Fatalf("identical rewrite logged %d frames", got)
	}
}

func TestUserHeapBatchesAllocations(t *testing.T) {
	// UH allocates one 8 KB block for several frames; the legacy path
	// calls nvmalloc per frame (§3.3).
	allocs := func(cfg Config) int64 {
		e := newEnv(t)
		w := e.open(t, cfg)
		base := fullPage(1)
		commitPages(t, w, map[uint32][]byte{2: base})
		before := e.m.Count(metrics.HeapAlloc)
		for i := 0; i < 8; i++ {
			commitPages(t, w, map[uint32][]byte{2: patchedPage(base, 64*i, 32, byte(3+i))})
		}
		return e.m.Count(metrics.HeapAlloc) - before
	}
	uh, legacy := allocs(VariantUHLSDiff()), allocs(VariantLSDiff())
	if uh >= legacy {
		t.Fatalf("user heap made %d allocations vs legacy %d", uh, legacy)
	}
}

func TestRecoveryAfterCleanReboot(t *testing.T) {
	for _, v := range allVariants() {
		if v.Cfg.Sync == SyncChecksum {
			continue // checksum-async does not guarantee durability
		}
		t.Run(v.Cfg.Label(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, v.Cfg)
			base := fullPage(0x44)
			commitPages(t, w, map[uint32][]byte{2: base, 3: fullPage(0x55)})
			commitPages(t, w, map[uint32][]byte{2: patchedPage(base, 8, 16, 0x66)})
			w2 := e.reopen(t, v.Cfg, memsim.FailDropAll, 7)
			got, ok := w2.PageVersion(2)
			if !ok || !bytes.Equal(got, patchedPage(base, 8, 16, 0x66)) {
				t.Fatal("page 2 lost or stale after reboot")
			}
			got, ok = w2.PageVersion(3)
			if !ok || !bytes.Equal(got, fullPage(0x55)) {
				t.Fatal("page 3 lost after reboot")
			}
			if w2.FramesSinceCheckpoint() == 0 {
				t.Fatal("no frames recovered")
			}
		})
	}
}

func TestCheckpointWritesBackFreesBlocksAndFences(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x77)
	commitPages(t, w, map[uint32][]byte{2: base})
	freeBefore := e.heap.FreePages()
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w.FramesSinceCheckpoint() != 0 || w.Blocks() != 0 {
		t.Fatal("checkpoint left log state behind")
	}
	// Under UserHeap the freed blocks land in the recycle pool (still
	// released from the log, ready for the next pre-malloc without a
	// kernel round trip); without it they go back to the free list.
	if e.heap.FreePages() <= freeBefore && e.heap.RecycledPages() == 0 {
		t.Fatal("checkpoint did not release NVRAM blocks")
	}
	buf := make([]byte, 4096)
	if err := e.db.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, base) {
		t.Fatal("checkpoint did not materialize the page in the db file")
	}
	// Stale frames in recycled blocks must not resurrect.
	w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 3)
	if got := w2.FramesSinceCheckpoint(); got != 0 {
		t.Fatalf("stale frames resurrected after checkpoint: %d", got)
	}
	// And the log keeps working after a checkpoint.
	commitPages(t, w2, map[uint32][]byte{2: patchedPage(base, 0, 8, 0x88)})
	got, ok := w2.PageVersion(2)
	if !ok || got[0] != 0x88 {
		t.Fatal("post-checkpoint commit broken")
	}
}

func TestFirstFrameAfterCheckpointStaysDifferential(t *testing.T) {
	// The backfill-watermark protocol keeps page images across a
	// checkpoint, so the first post-checkpoint frame of a known page
	// stays differential — its replay base is the image the checkpoint
	// made durable in the database file. Recovery must reconstruct the
	// page from that base.
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x01)
	commitPages(t, w, map[uint32][]byte{2: base})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := e.m.Count(MetricLoggedBytes)
	want := patchedPage(base, 5, 5, 0x02)
	commitPages(t, w, map[uint32][]byte{2: want})
	delta := e.m.Count(MetricLoggedBytes) - before
	if delta >= 4096 {
		t.Fatalf("first post-checkpoint frame logged %d bytes, want a small diff (backfill base)", delta)
	}
	w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 5)
	got, ok := w2.PageVersion(2)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("post-checkpoint differential frame did not replay over the backfilled base")
	}
}

func TestUncommittedBatchDiscardedOnRecovery(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x10)})
	// Write frames without a commit mark (multi-batch transaction
	// interrupted before commit).
	if err := w.WriteFrames([]pager.Frame{{Pgno: 3, Data: fullPage(0x20)}}, false); err != nil {
		t.Fatal(err)
	}
	w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 11)
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("uncommitted frame survived recovery")
	}
	if _, ok := w2.PageVersion(2); !ok {
		t.Fatal("committed frame lost")
	}
	// The log must continue correctly after truncating the torn tail.
	commitPages(t, w2, map[uint32][]byte{4: fullPage(0x30)})
	w3 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 12)
	if _, ok := w3.PageVersion(4); !ok {
		t.Fatal("commit after truncated tail lost")
	}
}

func TestLazyCheaperThanEagerEndToEnd(t *testing.T) {
	// The saving appears for multi-frame transactions: eager pays a
	// dmb+persist round per log entry, lazy one round per transaction
	// (§5.1 inserts several records per transaction).
	elapsed := func(cfg Config) int64 {
		e := newEnv(t)
		w := e.open(t, cfg)
		pages := make(map[uint32][]byte, 16)
		for i := 0; i < 16; i++ {
			pages[uint32(2+i)] = fullPage(0x42)
		}
		start := e.clock.Now()
		commitPages(t, w, pages)
		return int64(e.clock.Now() - start)
	}
	lazy, eager := elapsed(VariantLS()), elapsed(VariantE())
	if lazy >= eager {
		t.Fatalf("lazy (%d ns) not cheaper than eager (%d ns)", lazy, eager)
	}
}

func TestChecksumModeSkipsLogFlushes(t *testing.T) {
	// Measure a steady-state commit (the first commit also allocates a
	// block, whose link/metadata flushes are not part of the scheme
	// comparison).
	flushes := func(cfg Config) int64 {
		e := newEnv(t)
		w := e.open(t, cfg)
		base := fullPage(1)
		commitPages(t, w, map[uint32][]byte{2: base}) // warm-up: allocates the block
		before := e.m.Count(metrics.CacheLineFlush)
		commitPages(t, w, map[uint32][]byte{2: patchedPage(base, 50, 40, 2)})
		return e.m.Count(metrics.CacheLineFlush) - before
	}
	cs, ls := flushes(VariantUHCSDiff()), flushes(VariantUHLSDiff())
	if cs >= ls {
		t.Fatalf("checksum-async flushed %d lines, lazy %d", cs, ls)
	}
	if cs > 2 {
		t.Fatalf("checksum-async flushed %d lines, want only the commit mark's", cs)
	}
}

func TestFramesPerBlockStatistic(t *testing.T) {
	// §3.3: with 8 KB blocks and differential logging, several WAL
	// frames share one block (paper: 4.9 on average).
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x05)
	commitPages(t, w, map[uint32][]byte{2: base})
	cur := base
	for i := 0; i < 40; i++ {
		cur = patchedPage(cur, (i*97)%3800, 120, byte(i+1))
		commitPages(t, w, map[uint32][]byte{2: cur})
	}
	frames := float64(e.m.Count(metrics.WALFrames))
	blocks := float64(e.m.Count(MetricBlocks))
	if frames/blocks < 2 {
		t.Fatalf("frames per block = %.1f, want > 2 with differential logging", frames/blocks)
	}
}

func TestLogSurvivesHeapReattachWithoutCrash(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x61)})
	// Re-open the same log in the same process (no power failure).
	w2 := e.open(t, VariantUHLSDiff())
	if _, ok := w2.PageVersion(2); !ok {
		t.Fatal("log not found via the persistent namespace")
	}
}

func TestWrongPageSizeRejected(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: make([]byte, 100)}})
	if err == nil {
		t.Fatal("short page accepted")
	}
}

func TestEmptyCommitNoop(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	if err := w.CommitTransaction(nil); err != nil {
		t.Fatal(err)
	}
	if w.FramesSinceCheckpoint() != 0 {
		t.Fatal("empty commit logged frames")
	}
}

func TestPageVersionAtReplaysDiffs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x10)
	m0 := w.Mark()
	commitPages(t, w, map[uint32][]byte{2: base})
	m1 := w.Mark()
	v2 := patchedPage(base, 100, 50, 0x20)
	commitPages(t, w, map[uint32][]byte{2: v2})
	m2 := w.Mark()
	v3 := patchedPage(v2, 3000, 50, 0x30)
	commitPages(t, w, map[uint32][]byte{2: v3})

	if _, ok := w.PageVersionAt(2, m0); ok {
		t.Fatal("mark 0 sees the page")
	}
	if got, ok := w.PageVersionAt(2, m1); !ok || !bytes.Equal(got, base) {
		t.Fatal("mark 1 reconstruction wrong")
	}
	if got, ok := w.PageVersionAt(2, m2); !ok || !bytes.Equal(got, v2) {
		t.Fatal("mark 2 diff replay wrong")
	}
	if got, ok := w.PageVersionAt(2, w.Mark()); !ok || !bytes.Equal(got, v3) {
		t.Fatal("latest replay wrong")
	}
}

func TestSnapshotHistorySurvivesRecovery(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	base := fullPage(0x41)
	commitPages(t, w, map[uint32][]byte{2: base})
	mod := patchedPage(base, 10, 10, 0x42)
	commitPages(t, w, map[uint32][]byte{2: mod})
	w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 6)
	// Marks within the recovered log reconstruct correctly.
	if got, ok := w2.PageVersionAt(2, w2.Mark()); !ok || !bytes.Equal(got, mod) {
		t.Fatal("history not rebuilt by recovery")
	}
	if got, ok := w2.PageVersionAt(2, 1); !ok || !bytes.Equal(got, base) {
		t.Fatal("early mark not reconstructible after recovery")
	}
}

func TestVariantLabels(t *testing.T) {
	want := map[string]string{
		"NVWAL LS":         "LS",
		"NVWAL LS+Diff":    "LS+Diff",
		"NVWAL CS+Diff":    "CS+Diff",
		"NVWAL UH+LS":      "UH+LS",
		"NVWAL UH+LS+Diff": "UH+LS+Diff",
		"NVWAL UH+CS+Diff": "UH+CS+Diff",
	}
	for _, v := range Figure7Variants() {
		if got := v.Cfg.Label(); got != want[v.Name] {
			t.Errorf("%s: Label() = %q, want %q", v.Name, got, want[v.Name])
		}
	}
	if got := VariantE().Label(); got != "E" {
		t.Errorf("eager label = %q", got)
	}
}

// TestChainSeedIsCRC32C: the hand-run table is crc32.Checksum's CRC-32C of
// the salt's little-endian bytes — a recovered log's chains still verify —
// and costs no allocation.
func TestChainSeedIsCRC32C(t *testing.T) {
	var b [8]byte
	for _, salt := range []uint64{0, 1, 2, 0xff, 1 << 40, 0xdeadbeefcafef00d, ^uint64(0)} {
		binary.LittleEndian.PutUint64(b[:], salt)
		if got, want := chainSeed(salt), crc32.Checksum(b[:], crcTab); got != want {
			t.Errorf("chainSeed(%#x) = %#x, want %#x", salt, got, want)
		}
	}
	salt := uint64(7)
	if n := testing.AllocsPerRun(100, func() { salt += uint64(chainSeed(salt)) }); n != 0 {
		t.Errorf("chainSeed allocates %v times", n)
	}
}
