package heapo

import (
	"bytes"
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/simclock"
)

// newLineHeap formats a heap on a device with the Nexus 5's 64-byte
// lines, eight metadata words to a line.
func newLineHeap(t testing.TB, size int) (*Manager, *nvram.Device, *metrics.Counters) {
	t.Helper()
	m := &metrics.Counters{}
	dev := nvram.NewDevice(nvram.Config{Size: size, CacheLineSize: 64}, simclock.New(), m)
	h, err := Format(dev)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return h, dev, m
}

func mustAlloc(t testing.TB, alloc func(int) (Block, error), pages int) Block {
	t.Helper()
	b, err := alloc(pages * PageSize)
	if err != nil {
		t.Fatalf("allocate %d pages: %v", pages, err)
	}
	return b
}

// metaWords snapshots every page's metadata word straight from NVRAM.
func metaWords(m *Manager) []uint64 {
	w := make([]uint64, m.pageCount)
	for p := range w {
		w[p] = m.dev.Uint64(m.metaAddr(p))
	}
	return w
}

// tailBytes reads the device from the end of the metadata words to the
// first heap page: the root table and its padding.
func tailBytes(m *Manager) []byte {
	b := make([]byte, m.heapBase-m.metaAddr(m.pageCount))
	m.dev.Read(m.metaAddr(m.pageCount), b)
	return b
}

// spans returns, for every in-use or quarantined head in words, the
// pages its run really covers: the head, then the continuation pages
// after it up to its recorded length, never past the heap end.
func spans(words []uint64) [][2]int {
	var out [][2]int
	for p := 0; p < len(words); p++ {
		st := int(words[p] & 0xff)
		if st != StateInUse && st != StateQuarantined {
			continue
		}
		run := words[p] >> 8
		n := 1
		for uint64(n) < run && p+n < len(words) && int(words[p+n]&0xff) == stateCont {
			n++
		}
		out = append(out, [2]int{p, p + n})
		p += n - 1
	}
	return out
}

// checkAfterReclaim asserts what a finished reclaim pass leaves: no
// pending head and no orphaned continuation, every in-use or quarantined
// run of before bit-identical, the free-page count equal to the free
// words, and the summary equal to a fresh scan.
func checkAfterReclaim(t *testing.T, m *Manager, before []uint64, step string) {
	t.Helper()
	after := metaWords(m)
	for _, s := range spans(before) {
		for p := s[0]; p < s[1]; p++ {
			if after[p] != before[p] {
				t.Fatalf("%s: page %d inside the run at page %d changed %#x -> %#x", step, p, s[0], before[p], after[p])
			}
		}
	}
	free, covered := 0, make([]bool, len(after))
	for _, s := range spans(after) {
		for p := s[0]; p < s[1]; p++ {
			covered[p] = true
		}
	}
	for p, w := range after {
		switch int(w & 0xff) {
		case StateFree:
			free++
		case StatePending:
			t.Fatalf("%s: page %d is still a pending head (%#x)", step, p, w)
		case stateCont:
			if !covered[p] {
				t.Fatalf("%s: page %d is an orphaned continuation", step, p)
			}
		}
	}
	if got := m.FreePages(); got != free {
		t.Fatalf("%s: FreePages = %d, %d free words", step, got, free)
	}
	checkSummary(t, m, step)
}

// A pending head whose recorded run reaches past the heap end frees its
// own block and nothing else: not the root table behind the metadata
// words, not an in-use block its run claims to cover.
func TestReclaimPendingClampsDamagedRun(t *testing.T) {
	h, dev, _ := newLineHeap(t, 256<<10)
	if err := h.SetRoot("db-wal:test.db", h.pageAddr(0)); err != nil {
		t.Fatal(err)
	}
	mid := mustAlloc(t, h.NVPreMalloc, 2)
	inUse := mustAlloc(t, h.NVMalloc, 3)
	mustAlloc(t, h.NVMalloc, h.TotalPages()-2-3-3)
	last := mustAlloc(t, h.NVPreMalloc, 3)
	if end := last.Addr + uint64(last.Size()); end != h.pageAddr(h.pageCount) {
		t.Fatalf("last block ends at %#x, heap ends at %#x", end, h.pageAddr(h.pageCount))
	}
	damaged := uint64(StatePending) | uint64(h.pageCount+50)<<8
	for _, b := range []Block{mid, last} {
		p, _ := h.pageOf(b.Addr)
		dev.PutUint64(h.metaAddr(p), damaged)
	}
	tail := tailBytes(h)
	before := metaWords(h)

	h2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if n := h2.ReclaimPending(); n != 2 {
		t.Fatalf("reclaimed %d blocks, want 2", n)
	}
	if !bytes.Equal(tailBytes(h2), tail) {
		t.Fatal("reclaim wrote past the last metadata word")
	}
	if addr, ok := h2.GetRoot("db-wal:test.db"); !ok || addr != h.pageAddr(0) {
		t.Fatalf("root binding after reclaim = (%#x, %v)", addr, ok)
	}
	if got, err := h2.BlockAt(inUse.Addr); err != nil || got.Pages != 3 {
		t.Fatalf("in-use block after reclaim = (%+v, %v), want 3 pages", got, err)
	}
	if got := h2.FreePages(); got != 5 {
		t.Fatalf("FreePages = %d, want the 5 pages of the two pending blocks", got)
	}
	checkAfterReclaim(t, h2, before, "clamped reclaim")
}

// Continuation pages no head covers — the continuation line of an
// allocation persisted, its head's line did not — are freed at reboot,
// and no page of an in-use or quarantined run is.
func TestReclaimPendingFreesOrphanContinuation(t *testing.T) {
	h, dev, _ := newLineHeap(t, 256<<10)
	var spacers []Block
	alloc := func(fn func(int) (Block, error), pages int) int {
		b := mustAlloc(t, fn, pages)
		spacers = append(spacers, mustAlloc(t, h.NVMalloc, 1))
		p, _ := h.pageOf(b.Addr)
		return p
	}
	p0 := alloc(h.NVMalloc, 3)
	pq := alloc(h.NVMalloc, 2)
	if err := h.Quarantine(Block{h.pageAddr(pq), 2}); err != nil {
		t.Fatal(err)
	}
	pp := alloc(h.NVPreMalloc, 2)
	pt := alloc(h.NVMalloc, 2)
	for _, b := range spacers {
		if err := h.NVFree(b); err != nil {
			t.Fatal(err)
		}
	}
	orphans := []int{
		p0 + 3, // past an in-use head's recorded run
		pq + 2, // after a quarantined page (its run is one page)
		pp + 2, // past a pending head's recorded run
		pt + 4, // after a free page
		pt + 5, // a second orphan in a row
		h.pageCount - 1,
	}
	for _, p := range orphans {
		dev.PutUint64(h.metaAddr(p), stateCont)
	}
	h.persistRange(h.metaAddr(0), h.metaAddr(h.pageCount))
	dev.PowerFail(memsim.FailDropAll, 1)
	dev.Recover()
	before := metaWords(h)

	h2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	free := h2.FreePages()
	if n := h2.ReclaimPending(); n != 1 {
		t.Fatalf("reclaimed %d blocks, want 1", n)
	}
	if got, want := h2.FreePages()-free, len(orphans)+2; got != want {
		t.Fatalf("reclaim freed %d pages, want %d orphans + 2 pending", got, len(orphans))
	}
	for _, p := range orphans {
		if st, _ := h2.readMeta(p); st != StateFree {
			t.Fatalf("orphan page %d is %s after reclaim", p, stateName(st))
		}
	}
	for _, p := range []int{p0, p0 + 1, p0 + 2, pq, pq + 1, pt, pt + 1} {
		if after := dev.Uint64(h2.metaAddr(p)); after != before[p] {
			t.Fatalf("page %d changed %#x -> %#x", p, before[p], after)
		}
	}
	checkAfterReclaim(t, h2, before, "orphan reclaim")

	// The pass is durable: a crash right after it loses none of it.
	dev.PowerFail(memsim.FailDropAll, 2)
	dev.Recover()
	h3, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if h3.FreePages() != h2.FreePages() {
		t.Fatalf("FreePages after a crash = %d, before it %d", h3.FreePages(), h2.FreePages())
	}
}

// reclaimSetup is the heap a crash-window test reclaims: 64 adjacent
// one-page pending blocks, sixteen in-use pages, one 3-page pending
// block, a quarantined block and an orphaned continuation page. It
// returns the pending and the kept (in-use or quarantined) blocks.
func reclaimSetup(t testing.TB) (h *Manager, dev *nvram.Device, m *metrics.Counters, pending, kept []Block) {
	h, dev, m = newLineHeap(t, 1<<20)
	for i := 0; i < 64; i++ {
		pending = append(pending, mustAlloc(t, h.NVPreMalloc, 1))
	}
	for i := 0; i < 16; i++ {
		kept = append(kept, mustAlloc(t, h.NVMalloc, 1))
	}
	pending = append(pending, mustAlloc(t, h.NVPreMalloc, 3))
	kept = append(kept, mustAlloc(t, h.NVMalloc, 4))
	bad := mustAlloc(t, h.NVMalloc, 2)
	if err := h.Quarantine(bad); err != nil {
		t.Fatal(err)
	}
	kept = append(kept, Block{bad.Addr, 1}, Block{bad.Addr + PageSize, 1})
	orphan := h.pageAddr(h.pageCount - 5)
	p, _ := h.pageOf(orphan)
	dev.PutUint64(h.metaAddr(p), stateCont)
	h.persistRange(h.metaAddr(p), h.metaAddr(p+1))
	return h, dev, m, pending, kept
}

// The reboot pass persists its whole batch with one dmb and one persist
// barrier inside its one syscall, and flushes each metadata line it
// dirtied exactly once.
func TestReclaimPendingPersistsOncePerPass(t *testing.T) {
	h, dev, m, pending, _ := reclaimSetup(t)
	lines := make(map[uint64]bool)
	freed := []int{h.pageCount - 5}
	for _, b := range pending {
		p, _ := h.pageOf(b.Addr)
		for i := p; i < p+b.Pages; i++ {
			freed = append(freed, i)
		}
	}
	for _, p := range freed {
		lines[h.metaAddr(p)/uint64(dev.LineSize())] = true
	}
	keys := []string{metrics.PersistBarrier, metrics.MemoryBarrier, metrics.Syscall, metrics.CacheLineFlush}
	pass := func(wantBlocks int, want ...int64) {
		t.Helper()
		var before [4]int64
		for i, k := range keys {
			before[i] = m.Count(k)
		}
		if n := h.ReclaimPending(); n != wantBlocks {
			t.Fatalf("reclaimed %d blocks, want %d", n, wantBlocks)
		}
		for i, k := range keys {
			if got := m.Count(k) - before[i]; got != want[i] {
				t.Errorf("%s delta = %d, want %d", k, got, want[i])
			}
		}
	}
	pass(len(pending), 1, 1, 1, int64(len(lines)))
	pass(0, 0, 0, 1, 0)

	// Every flushed line reached NVRAM before the barrier returned.
	dev.PowerFail(memsim.FailDropAll, 1)
	dev.Recover()
	h2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range freed {
		if st, _ := h2.readMeta(p); st != StateFree {
			t.Fatalf("page %d is %s after a crash following the pass", p, stateName(st))
		}
	}
}

// A power cut at any persistence operation of the pass, under either
// policy, leaves a heap the next reboot's pass finishes: every pending
// block free, every kept block with its state and run.
func TestReclaimPendingCrashWindow(t *testing.T) {
	h, dev, _, _, _ := reclaimSetup(t)
	start := dev.Domain().OpCount()
	h.ReclaimPending()
	ops := dev.Domain().OpCount() - start
	if ops < 2 {
		t.Fatalf("the pass took %d persistence ops", ops)
	}
	for _, policy := range []memsim.FailPolicy{memsim.FailAdversarial, memsim.FailDropAll} {
		for k := int64(1); k <= ops; k++ {
			h, dev, _, pending, kept := reclaimSetup(t)
			before := metaWords(h)
			dev.Domain().ArmCrash(k, policy, k, nil)
			h.ReclaimPending()
			if !dev.Domain().CrashTriggered() {
				t.Fatalf("policy %d op %d: crash did not fire", policy, k)
			}
			dev.PowerFail(policy, k)
			dev.Recover()
			h2, err := Attach(dev)
			if err != nil {
				t.Fatal(err)
			}
			h2.ReclaimPending()
			for _, b := range pending {
				p, _ := h2.pageOf(b.Addr)
				for i := p; i < p+b.Pages; i++ {
					if st, _ := h2.readMeta(i); st != StateFree {
						t.Fatalf("policy %d op %d: page %d of a pending block is %s", policy, k, i, stateName(st))
					}
				}
			}
			for _, b := range kept {
				p, _ := h2.pageOf(b.Addr)
				for i := p; i < p+b.Pages; i++ {
					if after := dev.Uint64(h2.metaAddr(i)); after != before[i] {
						t.Fatalf("policy %d op %d: kept page %d changed %#x -> %#x", policy, k, i, before[i], after)
					}
				}
			}
			checkAfterReclaim(t, h2, before, "crash-window reboot")
		}
	}
}

// fuzzHeap is the heap FuzzHeapoReclaim damages: in-use, pending and
// quarantined blocks of several lengths, with free gaps between them.
func fuzzHeap(t testing.TB) (*Manager, *nvram.Device) {
	h, dev, _ := newLineHeap(t, 512<<10)
	if err := h.SetRoot("db-wal:fuzz.db", h.pageAddr(1)); err != nil {
		t.Fatal(err)
	}
	var gaps []Block
	for _, pages := range []int{1, 2, 3, 1, 4, 2, 1, 3} {
		mustAlloc(t, h.NVMalloc, pages)
		mustAlloc(t, h.NVPreMalloc, pages)
		bad := mustAlloc(t, h.NVMalloc, 1+pages%2)
		if err := h.Quarantine(bad); err != nil {
			t.Fatal(err)
		}
		gaps = append(gaps, mustAlloc(t, h.NVMalloc, pages))
	}
	for _, b := range gaps {
		if err := h.NVFree(b); err != nil {
			t.Fatal(err)
		}
	}
	return h, dev
}

// FuzzHeapoReclaim overwrites a span of a populated heap's metadata
// words with fuzz bytes, then reboots the heap: Attach, ReclaimPending
// and one NVMalloc. The pass must not panic or hang, must never write a
// page inside an in-use or quarantined run nor past the metadata words,
// must leave no pending head, and must keep FreePages equal to the free
// words.
func FuzzHeapoReclaim(f *testing.F) {
	f.Fuzz(func(t *testing.T, off uint16, data []byte) {
		h, dev := fuzzHeap(t)
		span := int(h.metaAddr(h.pageCount) - h.metaBase)
		at := int(off) % span
		if len(data) > span-at {
			data = data[:span-at]
		}
		dev.Write(h.metaBase+uint64(at), data)
		tail := tailBytes(h)
		before := metaWords(h)

		h2, err := Attach(dev)
		if err != nil {
			t.Fatalf("Attach: %v", err)
		}
		h2.ReclaimPending()
		checkAfterReclaim(t, h2, before, "reclaim")
		if !bytes.Equal(tailBytes(h2), tail) {
			t.Fatal("reclaim wrote past the last metadata word")
		}
		reclaimed := metaWords(h2)
		b, err := h2.NVMalloc(PageSize)
		if err != nil {
			if h2.FreePages() > 0 {
				t.Fatalf("NVMalloc with %d free pages: %v", h2.FreePages(), err)
			}
			return
		}
		p, _ := h2.pageOf(b.Addr)
		if st := int(reclaimed[p] & 0xff); st != StateFree {
			t.Fatalf("NVMalloc handed out page %d, which was %s", p, stateName(st))
		}
		checkAfterReclaim(t, h2, reclaimed, "allocation after reclaim")
	})
}
