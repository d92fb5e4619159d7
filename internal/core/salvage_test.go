package core

import (
	"bytes"
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
)

// salvageCfg is the configuration the salvage tests drive: user-heap
// blocks with full-page frames, so frame positions are predictable.
func salvageCfg() Config { return Config{Sync: SyncLazy, UserHeap: true} }

// corruptByte persistently flips one byte of NVRAM, modelling retention
// bit rot at that address.
func corruptByte(w *NVWAL, addr uint64) {
	var b [1]byte
	w.dev.Read(addr, b[:])
	b[0] ^= 0x5A
	w.dev.Write(addr, b[:])
	w.persistRange(addr, 1)
}

// lastFrameAddr returns the device address of the most recently
// appended frame's header (full-page frames only).
func lastFrameAddr(w *NVWAL) uint64 {
	tail := w.blocks[len(w.blocks)-1]
	return tail.Addr + uint64(w.tailUsed-align8(frameHdrSize+4096))
}

// runUntilStep runs fn with a crash hook that aborts execution at the
// named protocol step, modelling power failing at that instant without
// tearing down the process.
func runUntilStep(w *NVWAL, step string, fn func() error) {
	type stop struct{}
	w.SetCrashHook(func(s string) {
		if s == step {
			panic(stop{})
		}
	})
	defer w.SetCrashHook(nil)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(stop); !ok {
				panic(r)
			}
		}
	}()
	_ = fn()
}

// TestSalvageTruncatesAtCorruptFrame: bit rot in a middle frame must
// truncate the log at the last whole transaction before it — keeping
// the earlier commit, dropping the damaged one and everything after,
// and leaving the log writable.
func TestSalvageTruncatesAtCorruptFrame(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	imgA := fullPage(0x21)
	commitPages(t, w, map[uint32][]byte{2: imgA})
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x22)})
	frameB := lastFrameAddr(w)
	commitPages(t, w, map[uint32][]byte{4: fullPage(0x23)})

	// Rot one payload byte of the second transaction's frame.
	corruptByte(w, frameB+frameHdrSize+10)

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 3)
	if got, ok := w2.PageVersion(2); !ok || !bytes.Equal(got, imgA) {
		t.Fatal("transaction before the corrupt frame did not survive")
	}
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("corrupt frame's transaction survived")
	}
	if _, ok := w2.PageVersion(4); ok {
		t.Fatal("transaction after the corrupt frame survived (non-prefix survivor)")
	}
	rep := w2.Salvage()
	if rep == nil {
		t.Fatal("no salvage report after recovery")
	}
	if rep.FramesKept != 1 || rep.FramesDropped != 2 {
		t.Fatalf("report kept=%d dropped=%d, want 1/2 (%s)", rep.FramesKept, rep.FramesDropped, rep)
	}

	// The truncated log must still accept and retain commits.
	imgD := fullPage(0x24)
	commitPages(t, w2, map[uint32][]byte{5: imgD})
	w3 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 4)
	if got, ok := w3.PageVersion(5); !ok || !bytes.Equal(got, imgD) {
		t.Fatal("commit after salvage did not survive the next crash")
	}
	if got, ok := w3.PageVersion(2); !ok || !bytes.Equal(got, imgA) {
		t.Fatal("kept prefix lost across the next crash")
	}
}

// TestSalvageRebuildsCorruptHeader: a rotten header magic must not
// refuse the open — the log is reinitialized (its content is lost) and
// the database file keeps the last completed checkpoint.
func TestSalvageRebuildsCorruptHeader(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	imgA := fullPage(0x31)
	commitPages(t, w, map[uint32][]byte{2: imgA})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x32)})
	corruptByte(w, w.headerAddr+2) // rot the magic

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 5)
	rep := w2.Salvage()
	if rep == nil || !rep.HeaderRebuilt || !rep.Damaged() {
		t.Fatalf("header rebuild not reported: %s", rep)
	}
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("log content survived a header rebuild")
	}
	buf := make([]byte, 4096)
	if err := e.db.ReadPage(2, buf); err != nil || !bytes.Equal(buf, imgA) {
		t.Fatalf("checkpointed page lost with the header (err %v)", err)
	}

	// The rebuilt log is a working log: commits survive the next crash,
	// and the fresh salt fences every leaked old frame.
	imgC := fullPage(0x33)
	commitPages(t, w2, map[uint32][]byte{4: imgC})
	w3 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 6)
	if got, ok := w3.PageVersion(4); !ok || !bytes.Equal(got, imgC) {
		t.Fatal("commit after header rebuild did not survive")
	}
	if w3.Salvage().Damaged() {
		t.Fatalf("clean crash after rebuild still reports damage: %s", w3.Salvage())
	}
}

// TestSalvageFrozenDamageDropsLiveGeneration: when an interrupted
// checkpoint's frozen generation fails its chain seal, committed frames
// older than the whole live generation are gone — salvage must drop the
// live generation too so survivors stay a prefix of commit order.
func TestSalvageFrozenDamageDropsLiveGeneration(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	img1 := fullPage(0x41)
	commitPages(t, w, map[uint32][]byte{2: img1})
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x42)})
	frame2 := lastFrameAddr(w)

	// Freeze the generation (phase A completes, backfill never runs),
	// then commit into the new live generation.
	runUntilStep(w, StepCkptAfterSalt, w.Checkpoint)
	commitPages(t, w, map[uint32][]byte{4: fullPage(0x43)})

	// Rot the second frozen frame: the frozen scan now ends early and
	// cannot reach the record's chain seal.
	corruptByte(w, frame2+frameHdrSize+20)

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 7)
	rep := w2.Salvage()
	if rep == nil || !rep.FrozenDamaged || !rep.LiveDropped || !rep.Damaged() {
		t.Fatalf("frozen damage not reported: %s", rep)
	}
	if got, ok := w2.PageVersion(2); !ok || !bytes.Equal(got, img1) {
		t.Fatal("whole transaction before the frozen damage did not survive")
	}
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("damaged frozen transaction survived")
	}
	if _, ok := w2.PageVersion(4); ok {
		t.Fatal("live generation survived ahead of lost frozen commits (non-prefix survivor)")
	}
	// Sealed frames were lost mid-round: the crashed backfill may have
	// already pushed their pages into the database file, so the file is
	// flagged and the round stays pending — the database layer opens
	// degraded read-only.
	if !rep.DBFileDamaged {
		t.Fatalf("lost sealed frames did not flag the database file: %s", rep)
	}

	// The verdict is sticky: the pending round and the damage are both
	// durable, so the next reboot reaches the same degraded state with
	// the same surviving prefix.
	w3 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 8)
	rep3 := w3.Salvage()
	if rep3 == nil || !rep3.FrozenDamaged || !rep3.DBFileDamaged {
		t.Fatalf("degraded verdict not sticky across reboots: %s", rep3)
	}
	if got, ok := w3.PageVersion(2); !ok || !bytes.Equal(got, img1) {
		t.Fatal("kept prefix lost on second recovery of the pending round")
	}
}

// TestSalvageFrozenLinkIntoLiveChain: a damaged link word that points the
// frozen generation's tail at the live generation's first block must not
// give that block to both chains. Finishing the interrupted round frees
// the frozen chain's blocks, so a shared block would be freed under the
// live log, and the next commit into it lost.
func TestSalvageFrozenLinkIntoLiveChain(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	imgA, imgB := fullPage(0x51), fullPage(0x52)
	commitPages(t, w, map[uint32][]byte{2: imgA})
	commitPages(t, w, map[uint32][]byte{3: imgB})
	if err := w.FreezeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	commitPages(t, w, map[uint32][]byte{4: fullPage(0x53)})
	frozenTail := w.ckpt.blocks[len(w.ckpt.blocks)-1]
	w.dev.PutUint64(frozenTail.Addr, w.blocks[0].Addr)
	w.persistRange(frozenTail.Addr, 8)

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 8)
	for pgno, want := range map[uint32][]byte{2: imgA, 3: imgB} {
		if got, ok := w2.PageVersion(pgno); !ok || !bytes.Equal(got, want) {
			t.Fatalf("frozen page %d lost (%s)", pgno, w2.Salvage())
		}
	}
	imgD := fullPage(0x54)
	commitPages(t, w2, map[uint32][]byte{5: imgD})
	w3 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 9)
	if got, ok := w3.PageVersion(5); !ok || !bytes.Equal(got, imgD) {
		t.Fatalf("commit after salvage lost across the next crash (%s)", w3.Salvage())
	}
}

// TestSalvageMediaReadErrorQuarantinesBlock: an uncorrectable read
// error during the scan ends the log there, and the block lands in the
// heap's persistent quarantine instead of the free list.
func TestSalvageMediaReadErrorQuarantinesBlock(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	imgA := fullPage(0x51)
	commitPages(t, w, map[uint32][]byte{2: imgA})
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x52)})
	if len(w.blocks) < 2 {
		t.Fatalf("expected the second commit in a second block, have %d", len(w.blocks))
	}
	bad := w.blocks[1]
	e.dev.InjectFaults(memsim.FaultConfig{
		Seed:          9,
		ReadErrorRate: 1,
		Ranges:        []memsim.AddrRange{{Start: bad.Addr, End: bad.Addr + uint64(bad.Size())}},
	})

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 8)
	rep := w2.Salvage()
	if rep == nil || rep.MediaReadErrors == 0 || !rep.Damaged() {
		t.Fatalf("media read error not reported: %s", rep)
	}
	if rep.BlocksQuarantined != 1 {
		t.Fatalf("BlocksQuarantined = %d, want 1 (%s)", rep.BlocksQuarantined, rep)
	}
	if got := e.heap.QuarantinedPages(); got == 0 {
		t.Fatal("no pages in the heap quarantine")
	}
	if got, ok := w2.PageVersion(2); !ok || !bytes.Equal(got, imgA) {
		t.Fatal("readable prefix did not survive")
	}
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("unreadable block's transaction survived")
	}
	if e.m.Count(metrics.BlocksQuarantined) == 0 {
		t.Fatal("blocks_quarantined metric not incremented")
	}
}

// TestSalvageRecoveredRoundQuarantinesFrozenBlock: an unreadable link
// word in the frozen chain's tail block costs no sealed frame, so
// recovery completes the interrupted round, and the block goes to the
// heap's quarantine with the report counting it.
func TestSalvageRecoveredRoundQuarantinesFrozenBlock(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	imgA, imgB := fullPage(0x61), fullPage(0x62)
	commitPages(t, w, map[uint32][]byte{2: imgA})
	commitPages(t, w, map[uint32][]byte{3: imgB})
	runUntilStep(w, StepCkptAfterSalt, w.Checkpoint)
	bad := w.ckpt.blocks[len(w.ckpt.blocks)-1]
	e.dev.InjectFaults(memsim.FaultConfig{
		Seed:          3,
		ReadErrorRate: 1,
		Ranges:        []memsim.AddrRange{{Start: bad.Addr, End: bad.Addr + 1}},
	})

	w2 := e.reopen(t, salvageCfg(), memsim.FailDropAll, 4)
	rep := w2.Salvage()
	if rep.DBFileDamaged || rep.BlocksQuarantined != 1 || rep.BytesQuarantined != bad.Size() {
		t.Fatalf("frozen tail block not quarantined by the recovered round: %s", rep)
	}
	if w2.ckpt != nil || e.heap.QuarantinedPages() == 0 {
		t.Fatalf("round pending %v, %d pages in the heap quarantine", w2.ckpt != nil, e.heap.QuarantinedPages())
	}
	got := make([]byte, 4096)
	for pgno, want := range map[uint32][]byte{2: imgA, 3: imgB} {
		if err := e.db.ReadPage(pgno, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("database-file page %d not backfilled (err %v)", pgno, err)
		}
	}
}

// TestSalvageBitFlipsNeverHardError is the acceptance property in
// miniature: with a 1e-4 per-line bit-flip rate confined to the heap's
// data pages, repeated crash/recover cycles must never fail to open —
// damage only shrinks what survives, and every recovery produces a
// salvage report.
func TestSalvageBitFlipsNeverHardError(t *testing.T) {
	e := newEnv(t)
	start, end := e.heap.HeapRange()
	e.dev.InjectFaults(memsim.FaultConfig{
		Seed:        1234,
		BitFlipRate: 1e-4,
		Ranges:      []memsim.AddrRange{{Start: start, End: end}},
	})
	cfg := salvageCfg()
	w := e.open(t, cfg)
	for round := 0; round < 25; round++ {
		for p := uint32(2); p < 5; p++ {
			commitPages(t, w, map[uint32][]byte{p: fullPage(byte(round)*3 + byte(p))})
		}
		// reopen fails the test on any hard recovery error.
		w = e.reopen(t, cfg, memsim.FailDropAll, int64(round))
		if w.Salvage() == nil {
			t.Fatalf("round %d: no salvage report", round)
		}
	}
	if e.m.Count(metrics.MediaBitFlips) == 0 {
		t.Fatal("fault model injected no flips — the test exercised nothing")
	}
}

// TestScrubDetectsSilentDurableCorruption: the durable image of a
// committed frame diverges from its (still pristine) volatile copy —
// the damage only a media scrub can see before the next crash. The
// scrub must flag it, and the following checkpoint must rewrite the
// page from DRAM and quarantine the implicated block.
func TestScrubDetectsSilentDurableCorruption(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, salvageCfg())
	img := fullPage(0x61)
	commitPages(t, w, map[uint32][]byte{2: img})
	frame := lastFrameAddr(w)

	// Corrupt the durable copy of one payload byte, then restore the
	// volatile copy without persisting: the cache still serves good
	// data, the media does not.
	addr := frame + frameHdrSize + 100
	var b [1]byte
	w.dev.Read(addr, b[:])
	good := b[0]
	b[0] ^= 0x5A
	w.dev.Write(addr, b[:])
	w.persistRange(addr, 1)
	b[0] = good
	w.dev.Write(addr, b[:])

	res := w.Scrub()
	if res.FramesChecked == 0 || res.BadFrames != 1 {
		t.Fatalf("scrub checked=%d bad=%d, want checked>0 bad=1 (err %v)", res.FramesChecked, res.BadFrames, res.FirstErr)
	}
	if len(res.BadBlocks) != 1 || res.BadBlocks[0] != w.blocks[0].Addr {
		t.Fatalf("scrub implicated %#v, want the first log block", res.BadBlocks)
	}
	if e.m.Count(metrics.ScrubFramesChecked) == 0 || e.m.Count(metrics.ScrubFramesBad) != 1 {
		t.Fatal("scrub metrics not recorded")
	}

	// Self-heal: checkpoint rewrites the page from DRAM and retires the
	// bad block into quarantine.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.heap.QuarantinedPages(); got == 0 {
		t.Fatal("bad block not quarantined by the checkpoint")
	}
	buf := make([]byte, 4096)
	if err := e.db.ReadPage(2, buf); err != nil || !bytes.Equal(buf, img) {
		t.Fatalf("page content wrong after self-healing checkpoint (err %v)", err)
	}
}

// TestScrubNoopForAsyncCommit: SyncChecksum never promises frames are
// durable before a crash, so there is nothing for a scrub to audit.
func TestScrubNoopForAsyncCommit(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, Config{Sync: SyncChecksum, UserHeap: true})
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x71)})
	if res := w.Scrub(); res.FramesChecked != 0 {
		t.Fatalf("scrub under async commit checked %d frames, want 0", res.FramesChecked)
	}
}
