package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/dbfile"
	"repro/internal/ext4"
	"repro/internal/heapo"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/pager"
	"repro/internal/simclock"
)

// newTinyEnv builds an environment whose NVRAM heap holds exactly
// `pages` heap pages, for exhaustion tests.
func newTinyEnv(t testing.TB, pages int) *testEnv {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	dev := nvram.NewDevice(nvram.Config{Size: heapo.SizeForPages(pages)}, clock, m)
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

// TestAbortUnwindsMidAppendExhaustion is the regression test for the
// pre-reservation failure mode: ErrNoSpace striking partway through a
// multi-page append used to leave linked blocks behind and latch the
// log broken forever. With reservation disabled (forcing the legacy
// race), the abort path must free the blocks it linked, restore the
// tail cursor, and leave the log fully usable.
func TestAbortUnwindsMidAppendExhaustion(t *testing.T) {
	e := newTinyEnv(t, 12)
	w := e.open(t, Config{UserHeap: true, Differential: true})
	w.disableReserve = true

	// Commit one page so there is committed state the abort must not
	// disturb.
	if err := w.CommitTransaction([]pager.Frame{{Pgno: 1, Data: fullPage(0x11)}}); err != nil {
		t.Fatalf("seed commit: %v", err)
	}
	freeBefore := e.heap.FreePages()

	// Burn space until a 3-page transaction cannot fit, so its append
	// dies partway through with some blocks already linked.
	var err error
	for i := 0; i < 20; i++ {
		frames := []pager.Frame{
			{Pgno: 10, Data: fullPage(byte(0x20 + i))},
			{Pgno: 11, Data: fullPage(byte(0x40 + i))},
			{Pgno: 12, Data: fullPage(byte(0x60 + i))},
		}
		blocksBefore := w.Blocks()
		freeBefore = e.heap.FreePages()
		if err = w.CommitTransaction(frames); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("commit error = %v, want ErrLogFull", err)
			}
			if got := w.Blocks(); got != blocksBefore {
				t.Fatalf("abort leaked %d linked blocks", got-blocksBefore)
			}
			if got := e.heap.FreePages(); got != freeBefore {
				t.Fatalf("abort leaked heap pages: free %d, was %d", got, freeBefore)
			}
			break
		}
	}
	if err == nil {
		t.Fatal("12-page heap absorbed 20 three-page transactions without exhausting")
	}

	// The log must NOT be latched broken: checkpoint frees the heap and
	// the same transaction then succeeds.
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after abort: %v", err)
	}
	if err := w.CommitTransaction([]pager.Frame{
		{Pgno: 10, Data: fullPage(0xAA)},
		{Pgno: 11, Data: fullPage(0xBB)},
	}); err != nil {
		t.Fatalf("commit after abort+checkpoint: %v", err)
	}
	img, ok := w.PageVersion(10)
	if !ok || !bytes.Equal(img, fullPage(0xAA)) {
		t.Fatal("page 10 content wrong after recovery from abort")
	}
}

// TestReservationPreventsMidAppendFailure drives a sustained workload
// against a heap sized for fewer than 10 transactions: every commit
// either succeeds or fails up front with ErrLogFull — never with a raw
// heapo.ErrNoSpace — and a checkpoint always unsticks it.
func TestReservationPreventsMidAppendFailure(t *testing.T) {
	e := newTinyEnv(t, 16)
	w := e.open(t, Config{UserHeap: true, Differential: true})

	commits, stalls := 0, 0
	for i := 0; i < 40; i++ {
		fill := byte(i)
		frames := []pager.Frame{{Pgno: uint32(2 + i%3), Data: fullPage(fill)}}
		err := w.CommitTransaction(frames)
		if err == nil {
			commits++
			continue
		}
		if !errors.Is(err, ErrLogFull) {
			t.Fatalf("commit %d: error = %v, want ErrLogFull", i, err)
		}
		if errors.Is(err, heapo.ErrNoSpace) {
			t.Fatalf("commit %d: raw heapo.ErrNoSpace escaped: %v", i, err)
		}
		stalls++
		if err := w.Checkpoint(); err != nil {
			t.Fatalf("checkpoint on full heap: %v", err)
		}
		if err := w.CommitTransaction(frames); err != nil {
			t.Fatalf("commit %d after checkpoint: %v", i, err)
		}
		commits++
	}
	if stalls == 0 {
		t.Fatal("16-page heap never filled over 40 commits; test proves nothing")
	}
	if commits != 40 {
		t.Fatalf("committed %d of 40", commits)
	}
}

// TestCheckpointRunsOnExhaustedHeap is the satellite-2 regression: the
// checkpoint is the only mechanism that frees log space, so it must
// run to completion on a heap with nothing left to allocate.
func TestCheckpointRunsOnExhaustedHeap(t *testing.T) {
	e := newTinyEnv(t, 14)
	w := e.open(t, Config{UserHeap: true, Differential: true})

	// Fill until admission refuses the next transaction.
	filled := false
	for i := 0; i < 30; i++ {
		err := w.CommitTransaction([]pager.Frame{{Pgno: uint32(2 + i), Data: fullPage(byte(i + 1))}})
		if errors.Is(err, ErrLogFull) {
			filled = true
			break
		}
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if !filled {
		t.Fatal("heap never filled")
	}
	before := w.FramesSinceCheckpoint()
	if before == 0 {
		t.Fatal("nothing to checkpoint")
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint on exhausted heap: %v", err)
	}
	if got := w.FramesSinceCheckpoint(); got != 0 {
		t.Fatalf("FramesSinceCheckpoint = %d after checkpoint", got)
	}
	// Freed space must actually be allocatable again.
	if err := w.CommitTransaction([]pager.Frame{{Pgno: 99, Data: fullPage(0xEE)}}); err != nil {
		t.Fatalf("commit after checkpoint: %v", err)
	}
}

// TestOpenUsesHeadroomUnderReservation: creating a log needs a header
// block, and that allocation must ride the headroom carve-out so a
// heap fully promised to reservations can still open a log.
func TestOpenUsesHeadroomUnderReservation(t *testing.T) {
	e := newTinyEnv(t, 32)
	// First open sets the headroom carve-out.
	w := e.open(t, Config{UserHeap: true, Name: "first"})
	_ = w

	// Promise everything ordinary admission will give away.
	var held []*heapo.Reservation
	for {
		res, err := e.heap.Reserve(1, 8192)
		if err != nil {
			break
		}
		held = append(held, res)
	}
	if len(held) == 0 {
		t.Fatal("no reservations granted on a 32-page heap")
	}
	// Ordinary allocation is refused...
	if _, err := e.heap.NVMalloc(heapo.PageSize); !errors.Is(err, heapo.ErrNoSpace) {
		t.Fatalf("NVMalloc = %v, want ErrNoSpace", err)
	}
	// ...but a second log still opens: its header allocation is
	// headroom-privileged.
	if _, err := Open(e.heap, e.db, Config{UserHeap: true, Name: "second"}, e.m); err != nil {
		t.Fatalf("Open under full reservation: %v", err)
	}
	for _, r := range held {
		r.Release()
	}
}
