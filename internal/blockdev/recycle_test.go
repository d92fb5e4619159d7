package blockdev

import (
	"bytes"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func page(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

// prefixLen is how many leading bytes of p equal b.
func prefixLen(p []byte, b byte) int {
	n := 0
	for n < len(p) && p[n] == b {
		n++
	}
	return n
}

func readPage(t *testing.T, d *Device, p int) []byte {
	t.Helper()
	got := make([]byte, d.PageSize())
	if err := d.ReadPage(p, got); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWriteSyncOnWarmDeviceAllocatesNothing: the buffer a Sync replaces
// is the buffer the next write of that page programs into. Measured
// without rounding: a round of nine programs and a Sync may allocate 0.05
// times, so one buffer per round shows.
func TestWriteSyncOnWarmDeviceAllocatesNothing(t *testing.T) {
	d := New(Config{Pages: 64}, simclock.New(), &metrics.Counters{})
	img := page(0x5A, d.PageSize())
	round := func() {
		for p := 0; p < 8; p++ {
			if err := d.WritePage(p, img, "db"); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.WritePage(3, img, "db"); err != nil { // an overwrite while pending
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if allocs, bytes := alloctest.PerRun(300, round); allocs > 0.05 || bytes > 2048 {
		t.Fatalf("write→sync on a warmed device: %.3f allocs and %.1f bytes per round, want 0", allocs, bytes)
	}
}

// TestNoDataProgramsShareZeroPage: pages programmed with no data (the
// file system's journal blocks) read as zeros, take no buffer even on a
// fresh device, and the shared page they map to is never handed to a
// later write — data programmed over them, before or after a Sync, leaves
// the others zero.
func TestNoDataProgramsShareZeroPage(t *testing.T) {
	d := New(Config{Pages: 256}, simclock.New(), &metrics.Counters{})
	zero, img := make([]byte, d.PageSize()), page(0x5A, d.PageSize())
	next := 0
	if avg := testing.AllocsPerRun(50, func() {
		for range 3 {
			if err := d.WritePage(next%200, nil, "journal"); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("no-data programs of fresh pages: %.1f allocs per round, want 0", avg)
	}
	for _, p := range []int{0, 1} {
		if err := d.WritePage(p, img, "db"); err != nil {
			t.Fatal(err)
		}
		if err := d.WritePage(p, img, "db"); err != nil { // recycles p's last buffer
			t.Fatal(err)
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for p := 2; p < 200; p++ {
		if got := readPage(t, d, p); !bytes.Equal(got, zero) {
			t.Fatalf("page %d reads %#x…, want zeros", p, got[0])
		}
	}
	if got := readPage(t, d, 1); !bytes.Equal(got, img) {
		t.Fatalf("page 1 reads %#x…, want its data", got[0])
	}
}

// TestRoundLargerThanFloorAllocatesNothing: a checkpoint round writes
// back more pages than the free list's floor, and the next round's
// programs still reuse every buffer the last Sync replaced.
func TestRoundLargerThanFloorAllocatesNothing(t *testing.T) {
	const pages = 400 // past maxFreeBuffers, as a busy round is
	d := New(Config{Pages: 512}, simclock.New(), &metrics.Counters{})
	img := page(0x3C, d.PageSize())
	round := func() {
		for p := 0; p < pages; p++ {
			if err := d.WritePage(p, img, "db"); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	if avg := testing.AllocsPerRun(3, round); avg != 0 {
		t.Fatalf("a warm %d-page round: %.1f allocs, want 0", pages, avg)
	}
}

// TestRecycledBufferCarriesNoStaleBytes: a short page image and a short
// write land on a buffer that held another page's content a moment ago.
func TestRecycledBufferCarriesNoStaleBytes(t *testing.T) {
	d := New(Config{Pages: 64}, simclock.New(), &metrics.Counters{})
	ps := d.PageSize()
	d.WritePage(1, page(0xEE, ps), "db")
	d.Sync()
	d.WritePage(1, page(0xDD, ps), "db")
	d.Sync() // the 0xEE buffer is free now

	d.WritePage(2, page(0x11, 100), "db") // takes it
	want := append(page(0x11, 100), make([]byte, ps-100)...)
	if got := readPage(t, d, 2); !bytes.Equal(got, want) {
		t.Fatalf("partial page image over a recycled buffer: byte 100 = %#x, want 0", got[100])
	}

	d.Sync()
	d.WritePage(1, page(0xCC, ps), "db")
	d.Sync() // the 0xDD buffer is free
	d.InjectFaults(FaultConfig{Seed: 3, ShortWriteRate: 1})
	d.WritePage(7, page(0x77, ps), "db") // never written before: zeros show through past the cut
	got := readPage(t, d, 7)
	cut := prefixLen(got, 0x77)
	if cut == 0 || cut == ps || !bytes.Equal(got[cut:], make([]byte, ps-cut)) {
		t.Fatalf("short write over a recycled buffer: cut at %d, tail not zero", cut)
	}
	d.WritePage(1, page(0x99, ps), "db") // durable 0xCC shows through past the cut
	got = readPage(t, d, 1)
	cut = prefixLen(got, 0x99)
	if cut == 0 || cut == ps || !bytes.Equal(got[cut:], page(0xCC, ps-cut)) {
		t.Fatalf("short write over durable content: cut at %d, tail is not the old page", cut)
	}
}

// TestFreezeImageSurvivesRecycling: Freeze copies the page maps
// shallowly, so no buffer reachable from the frozen image may be reused
// while it is held — overwrites and Syncs after the Freeze must leave
// what PowerFail restores untouched. Buffers recycled before the Freeze
// are in no map and stay reusable.
func TestFreezeImageSurvivesRecycling(t *testing.T) {
	d := New(Config{Pages: 64}, simclock.New(), &metrics.Counters{})
	ps := d.PageSize()
	for p := 0; p < 4; p++ {
		d.WritePage(p, page(0xA0+byte(p), ps), "db")
	}
	d.Sync()
	for p := 0; p < 4; p++ { // fills the free list with the first generation
		d.WritePage(p, page(0xB0+byte(p), ps), "db")
	}
	d.Sync()
	d.WritePage(9, page(0x99, ps), "db") // pending at the freeze instant
	d.Freeze()
	for gen := byte(0); gen < 3; gen++ { // the doomed execution runs on
		for p := 0; p < 4; p++ {
			d.WritePage(p, page(0xC0+gen, ps), "db")
			d.WritePage(p, page(0xD0+gen, ps), "db")
		}
		d.WritePage(9, page(0x90+gen, ps), "db")
		d.Sync()
	}
	d.PowerFail()
	for p := 0; p < 4; p++ {
		if got := readPage(t, d, p); !bytes.Equal(got, page(0xB0+byte(p), ps)) {
			t.Fatalf("page %d after Freeze→PowerFail starts %#x, want %#x", p, got[0], 0xB0+byte(p))
		}
	}
	if got := readPage(t, d, 9); !bytes.Equal(got, make([]byte, ps)) {
		t.Fatalf("a write pending at the freeze instant survived: %#x", got[0])
	}
	// Torn sectors come from the frozen in-flight set, intact.
	d2 := New(Config{Pages: 64}, simclock.New(), &metrics.Counters{})
	d2.InjectFaults(FaultConfig{Seed: 5, TornWriteRate: 1})
	d2.WritePage(2, page(0x22, ps), "db")
	d2.Sync()
	d2.WritePage(2, page(0x33, ps), "db")
	d2.Freeze()
	d2.WritePage(2, page(0x44, ps), "db")
	d2.Sync()
	d2.WritePage(2, page(0x55, ps), "db")
	d2.PowerFail()
	got := readPage(t, d2, 2)
	cut := prefixLen(got, 0x33)
	if cut == 0 || cut == ps || !bytes.Equal(got[cut:], page(0x22, ps-cut)) {
		t.Fatalf("torn page: %#x… cut %d, want a 0x33 prefix over 0x22", got[0], cut)
	}
}

// TestBulkRoundSurplusDrains: the free list grows to a bulk round's size,
// and the smaller rounds after it draw the surplus down to their own
// size without allocating, instead of keeping it.
func TestBulkRoundSurplusDrains(t *testing.T) {
	d := New(Config{Pages: 2048}, simclock.New(), &metrics.Counters{})
	img := page(0x5A, d.PageSize())
	round := func(pages int) {
		for p := 0; p < pages; p++ {
			if err := d.WritePage(p, img, "db"); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	round(1500)
	round(1500)
	if n := len(d.free); n != 1500 {
		t.Fatalf("after two 1500-page rounds the free list holds %d buffers, want 1500", n)
	}
	if avg := testing.AllocsPerRun(5, func() { round(300) }); avg != 0 {
		t.Fatalf("300-page rounds after a bulk one: %.1f allocs, want 0", avg)
	}
	if n := len(d.free); n != 300 {
		t.Fatalf("after 300-page rounds the free list holds %d buffers, want 300", n)
	}
}
