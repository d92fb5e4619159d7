package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiffExtentsIdentical(t *testing.T) {
	a := bytes.Repeat([]byte{7}, 256)
	if got := diffExtents(a, a, 32); got != nil {
		t.Fatalf("identical images produced extents: %v", got)
	}
}

func TestDiffExtentsSingleRegion(t *testing.T) {
	old := make([]byte, 256)
	new := make([]byte, 256)
	copy(new, old)
	new[100] = 1
	new[101] = 2
	got := diffExtents(old, new, 32)
	if len(got) != 1 || got[0].Off != 100 || got[0].Len != 2 {
		t.Fatalf("extents = %v, want [{100 2}]", got)
	}
}

func TestDiffExtentsGapMerge(t *testing.T) {
	old := make([]byte, 256)
	mk := func(offs ...int) []byte {
		n := make([]byte, 256)
		for _, o := range offs {
			n[o] = 0xFF
		}
		return n
	}
	// Two dirty bytes 10 apart: merged under gapMerge 32.
	if got := diffExtents(old, mk(50, 60), 32); len(got) != 1 || got[0].Off != 50 || got[0].Len != 11 {
		t.Fatalf("merge failed: %v", got)
	}
	// 100 apart: two extents under gapMerge 32.
	if got := diffExtents(old, mk(50, 150), 32); len(got) != 2 {
		t.Fatalf("over-merged: %v", got)
	}
	// 100 apart with gapMerge 128: merged.
	if got := diffExtents(old, mk(50, 150), 128); len(got) != 1 {
		t.Fatalf("under-merged: %v", got)
	}
}

func TestDiffExtentsBoundaries(t *testing.T) {
	old := make([]byte, 64)
	new := make([]byte, 64)
	new[0] = 1
	new[63] = 1
	got := diffExtents(old, new, 8)
	if len(got) != 2 || got[0].Off != 0 || got[1].Off+got[1].Len != 64 {
		t.Fatalf("boundary extents = %v", got)
	}
}

func TestDiffExtentsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	diffExtents(make([]byte, 10), make([]byte, 11), 8)
}

// TestTrailingZeros holds the word-wise tail scan to a byte count from
// the end, for every length up to five words and every position of the
// last non-zero byte, and on a 4 KiB page.
func TestTrailingZeros(t *testing.T) {
	bytewise := func(p []byte) int {
		n := 0
		for i := len(p) - 1; i >= 0 && p[i] == 0; i-- {
			n++
		}
		return n
	}
	check := func(p []byte) {
		t.Helper()
		if got, want := trailingZeros(p), bytewise(p); got != want {
			t.Fatalf("len %d: trailingZeros = %d, byte-wise %d", len(p), got, want)
		}
	}
	for n := 0; n <= 40; n++ {
		p := make([]byte, n)
		check(p)
		for last := 0; last < n; last++ {
			for _, v := range []byte{0x01, 0x80, 0xFF} {
				clear(p)
				p[last] = v
				check(p)
				if last > 0 {
					p[last-1] = 0xFF // a non-zero byte below the last
					check(p)
				}
			}
		}
	}
	page := make([]byte, 4096)
	for _, last := range []int{0, 7, 8, 100, 4087, 4088, 4095} {
		clear(page)
		page[last] = 1
		check(page)
	}
}

// Property: applying the extents of diff(old, new) onto a copy of old
// reconstructs new exactly, for any images and any gap-merge setting.
func TestPropertyDiffApplyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128 + rng.Intn(4096)
		old := make([]byte, n)
		rng.Read(old)
		new := make([]byte, n)
		copy(new, old)
		for i := 0; i < rng.Intn(20); i++ {
			off := rng.Intn(n)
			ln := 1 + rng.Intn(n-off)
			if ln > 200 {
				ln = 200
			}
			rng.Read(new[off : off+ln])
		}
		gap := 1 + rng.Intn(256)
		extents := diffExtents(old, new, gap)
		got := make([]byte, n)
		copy(got, old)
		for _, e := range extents {
			applyExtent(got, e.Off, new[e.Off:e.Off+e.Len])
		}
		if !bytes.Equal(got, new) {
			return false
		}
		// Extents are sorted, non-overlapping, and non-empty.
		prevEnd := -1
		for _, e := range extents {
			if e.Len <= 0 || e.Off <= prevEnd {
				return false
			}
			prevEnd = e.Off + e.Len
		}
		// Every changed byte is covered.
		covered := make([]bool, n)
		for _, e := range extents {
			for i := e.Off; i < e.Off+e.Len; i++ {
				covered[i] = true
			}
		}
		for i := range old {
			if old[i] != new[i] && !covered[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with gapMerge g, consecutive extents are separated by at
// least g clean bytes (otherwise they would have merged).
func TestPropertyGapMergeRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, 2048)
		new := make([]byte, 2048)
		for i := 0; i < 30; i++ {
			new[rng.Intn(2048)] = byte(1 + rng.Intn(255))
		}
		g := 1 + rng.Intn(128)
		extents := diffExtents(old, new, g)
		for i := 1; i < len(extents); i++ {
			gap := extents[i].Off - (extents[i-1].Off + extents[i-1].Len)
			if gap < g {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistencyModesDurable(t *testing.T) {
	// SP/EP must give the same durability as lazy sync.
	for _, cfg := range []Config{VariantSP(), VariantEP()} {
		t.Run(cfg.Label(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, cfg)
			base := fullPage(0x21)
			commitPages(t, w, map[uint32][]byte{2: base})
			w2 := e.reopen(t, cfg, 0 /* FailDropAll */, 3)
			got, ok := w2.PageVersion(2)
			if !ok || !bytes.Equal(got, base) {
				t.Fatal("committed page lost under hardware persistency model")
			}
		})
	}
}

func TestPersistencyModesSkipFlushInstructions(t *testing.T) {
	// §4.4: "no extra code is required to explicitly flush appropriate
	// cache lines" — the hardware models must not issue dccmvac.
	e := newEnv(t)
	w := e.open(t, VariantEP())
	before := e.m.Count("cache_line_flush")
	commitPages(t, w, map[uint32][]byte{2: fullPage(1)})
	commitPages(t, w, map[uint32][]byte{2: fullPage(2)})
	// Block-link persistence still flushes (the heap protocol is
	// software), but the log-write path itself must not.
	if got := e.m.Count("cache_line_flush") - before; got > 8 {
		t.Fatalf("epoch persistency issued %d dccmvac", got)
	}
}
