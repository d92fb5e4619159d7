package nvram

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func TestWindowTranslatesAddresses(t *testing.T) {
	clock := simclock.New()
	dev := NewDevice(memsim.Config{Size: 1 << 16}, clock, &metrics.Counters{})
	win := dev.Window(4096, 8192)
	if got := win.Size(); got != 8192 {
		t.Fatalf("window Size = %d, want 8192", got)
	}
	win.PutUint64(16, 0xDEADBEEF)
	if got := dev.Uint64(4096 + 16); got != 0xDEADBEEF {
		t.Fatalf("window write landed at %#x via device read, want 0xDEADBEEF, got %#x", 4096+16, got)
	}
	if got := win.Uint64(16); got != 0xDEADBEEF {
		t.Fatalf("window read = %#x, want 0xDEADBEEF", got)
	}
	// Persist through the window, then verify the durable image.
	win.Sync([]memsim.AddrRange{{Start: 16, End: 24}}, memsim.SyncFence|memsim.SyncSyscall|memsim.SyncPersist)
	var buf [8]byte
	if err := win.ReadPersistedChecked(16, buf[:]); err != nil {
		t.Fatalf("ReadPersistedChecked: %v", err)
	}
	if buf[0] != 0xEF {
		t.Fatalf("durable image through window = %x, want little-endian 0xDEADBEEF", buf)
	}
}

func TestWindowOfWindow(t *testing.T) {
	clock := simclock.New()
	dev := NewDevice(memsim.Config{Size: 1 << 16}, clock, &metrics.Counters{})
	outer := dev.Window(8192, 16384)
	inner := outer.Window(4096, 4096)
	inner.PutUint32(0, 77)
	if got := dev.Uint32(8192 + 4096); got != 77 {
		t.Fatalf("nested window write = %d at wrong address", got)
	}
}

func TestWindowBoundsChecked(t *testing.T) {
	clock := simclock.New()
	dev := NewDevice(memsim.Config{Size: 1 << 14}, clock, &metrics.Counters{})
	for _, c := range []struct {
		base uint64
		size int
	}{
		{0, 1 << 15},       // too big
		{1 << 13, 1 << 14}, // past the end
		{7, 4096},          // unaligned base
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window(%d, %d) did not panic", c.base, c.size)
				}
			}()
			dev.Window(c.base, c.size)
		}()
	}
}
