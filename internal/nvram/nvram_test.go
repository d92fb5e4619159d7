package nvram

import (
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

func newDev(t testing.TB) *Device {
	t.Helper()
	return NewDevice(Config{Size: 1 << 20}, simclock.New(), &metrics.Counters{})
}

func TestUint64RoundTrip(t *testing.T) {
	d := newDev(t)
	d.PutUint64(128, 0xDEADBEEFCAFEBABE)
	if got := d.Uint64(128); got != 0xDEADBEEFCAFEBABE {
		t.Fatalf("Uint64 = %#x", got)
	}
}

func TestUint32RoundTrip(t *testing.T) {
	d := newDev(t)
	d.PutUint32(64, 0xFEEDFACE)
	if got := d.Uint32(64); got != 0xFEEDFACE {
		t.Fatalf("Uint32 = %#x", got)
	}
}

func TestAligned8ByteWriteIsAtomicAcrossCrash(t *testing.T) {
	// The §4.1 assumption: an aligned 8-byte store either fully persists
	// or not at all, under every failure policy and seed.
	for seed := int64(0); seed < 32; seed++ {
		d := newDev(t)
		d.PutUint64(256, 0x1111111122222222)
		d.Flush(256, 264)
		d.PowerFail(memsim.FailAdversarial, seed)
		d.Recover()
		got := d.Uint64(256)
		if got != 0 && got != 0x1111111122222222 {
			t.Fatalf("seed %d: torn 8-byte write: %#x", seed, got)
		}
	}
}

func TestCommitMarkOrderingViaFlush(t *testing.T) {
	d := newDev(t)
	d.PutUint64(0, 42)
	d.Sync([]memsim.AddrRange{{Start: 0, End: 8}}, memsim.SyncFence|memsim.SyncPersist)
	d.PowerFail(memsim.FailDropAll, 1)
	d.Recover()
	if got := d.Uint64(0); got != 42 {
		t.Fatalf("persisted commit mark = %d, want 42", got)
	}
}

func TestWriteLatencyKnob(t *testing.T) {
	d := newDev(t)
	d.SetWriteLatency(1942 * time.Nanosecond)
	if got := d.WriteLatency(); got != 1942*time.Nanosecond {
		t.Fatalf("WriteLatency = %v", got)
	}
}

func TestDomainAccessor(t *testing.T) {
	d := newDev(t)
	if d.Domain() == nil {
		t.Fatal("Domain() = nil")
	}
	if d.Size() != 1<<20 {
		t.Fatalf("Size = %d", d.Size())
	}
	if d.LineSize() <= 0 {
		t.Fatalf("LineSize = %d", d.LineSize())
	}
}
