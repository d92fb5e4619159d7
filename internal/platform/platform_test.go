package platform

import (
	"testing"
	"time"

	"repro/internal/memsim"
)

func TestNewTuna(t *testing.T) {
	p, err := NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	if p.NVRAM.LineSize() != 32 {
		t.Fatalf("Tuna line size = %d, want 32", p.NVRAM.LineSize())
	}
	if p.NVRAM.WriteLatency() != 500*time.Nanosecond {
		t.Fatalf("Tuna NVRAM latency = %v", p.NVRAM.WriteLatency())
	}
	if p.Heap.TotalPages() == 0 {
		t.Fatal("heap not formatted")
	}
}

func TestNewNexus5(t *testing.T) {
	p, err := NewNexus5()
	if err != nil {
		t.Fatal(err)
	}
	if p.NVRAM.LineSize() != 64 {
		t.Fatalf("Nexus 5 line size = %d, want 64", p.NVRAM.LineSize())
	}
}

func TestSetNVRAMLatency(t *testing.T) {
	p, _ := NewTuna()
	p.SetNVRAMLatency(1942 * time.Nanosecond)
	if got := p.NVRAM.WriteLatency(); got != 1942*time.Nanosecond {
		t.Fatalf("latency = %v", got)
	}
}

func TestPowerFailRebootCycle(t *testing.T) {
	p, _ := NewTuna()
	blk, err := p.Heap.NVPreMalloc(8192)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.FS.Create("x", "db")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("unsynced"), 0)

	p.PowerFail(memsim.FailDropAll, 1)
	if err := p.Reboot(); err != nil {
		t.Fatal(err)
	}
	// Pending block reclaimed by Reboot's heap recovery.
	if st, _ := p.Heap.StateOf(blk.Addr); st != 0 /* StateFree */ {
		t.Fatalf("pending block not reclaimed: state %d", st)
	}
	// Unsynced file gone (it was never fsynced).
	if p.FS.Exists("x") {
		t.Fatal("uncommitted file survived machine crash")
	}
	// Shared clock keeps running after reboot.
	before := p.Clock.Now()
	p.Heap.Device().Syscall()
	if p.Clock.Now() == before {
		t.Fatal("clock not shared post-reboot")
	}
}
