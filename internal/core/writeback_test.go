package core

import (
	"fmt"
	"reflect"
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

// writeBackRun is one seeded run of TestWriteBackOrderIsReplayable: the
// report of a recovery that finishes a frozen round over a cold file
// system whose device reads fail at random, and the error of the round
// after it.
func writeBackRun(t *testing.T) (*SalvageReport, error) {
	t.Helper()
	const pages = 64
	clock, m := simclock.New(), &metrics.Counters{}
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
	e := &testEnv{clock: clock, m: m, dev: dev, heap: h, fs: fs, db: dbfile.New(f, 4096)}
	cfg := VariantUHLS() // full frames: recovery reads no page's base
	w := e.open(t, cfg)
	commit := func(v byte) {
		var frames []pager.Frame
		for pgno := uint32(2); pgno < 2+pages; pgno++ {
			frames = append(frames, pager.Frame{Pgno: pgno, Data: fullPage(v + byte(pgno))})
		}
		if err := w.CommitTransaction(frames); err != nil {
			t.Fatal(err)
		}
	}
	// Every page on the device, then a frozen round over new images of
	// all of them, and newer ones in the live generation.
	commit(0x10)
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit(0x40)
	if err := w.FreezeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	commit(0x80)
	// The power cut empties the file system's cache: each page the
	// recovered round writes back is read from the device first.
	bd.InjectFaults(blockdev.FaultConfig{Seed: 4901, ReadEIORate: 0.05})
	w = e.reopen(t, cfg, memsim.FailDropAll, 1)
	return w.Salvage(), w.Checkpoint()
}

// TestWriteBackOrderIsReplayable: checkpoint write-back goes in page
// order, so which cold page draws a seeded device read fault is a fact of
// the seed. Run twice, recovery's write-back of a frozen round fails at
// the same page with the same report, and so does the round after it.
// In an order a hash map chooses, the page that draws the fault would
// vary between runs.
func TestWriteBackOrderIsReplayable(t *testing.T) {
	rep1, err1 := writeBackRun(t)
	rep2, err2 := writeBackRun(t)
	if !rep1.DBFileDamaged {
		t.Fatalf("no write-back drew a read fault: %v", rep1)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("the same seed gave two recoveries:\n%v %q\n%v %q", rep1, rep1.Events, rep2, rep2.Events)
	}
	if fmt.Sprint(err1) != fmt.Sprint(err2) {
		t.Fatalf("the same seed gave two rounds: %v, then %v", err1, err2)
	}
}
