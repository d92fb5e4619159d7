package db

import (
	"errors"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/simclock"
)

func faultOpts() Options {
	return Options{
		Journal:         JournalNVWAL,
		NVWAL:           core.VariantUHLSDiff(),
		CheckpointLimit: -1,
	}
}

func mustCommit(t testing.TB, d *DB, table, key, value string) {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(table, []byte(key), []byte(value)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Transient device errors on the database file — a failed program, a
// failed cache flush — must be absorbed by the bounded retry: the
// checkpoint succeeds, callers never see the error, and io_retries
// counts the absorbed faults.
func TestTransientEIOInvisibleToCheckpoint(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "1")

	plat.Flash.FailNextWrites(1)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with transient write EIO: %v", err)
	}
	after := plat.Metrics.Count(metrics.IORetries)
	if after < 1 {
		t.Fatalf("io_retries = %d, want >= 1", after)
	}

	mustCommit(t, d, "t", "a", "2")
	plat.Flash.FailNextSyncs(1)
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with transient sync EIO: %v", err)
	}
	if got := plat.Metrics.Count(metrics.IORetries); got <= after {
		t.Fatalf("io_retries did not advance (%d -> %d)", after, got)
	}
	if err := d.Degraded(); err != nil {
		t.Fatalf("transient errors must not degrade the DB: %v", err)
	}
	if v, ok, err := d.Get("t", []byte("a")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// A transient read EIO on a cold cache miss is retried invisibly too:
// reboot (emptying every cache), fail the next device read, and reopen.
func TestTransientEIOInvisibleToRead(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOpts()
	d, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "1")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	plat.PowerFail(memsim.FailKeepCompleted, 1)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}

	plat.Flash.FailNextReads(1)
	d, err = Open(plat, "test.db", opts)
	if err != nil {
		t.Fatalf("open with transient read EIO: %v", err)
	}
	if got := plat.Metrics.Count(metrics.IORetries); got < 1 {
		t.Fatalf("io_retries = %d, want >= 1", got)
	}
	if v, ok, err := d.Get("t", []byte("a")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// A permanent device error on the database file flips the DB into
// degraded read-only mode: writes and checkpoints are refused with
// ErrDegraded, while reads keep serving the last good state out of the
// log and cache.
func TestPermanentEIODegradesToReadOnly(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "1")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "2")

	// Retire every device page backing the file except the header page,
	// so the dirty leaf page's writeback hits dead media.
	f, err := plat.FS.Open("test.db")
	if err != nil {
		t.Fatal(err)
	}
	for _, pg := range f.Extents()[1:] {
		plat.Flash.MarkBad(pg)
	}

	err = d.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint into dead media succeeded")
	}
	if !errors.Is(err, blockdev.ErrIO) || blockdev.IsTransient(err) {
		t.Fatalf("checkpoint error = %v, want permanent device error", err)
	}
	if derr := d.Degraded(); !errors.Is(derr, ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", derr)
	}

	// Writes are refused...
	if _, err := d.Begin(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Begin = %v, want ErrDegraded", err)
	}
	if err := d.CreateTable("u"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("CreateTable = %v, want ErrDegraded", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second Checkpoint = %v, want ErrDegraded", err)
	}
	// ...while reads keep serving the last good state.
	if v, ok, err := d.Get("t", []byte("a")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	rtx, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := rtx.Get("t", []byte("a")); err != nil || !ok || string(v) != "2" {
		t.Fatalf("snapshot Get = (%q,%v,%v)", v, ok, err)
	}
	rtx.Close()
	if err := d.Close(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Close = %v, want ErrDegraded", err)
	}
}

// stageForMidCkptCrash builds a platform with a cleanly checkpointed
// database plus a round of post-checkpoint commits, ready for a second
// checkpoint. Single-goroutine on the virtual clock, so every run
// consumes an identical NVRAM-operation sequence.
func stageForMidCkptCrash(t *testing.T) (*platform.Platform, *DB) {
	t.Helper()
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		mustCommit(t, d, "t", string(rune('a'+i)), "seed-value-000000000000")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustCommit(t, d, "t", string(rune('a'+i)), "post-ckpt-value-1111111")
	}
	return plat, d
}

// A crash in the middle of a checkpoint leaves the round's record in
// its backfill phase; recovery finishes the round by rewriting the
// recovered pages. When that writeback hits dead media, the open must
// not fail — it returns a usable handle together with ErrDegraded, the
// salvage report flags the database-file damage, and the surviving
// catalog stays readable. The crash instant is found by scanning every
// arm position across the checkpoint's operation window.
func TestOpenDegradedAfterMidCheckpointMediaDeath(t *testing.T) {
	// Dry run: measure the checkpoint's NVRAM-operation window.
	plat, d := stageForMidCkptCrash(t)
	c0 := plat.OpCount()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	delta := plat.OpCount() - c0
	d.Abandon()
	if delta <= 0 {
		t.Fatalf("checkpoint consumed no NVRAM ops")
	}

	for arm := int64(1); arm <= delta; arm++ {
		plat, d = stageForMidCkptCrash(t)
		plat.ArmCrash(arm, memsim.FailDropAll, 42)
		_ = d.Checkpoint()
		d.Abandon()
		plat.PowerFail(memsim.FailDropAll, 42)
		if err := plat.Reboot(); err != nil {
			t.Fatal(err)
		}
		f, err := plat.FS.Open("test.db")
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range f.Extents()[1:] {
			plat.Flash.MarkBad(pg)
		}
		d2, err := Open(plat, "test.db", faultOpts())
		if err == nil {
			// The crash landed outside the backfill window; recovery never
			// touched the database file. Try the next arm position.
			d2.Abandon()
			continue
		}
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("arm=%d: open error = %v, want ErrDegraded", arm, err)
		}
		if d2 == nil {
			t.Fatalf("arm=%d: degraded open returned no handle", arm)
		}
		if rep := d2.Salvage(); rep == nil || !rep.DBFileDamaged {
			t.Fatalf("arm=%d: salvage report = %v, want DBFileDamaged", arm, rep)
		}
		if !d2.HasTable("t") {
			t.Fatalf("arm=%d: catalog unreadable in degraded mode", arm)
		}
		if _, err := d2.Begin(); !errors.Is(err, ErrDegraded) {
			t.Fatalf("arm=%d: Begin = %v, want ErrDegraded", arm, err)
		}
		d2.Abandon()
		return
	}
	t.Fatalf("no arm position in [1,%d] produced a mid-backfill crash with db-file damage", delta)
}

// The background scrubber audits the durable image after every
// ScrubEvery commits and, via a checkpoint, heals silent media rot: a
// stuck NVRAM line freezes a commit mark's durable content, the scrub
// detects it, and the triggered checkpoint rewrites the pages from DRAM
// and quarantines the implicated blocks.
func TestScrubberDetectsAndHealsStuckLines(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOpts()
	opts.Concurrent = true
	opts.ScrubEvery = 1
	d, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	start, end := plat.Heap.HeapRange()
	plat.NVRAM.InjectFaults(memsim.FaultConfig{
		Seed:          99,
		StuckLineRate: 0.25,
		Ranges:        []memsim.AddrRange{{Start: start, End: end}},
	})

	deadline := time.Now().Add(20 * time.Second)
	commits := 0
	for plat.Metrics.Count(metrics.ScrubFramesBad) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no scrub detection after %d commits (checked=%d)",
				commits, plat.Metrics.Count(metrics.ScrubFramesChecked))
		}
		mustCommit(t, d, "t", "k", "value-0123456789abcdef")
		commits++
		time.Sleep(time.Millisecond)
	}
	if plat.Metrics.Count(metrics.ScrubFramesChecked) == 0 {
		t.Fatal("scrub detected damage without checking frames")
	}
	// The scrubber's self-heal checkpoint retires the implicated blocks
	// into the heap's persistent quarantine.
	for plat.Metrics.Count(metrics.BlocksQuarantined) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("implicated blocks never reached quarantine")
		}
		time.Sleep(time.Millisecond)
	}
	// The healed database still serves the correct data.
	if v, ok, err := d.Get("t", []byte("k")); err != nil || !ok || string(v) != "value-0123456789abcdef" {
		t.Fatalf("Get after heal = (%q,%v,%v)", v, ok, err)
	}
	plat.NVRAM.InjectFaults(memsim.FaultConfig{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// The scrubber goroutine racing a machine crash (run under -race): the
// crash trigger freezes the durable image mid-workload while the
// scrubber keeps auditing, then the platform power-fails and recovers.
// Recovery must stay consistent across every round.
func TestScrubberRacesPowerFail(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOpts()
	opts.Concurrent = true
	opts.ScrubEvery = 1
	d, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 4; round++ {
		plat.ArmCrash(50+int64(round)*377, memsim.FailKeepCompleted, int64(round))
		for i := 0; i < 25; i++ {
			tx, err := d.Begin()
			if err != nil {
				break
			}
			if err := tx.Insert("t", []byte{byte('a' + i%8)}, []byte("v")); err != nil {
				tx.Rollback()
				break
			}
			if err := tx.Commit(); err != nil {
				break
			}
		}
		d.Abandon()
		plat.PowerFail(memsim.FailKeepCompleted, int64(round))
		if err := plat.Reboot(); err != nil {
			t.Fatal(err)
		}
		d, err = Open(plat, "test.db", opts)
		if err != nil {
			t.Fatalf("round %d: recovery open: %v", round, err)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("round %d: structural check: %v", round, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// okFile is a database file on which every operation succeeds.
type okFile struct{}

func (okFile) PageSize() int                  { return 4096 }
func (okFile) ReadPage(uint32, []byte) error  { return nil }
func (okFile) WritePage(uint32, []byte) error { return nil }
func (okFile) Sync() error                    { return nil }

// TestRetryFileSuccessAllocatesNothing pins the retry wrapper's happy
// path, which every database-file read, write and sync of every workload
// runs: asking whether a nil error is transient, and a WritePage that
// succeeds, allocate nothing.
func TestRetryFileSuccessAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { blockdev.IsTransient(nil) }); n != 0 {
		t.Fatalf("IsTransient(nil) allocates %v times, want 0", n)
	}
	r := newRetryFile(okFile{}, simclock.New(), &metrics.Counters{}, func(error) { t.Fatal("permanent error") })
	page := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		if err := r.WritePage(7, page); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a successful retryFile.WritePage allocates %v times, want 0", n)
	}
}
