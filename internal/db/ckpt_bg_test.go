package db

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/platform"
)

func bgOptions() Options {
	return Options{
		Journal:              JournalNVWAL,
		NVWAL:                core.VariantUHLSDiff(),
		Concurrent:           true,
		BackgroundCheckpoint: true,
		CheckpointLimit:      4,
	}
}

func waitDrained(t *testing.T, d *DB, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.Journal().FramesSinceCheckpoint() >= limit {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never drained the log (%d frames)",
				d.Journal().FramesSinceCheckpoint())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackgroundCheckpointDrainsLog is the end-to-end happy path: with
// BackgroundCheckpoint on, commits past the limit kick the checkpointer
// goroutine, the log drains without any commit carrying checkpoint I/O,
// and Close reports a clean shutdown.
func TestBackgroundCheckpointDrainsLog(t *testing.T) {
	d, plat := newDB(t, bgOptions())
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%03d", i): "v"})
	}
	waitDrained(t, d, bgOptions().CheckpointLimit)
	if plat.Metrics.Count(metrics.Checkpoints) == 0 {
		t.Fatal("no checkpoint round ran")
	}
	if plat.Metrics.Count(metrics.CheckpointPages) == 0 {
		t.Fatal("checkpoint wrote no pages")
	}
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, ok, err := d.Get("t", []byte(k)); err != nil || !ok {
			t.Fatalf("key %s lost after background checkpointing (ok=%v err=%v)", k, ok, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestRoundDeferredByReaderRunsAtNextCommit: a reader pinned below the
// log's tip refuses every round the commits past the limit kick for.
// Closing it wakes nobody; the first commit after the close, past the
// limit like every commit before it, kicks the deferred round, which
// drains the log.
func TestRoundDeferredByReaderRunsAtNextCommit(t *testing.T) {
	opts := bgOptions()
	d, plat := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*opts.CheckpointLimit; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	if n := d.Journal().FramesSinceCheckpoint(); n < 2*opts.CheckpointLimit {
		t.Fatalf("%d frames since the last round: a round ran past the reader's mark", n)
	}
	before := plat.Metrics.Count(metrics.Checkpoints)
	r.Close()
	mustCommitKV(t, d, "t", map[string]string{"after": "v"})
	waitDrained(t, d, opts.CheckpointLimit)
	if plat.Metrics.Count(metrics.Checkpoints) == before {
		t.Fatal("the log drained without a checkpoint round")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestReaderOpenedMidCheckpointKeepsMark parks the background
// checkpointer inside phase B (page writeback, no lock held), opens a
// snapshot reader and lands a commit while it is parked, and verifies
// the reader's view never moves — the regression the backfill watermark
// exists to prevent.
func TestReaderOpenedMidCheckpointKeepsMark(t *testing.T) {
	opts := bgOptions()
	d, plat := newDB(t, opts)
	w, ok := d.Journal().(*core.NVWAL)
	if !ok {
		t.Fatalf("journal is %T, want *core.NVWAL", d.Journal())
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	// Arm the hook before any commit: the kick channel orders this write
	// before the checkpointer goroutine's reads.
	var armed atomic.Bool
	var enterOnce sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	armed.Store(true)
	w.SetCrashHook(func(s string) {
		if s == core.StepCkptAfterPages && armed.Load() {
			enterOnce.Do(func() { close(entered) })
			<-release
		}
	})

	for i := 0; i < 6; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("checkpointer never reached phase B")
	}

	// Reader opens while the writeback is in flight.
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Get("t", []byte("k5")); err != nil || !ok {
		t.Fatalf("mid-checkpoint snapshot missing k5 (ok=%v err=%v)", ok, err)
	}

	// A commit while the checkpointer is parked must not block: if the
	// commit path waited on checkpoint I/O this test would deadlock
	// (release only closes after the commit returns).
	mustCommitKV(t, d, "t", map[string]string{"late": "v"})
	armed.Store(false)
	close(release)

	// Wait for the parked round to finish. Not for the log to drain: how
	// many commits that round froze is up to the scheduler, and the open
	// reader's mark pins whatever it left behind.
	for deadline := time.Now().Add(5 * time.Second); plat.Metrics.Count(metrics.Checkpoints) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("parked checkpoint round never completed")
		}
		time.Sleep(time.Millisecond)
	}
	// The snapshot still reads at its mark: pre-mark keys present, the
	// post-mark commit invisible.
	if _, ok, err := r.Get("t", []byte("k5")); err != nil || !ok {
		t.Fatalf("snapshot lost k5 after checkpoint completed (ok=%v err=%v)", ok, err)
	}
	if _, ok, _ := r.Get("t", []byte("late")); ok {
		t.Fatal("snapshot sees a commit after its mark")
	}
	r.Close()
	if _, ok, err := d.Get("t", []byte("late")); err != nil || !ok {
		t.Fatalf("post-mark commit lost (ok=%v err=%v)", ok, err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBackgroundCheckpointConcurrentWriters hammers the bg checkpointer
// with parallel writers (race-detector coverage for the commit /
// writeback overlap) and verifies every acknowledged commit survives.
func TestBackgroundCheckpointConcurrentWriters(t *testing.T) {
	opts := bgOptions()
	opts.GroupCommit = 4
	d, _ := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				k := fmt.Sprintf("w%d-%03d", wid, i)
				if err := tx.Insert("t", []byte(k), []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(wid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitDrained(t, d, opts.CheckpointLimit)
	for wid := 0; wid < writers; wid++ {
		for i := 0; i < each; i++ {
			k := fmt.Sprintf("w%d-%03d", wid, i)
			if _, ok, err := d.Get("t", []byte(k)); err != nil || !ok {
				t.Fatalf("acknowledged commit %s lost (ok=%v err=%v)", k, ok, err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestBackgroundCheckpointOptionValidation pins the option's contract.
func TestBackgroundCheckpointOptionValidation(t *testing.T) {
	plat, err := platform.NewNexus5()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(plat, "a.db", Options{
		Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(),
		BackgroundCheckpoint: true,
	}); err == nil {
		t.Fatal("BackgroundCheckpoint without Concurrent accepted")
	}
	// Only NVWAL checkpoints incrementally; the baselines block.
	for _, j := range []JournalMode{JournalWAL, JournalOptimizedWAL, JournalRollback} {
		if _, err := Open(plat, "b.db", Options{
			Journal: j, Concurrent: true,
			BackgroundCheckpoint: true,
		}); err == nil {
			t.Fatalf("BackgroundCheckpoint under %s accepted", j)
		}
	}
	d, err := Open(plat, "c.db", Options{
		Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true,
		BackgroundCheckpoint: true, CheckpointLimit: 4,
	})
	if err != nil {
		t.Fatalf("BackgroundCheckpoint under NVWAL rejected: %v", err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	waitDrained(t, d, 4)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
