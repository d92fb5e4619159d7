package db

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// commitDurable commits one key through the first half of CommitCtx only.
func commitDurable(t *testing.T, d *DB, key string) {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []byte(key), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitDurableCtx(t.Context()); err != nil {
		t.Fatal(err)
	}
	if tx.Seq() == 0 {
		t.Fatal("a durable commit has no seq")
	}
}

// boundaryOpts is the NVWAL configuration with an inline round due every
// limit frames.
func boundaryOpts(limit int) Options {
	opts := nvwalOpts()
	opts.CheckpointLimit = limit
	return opts
}

// TestBoundaryCommitHalvesAreCommitCtx: CommitCtx is CommitDurableCtx then
// AutoCheckpoint(false), and a caller that runs the halves itself — with a
// freeze in between, as repl.Primary does — executes the same device
// operations: after the same commits the two databases show the same
// virtual clock and the same counters.
func TestBoundaryCommitHalvesAreCommitCtx(t *testing.T) {
	const limit, commits = 10, 35
	whole, wholePlat := newDB(t, boundaryOpts(limit))
	halves, halvesPlat := newDB(t, boundaryOpts(limit))
	for _, d := range []*DB{whole, halves} {
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < commits; i++ {
		key := fmt.Sprintf("k%03d", i)
		mustCommit(t, whole, "t", key, "v")
		commitDurable(t, halves, key)
		if err := halves.AutoCheckpoint(true); err != nil {
			t.Fatal(err)
		}
		if err := halves.AutoCheckpoint(false); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := wholePlat.Clock.Now(), halvesPlat.Clock.Now(); a != b {
		t.Fatalf("virtual time: CommitCtx %v, the halves %v", a, b)
	}
	a, b := wholePlat.Metrics.Snapshot(), halvesPlat.Metrics.Snapshot()
	if a.Count(metrics.Checkpoints) < 3 {
		t.Fatalf("%d rounds: the run crossed too few boundaries", a.Count(metrics.Checkpoints))
	}
	for _, name := range []string{
		metrics.Checkpoints, metrics.CheckpointPages, metrics.PersistBarrier, metrics.CacheLineFlush,
		metrics.MemoryBarrier, metrics.Syscall, metrics.BlockWrite, metrics.Fsync, metrics.WALFrames,
		metrics.HeapAlloc, metrics.HeapFree,
	} {
		if a.Count(name) != b.Count(name) {
			t.Errorf("%s: CommitCtx %d, the halves %d", name, a.Count(name), b.Count(name))
		}
	}
}

// TestBoundaryFreezeAnnouncesOnlyWhatWouldRun: AutoCheckpoint(true) freezes
// a round exactly when the inline round would have run — limit reached, no
// open snapshot — and what it freezes is announced to exporters and
// completed by the next AutoCheckpoint(false), commits in between carried
// over.
func TestBoundaryFreezeAnnouncesOnlyWhatWouldRun(t *testing.T) {
	const limit = 10
	d, plat := newDB(t, boundaryOpts(limit))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w := d.Journal().(*core.NVWAL)
	announced := func() int {
		b, ok := w.ExportSince(w.Mark(), w.Mark(), nil)
		if !ok {
			t.Fatal("the current mark is not exportable")
		}
		return b.Backfill
	}
	base := announced()

	// Below the limit nothing is due.
	commitDurable(t, d, "a")
	if err := d.AutoCheckpoint(true); err != nil || announced() != base {
		t.Fatalf("a round was frozen %d frames short of the limit (err=%v)", limit-w.FramesSinceCheckpoint(), err)
	}
	// At the limit, under an open snapshot, the inline round is deferred:
	// nothing may be announced either.
	rd, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; w.FramesSinceCheckpoint() < limit; i++ {
		commitDurable(t, d, fmt.Sprintf("b%02d", i))
	}
	if err := d.AutoCheckpoint(true); err != nil || announced() != base {
		t.Fatalf("a round deferred by a reader was announced (watermark %d -> %d, err=%v)", base, announced(), err)
	}
	rd.Close()

	rounds := plat.Metrics.Count(metrics.Checkpoints)
	if err := d.AutoCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	frozenAt := w.Mark()
	if announced() != frozenAt || plat.Metrics.Count(metrics.Checkpoints) != rounds {
		t.Fatalf("freeze: watermark %d, want %d; %d rounds completed, want 0", announced(), frozenAt, plat.Metrics.Count(metrics.Checkpoints)-rounds)
	}
	commitDurable(t, d, "c") // lands between the freeze and the write-back
	if err := d.AutoCheckpoint(true); err != nil || announced() != frozenAt {
		t.Fatalf("a second freeze moved the watermark to %d (err=%v)", announced(), err)
	}
	if err := d.AutoCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	if got := plat.Metrics.Count(metrics.Checkpoints) - rounds; got != 1 {
		t.Fatalf("%d rounds completed, want the frozen one", got)
	}
	if left := w.Mark() - frozenAt; w.FramesSinceCheckpoint() != left || left == 0 {
		t.Fatalf("%d frames unbackfilled after the round, want the %d committed after the freeze", w.FramesSinceCheckpoint(), left)
	}
	for _, key := range []string{"a", "b00", "c"} {
		if _, ok, err := d.Get("t", []byte(key)); err != nil || !ok {
			t.Fatalf("key %s: found=%v err=%v", key, ok, err)
		}
	}
}

// TestDeferredRoundIsCountedAndRetried: a round that fails after the commit
// is durable is reported as ErrCheckpointDeferred, counted, and retried by
// the next due AutoCheckpoint — the frozen generation included.
func TestDeferredRoundIsCountedAndRetried(t *testing.T) {
	const limit = 6
	d, plat := newDB(t, boundaryOpts(limit))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; d.Journal().FramesSinceCheckpoint() < limit; i++ {
		commitDurable(t, d, fmt.Sprintf("k%02d", i))
	}
	if err := d.AutoCheckpoint(true); err != nil {
		t.Fatal(err)
	}
	plat.Flash.FailNextSyncs(3) // one more than the retry policy absorbs
	err := d.AutoCheckpoint(false)
	if !errors.Is(err, ErrCheckpointDeferred) || plat.Metrics.Count(metrics.CheckpointErrors) != 1 {
		t.Fatalf("failed round = %v, %d counted; want ErrCheckpointDeferred, 1", err, plat.Metrics.Count(metrics.CheckpointErrors))
	}
	if d.Degraded() != nil {
		t.Fatalf("a transient failure degraded the database: %v", d.Degraded())
	}
	if err := d.AutoCheckpoint(false); err != nil || d.Journal().FramesSinceCheckpoint() != 0 {
		t.Fatalf("retry = %v with %d frames unbackfilled", err, d.Journal().FramesSinceCheckpoint())
	}
}
