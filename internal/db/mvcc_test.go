package db

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/platform"
)

// TestMVCCBasicCommit commits through a session and checks the result
// is visible to legacy reads, snapshots, and later sessions.
func TestMVCCBasicCommit(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tx.Get("t", []byte("k1")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("own-write read: %q %v %v", v, ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Seq() == 0 {
		t.Fatal("committed session has no seq")
	}
	if v, ok, err := d.Get("t", []byte("k1")); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("post-commit read: %q %v %v", v, ok, err)
	}
	tx2, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tx2.Get("t", []byte("k1")); !ok || string(v) != "v1" {
		t.Fatalf("next session read: %q %v", v, ok)
	}
	tx2.Rollback()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCFirstCommitterWins: two sessions write the same key from the
// same snapshot; the second committer must get ErrConflict and its
// change must not surface.
func TestMVCCFirstCommitterWins(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "base"})

	a, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Update("t", []byte("k"), []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Update("t", []byte("k"), []byte("from-b")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("first committer: %v", err)
	}
	err = b.Commit()
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: want ErrConflict, got %v", err)
	}
	if v, _, _ := d.Get("t", []byte("k")); string(v) != "from-a" {
		t.Fatalf("winner's value lost: %q", v)
	}
	if n := d.Metrics().Count(metrics.MVCCConflicts); n != 1 {
		t.Fatalf("mvcc_conflicts = %d, want 1", n)
	}
	// The loser retries from a fresh snapshot and succeeds.
	c, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("t", []byte("k"), []byte("from-b-retry")); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.Get("t", []byte("k")); string(v) != "from-b-retry" {
		t.Fatalf("retry lost: %q", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCSnapshotIsolation: a session must not see a commit that lands
// after its snapshot, and a disjoint-page session commit must still
// succeed (no false conflicts).
func TestMVCCSnapshotIsolation(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"a": "1"})

	sess, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	// Legacy writer commits after the snapshot.
	mustCommitKV(t, d, "t", map[string]string{"a": "2"})
	if v, _, _ := sess.Get("t", []byte("a")); string(v) != "1" {
		t.Fatalf("snapshot leaked later commit: %q", v)
	}
	sess.Rollback()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCLegacyConflict: a legacy (slot-holding) commit after the
// session snapshot must also trigger ErrConflict — the version vector
// covers every commit path.
func TestMVCCLegacyConflict(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "base"})

	sess, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update("t", []byte("k"), []byte("session")); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "legacy"})
	if err := sess.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("want ErrConflict after legacy commit, got %v", err)
	}
	if v, _, _ := d.Get("t", []byte("k")); string(v) != "legacy" {
		t.Fatalf("legacy write lost: %q", v)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCConcurrentCounters hammers overlapping keys from many
// goroutines through RunConcurrent and checks the final sums: every
// increment must be applied exactly once (lost updates are the bug
// first-committer-wins exists to prevent).
func TestMVCCConcurrentCounters(t *testing.T) {
	const (
		workers  = 8
		incs     = 40
		counters = 4 // deliberately overlapping across workers
	)
	d, _ := newDB(t, concurrentOpts(4))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Seed the counters.
	init := make(map[string]string, counters)
	for c := 0; c < counters; c++ {
		init[fmt.Sprintf("c%d", c)] = string([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	}
	mustCommitKV(t, d, "t", init)

	var wg sync.WaitGroup
	var failed atomic.Int64
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < incs; i++ {
				key := []byte(fmt.Sprintf("c%d", (w+i)%counters))
				err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
					v, ok, err := tx.Get("t", key)
					if err != nil || !ok {
						return fmt.Errorf("counter read: %v ok=%v", err, ok)
					}
					buf := make([]byte, 8)
					binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(v)+1)
					_, err = tx.Update("t", key, buf)
					return err
				})
				if err != nil {
					failed.Add(1)
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total uint64
	for c := 0; c < counters; c++ {
		v, ok, err := d.Get("t", []byte(fmt.Sprintf("c%d", c)))
		if err != nil || !ok {
			t.Fatalf("counter c%d: %v ok=%v", c, err, ok)
		}
		total += binary.LittleEndian.Uint64(v)
	}
	if want := uint64(workers * incs); total != want {
		t.Fatalf("lost updates: counters sum to %d, want %d", total, want)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCMixedLegacyAndSessions interleaves legacy transactions and
// MVCC sessions on disjoint keys plus fresh-page allocations, then
// checks structural integrity — the shared page-number arbiter must
// keep legacy extension and session allocation from ever colliding.
func TestMVCCMixedLegacyAndSessions(t *testing.T) {
	const rounds = 30
	d, _ := newDB(t, concurrentOpts(2))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() { // legacy writer, big values force allocations
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tx, err := d.Begin()
			if err != nil {
				errs <- err
				return
			}
			if err := tx.Insert("t", []byte(fmt.Sprintf("legacy%04d", i)), make([]byte, 600)); err != nil {
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // MVCC sessions, also allocating
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
				return tx.Insert("t", []byte(fmt.Sprintf("mvcc%04d", i)), make([]byte, 600))
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		for _, pfx := range []string{"legacy", "mvcc"} {
			k := []byte(fmt.Sprintf("%s%04d", pfx, i))
			if _, ok, err := d.Get("t", k); err != nil || !ok {
				t.Fatalf("%s: ok=%v err=%v", k, ok, err)
			}
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCDeleteAndFree: session deletions that free pages chain them
// onto the shared freelist; a later legacy allocation must be able to
// reuse them without corruption.
func TestMVCCDeleteAndFree(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	big := make(map[string]string)
	for i := 0; i < 40; i++ {
		big[fmt.Sprintf("k%03d", i)] = string(make([]byte, 400))
	}
	mustCommitKV(t, d, "t", big)

	err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
		for i := 0; i < 40; i++ {
			if _, err := tx.Delete("t", []byte(fmt.Sprintf("k%03d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := d.pg.FreePageCount()
	if err != nil {
		t.Fatal(err)
	}
	if free == 0 {
		t.Fatal("session frees never reached the shared freelist")
	}
	// Legacy writer reuses the freed pages.
	refill := make(map[string]string)
	for i := 0; i < 40; i++ {
		refill[fmt.Sprintf("r%03d", i)] = string(make([]byte, 400))
	}
	mustCommitKV(t, d, "t", refill)
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCRollbackRecyclesPageNumbers: the page numbers a session
// allocated come back to the DB when it rolls back, and the next
// session that allocates takes them before it extends the file.
func TestMVCCRollbackRecyclesPageNumbers(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	fill := func(tx *CTx) {
		t.Helper()
		for i := 0; i < 40; i++ {
			if err := tx.Insert("t", []byte(fmt.Sprintf("k%03d", i)), make([]byte, 400)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	fill(tx)
	tx.Rollback()
	top := d.allocTop.Load()
	if len(d.allocPool) == 0 {
		t.Fatal("a rolled-back session's page numbers were not recycled")
	}
	if tx, err = d.BeginConcurrent(); err != nil {
		t.Fatal(err)
	}
	fill(tx)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := d.allocTop.Load(); got != top {
		t.Fatalf("the file grew to page %d past %d while recycled numbers were pooled", got, top)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCGroupMergesStreams checks the group queue merges concurrent
// session streams: K disjoint-page sessions opened together must flush
// as ONE group (the Kth enqueue triggers the merged CommitStreams
// flush — no member can finish earlier, so the grouping is
// deterministic), and all writes land.
func TestMVCCGroupMergesStreams(t *testing.T) {
	const workers = 4
	d, _ := newDB(t, concurrentOpts(workers))
	txs := make([]*CTx, workers)
	for w := 0; w < workers; w++ {
		table := fmt.Sprintf("t%d", w)
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Metrics().Count(metrics.GroupCommits)
	for w := 0; w < workers; w++ {
		tx, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		// Disjoint tables → disjoint pages → no conflicts, so all four
		// reach the queue and merge.
		if err := tx.Insert(fmt.Sprintf("t%d", w), []byte("k"), []byte(fmt.Sprintf("v%d", w))); err != nil {
			t.Fatal(err)
		}
		txs[w] = tx
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := txs[w].Commit(); err != nil {
				errs <- fmt.Errorf("w%d: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if v, ok, err := d.Get(fmt.Sprintf("t%d", w), []byte("k")); err != nil || !ok || string(v) != fmt.Sprintf("v%d", w) {
			t.Fatalf("t%d: %q ok=%v err=%v", w, v, ok, err)
		}
	}
	if after := d.Metrics().Count(metrics.GroupCommits); after != before+1 {
		t.Fatalf("want exactly one merged group flush, got %d -> %d", before, after)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCReadOnlyCommit: a session that writes nothing commits as a
// no-op — no seq, no frames, no conflict claims.
func TestMVCCReadOnlyCommit(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "v"})
	frames := d.jrn.FramesSinceCheckpoint()
	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tx.Get("t", []byte("k")); !ok {
		t.Fatal("read failed")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.Seq() != 0 {
		t.Fatalf("read-only session got seq %d", tx.Seq())
	}
	if got := d.jrn.FramesSinceCheckpoint(); got != frames {
		t.Fatalf("read-only commit logged frames: %d -> %d", frames, got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCSurvivesCheckpoint: sessions keep committing while explicit
// checkpoints truncate the log; diffs staged against checkpointed bases
// must convert to full frames, not replay from zero.
func TestMVCCSurvivesCheckpoint(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
			return tx.Insert("t", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrBusySnapshot) {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		v, ok, err := d.Get("t", []byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("k%02d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBeginConcurrentRequiresNVWAL: a session commits by staging its pages
// into an NVRAM log stream, so every other journal refuses it at Begin —
// with no registration left behind, and legacy transactions unaffected —
// and refuses GroupCommit above 1 at Open.
func TestBeginConcurrentRequiresNVWAL(t *testing.T) {
	for _, j := range []JournalMode{JournalWAL, JournalOptimizedWAL, JournalRollback} {
		t.Run(j.String(), func(t *testing.T) {
			d, _ := newDB(t, Options{Journal: j, Concurrent: true})
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			if tx, err := d.BeginConcurrent(); err == nil {
				tx.Rollback()
				t.Fatalf("BeginConcurrent on %s succeeded", j)
			}
			expectUnregistered(t, d, "a refused BeginConcurrent")
			mustCommitKV(t, d, "t", map[string]string{"k": "v"})
			if v, ok, err := d.Get("t", []byte("k")); err != nil || !ok || string(v) != "v" {
				t.Fatalf("Get after the refused session = %q %v %v", v, ok, err)
			}
		})
	}
	plat, err := platform.NewNexus5()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(plat, "g.db", Options{Journal: JournalWAL, Concurrent: true, GroupCommit: 4}); err == nil {
		t.Fatal("Open with GroupCommit 4 on the file WAL succeeded")
	}
}
