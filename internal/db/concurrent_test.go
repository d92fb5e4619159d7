package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// concurrentOpts returns a Concurrent-mode NVWAL configuration with
// auto-checkpointing disabled (the tests checkpoint explicitly).
func concurrentOpts(group int) Options {
	return Options{
		Journal:         JournalNVWAL,
		NVWAL:           core.VariantUHLSDiff(),
		Concurrent:      true,
		GroupCommit:     group,
		CheckpointLimit: -1,
	}
}

// TestConcurrentReadersWriterCheckpointer is the -race stress test for
// the multi-reader/single-writer protocol: one writer commits keys in
// sequence, several snapshot readers verify the prefix invariant (a
// snapshot with n records sees exactly keys 0..n-1), and a checkpointer
// keeps trying to truncate the log underneath them.
func TestConcurrentReadersWriterCheckpointer(t *testing.T) {
	const (
		txns    = 120
		readers = 4
	)
	d, _ := newDB(t, concurrentOpts(1))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < txns; i++ {
			tx, err := d.Begin()
			if err != nil {
				errs <- err
				return
			}
			if err := tx.Insert("t", []byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() { // snapshot readers
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap, err := d.BeginRead()
				if err != nil {
					errs <- err
					return
				}
				n, err := snap.Count("t")
				if err != nil {
					snap.Close()
					errs <- err
					return
				}
				// Prefix invariant: exactly keys 0..n-1 are visible.
				if n > 0 {
					if _, ok, err := snap.Get("t", []byte(fmt.Sprintf("k%05d", n-1))); err != nil || !ok {
						snap.Close()
						errs <- fmt.Errorf("snapshot with %d records misses key %d (%v)", n, n-1, err)
						return
					}
				}
				if _, ok, _ := snap.Get("t", []byte(fmt.Sprintf("k%05d", n))); ok {
					snap.Close()
					errs <- fmt.Errorf("snapshot with %d records sees key %d", n, n)
					return
				}
				snap.Close()
			}
		}()
	}

	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrBusySnapshot) {
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
	if n, err := d.Count("t"); err != nil || n != txns {
		t.Fatalf("final count = %d (%v), want %d", n, err, txns)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAnonymousWriters hammers blocking Begin from many
// goroutines without writer sessions: every transaction must commit,
// none may observe another's in-flight state.
func TestConcurrentAnonymousWriters(t *testing.T) {
	const (
		goroutines = 6
		txns       = 30
	)
	d, _ := newDB(t, concurrentOpts(4))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				tx, err := d.Begin()
				if err != nil {
					errs <- err
					return
				}
				key := []byte(fmt.Sprintf("g%02d-%04d", g, i))
				if err := tx.Insert("t", key, []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := d.Count("t"); n != goroutines*txns {
		t.Fatalf("count = %d, want %d", n, goroutines*txns)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// sessionTables creates one table per session: sessions that write
// disjoint tables write disjoint pages, so none of them conflicts.
func sessionTables(t *testing.T, d *DB, w int) {
	t.Helper()
	for s := range w {
		if err := d.CreateTable(fmt.Sprintf("t%d", s)); err != nil {
			t.Fatal(err)
		}
	}
}

// runSessions runs rounds of w MVCC sessions, txns rounds in all, and
// returns the persist barriers and group commits consumed. A round opens
// every session and writes its insert before any of them commits: group
// commit is deterministic over *registered* sessions, so every round
// forms groups of exactly min(w, GroupCommit).
func runSessions(t *testing.T, d *DB, m *metrics.Counters, w, txns int) (barriers, groups int64) {
	t.Helper()
	before := m.Snapshot()
	for i := range txns {
		if err := errors.Join(commitAll(openSessions(t, d, w, fmt.Sprintf("k%04d", i)))...); err != nil {
			t.Fatal(err)
		}
	}
	delta := m.Snapshot().Sub(before)
	return delta.Count(metrics.PersistBarrier), delta.Count(metrics.GroupCommits)
}

// openSessions begins n MVCC sessions; session s inserts key into table
// t<s>.
func openSessions(t *testing.T, d *DB, n int, key string) []*CTx {
	t.Helper()
	txs := make([]*CTx, n)
	for s := range txs {
		tx, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(fmt.Sprintf("t%d", s), []byte(key), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		txs[s] = tx
	}
	return txs
}

// commitAll commits every session on its own goroutine and returns their
// errors.
func commitAll(sessions []*CTx) []error {
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for s, tx := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = tx.Commit()
		}()
	}
	wg.Wait()
	return errs
}

// countAll sums the records of the first w session tables.
func countAll(t *testing.T, d *DB, w int) int {
	t.Helper()
	total := 0
	for s := range w {
		n, err := d.Count(fmt.Sprintf("t%d", s))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// TestGroupCommitCorrectness runs W sessions × T rounds under group
// commit and verifies nothing is lost and every round formed one group.
func TestGroupCommitCorrectness(t *testing.T) {
	const (
		sessions = 4
		txns     = 25
	)
	d, plat := newDB(t, concurrentOpts(8))
	sessionTables(t, d, sessions)
	_, groups := runSessions(t, d, plat.Metrics, sessions, txns)
	if n := countAll(t, d, sessions); n != sessions*txns {
		t.Fatalf("count = %d, want %d", n, sessions*txns)
	}
	if groups != txns {
		t.Fatalf("%d group commits over %d rounds of %d sessions, want one per round", groups, txns, sessions)
	}
	if got := plat.Metrics.Count(metrics.Transactions); got < int64(sessions*txns) {
		t.Fatalf("Transactions metric = %d, want >= %d (group commits must credit every member)",
			got, sessions*txns)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	// Everything survives an explicit checkpoint.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := countAll(t, d, sessions); n != sessions*txns {
		t.Fatal("records lost across checkpoint")
	}
}

// TestGroupCommitAmortizesBarriers is the Algorithm 1 commit-flag
// payoff: the same sessions with group commit spend fewer persist
// barriers than with per-transaction commits, a group is min(writers, K)
// wide so K does not matter at one writer, and 8-wide groups beat
// 4-wide ones at 8 writers.
func TestGroupCommitAmortizesBarriers(t *testing.T) {
	const txns = 25
	barriers := func(writers, group int) int64 {
		d, plat := newDB(t, concurrentOpts(group))
		sessionTables(t, d, writers)
		b, groups := runSessions(t, d, plat.Metrics, writers, txns)
		if want := int64(txns * writers / min(writers, group)); group > 1 && writers > 1 && groups != want {
			t.Fatalf("writers=%d K=%d: %d group commits, want %d", writers, group, groups, want)
		}
		return b
	}
	if one, eight := barriers(1, 1), barriers(1, 8); one != eight {
		t.Fatalf("single writer affected by group size: K=1 %d barriers, K=8 %d", one, eight)
	}
	solo, grouped := barriers(4, 1), barriers(4, 8)
	if grouped >= solo {
		t.Fatalf("group commit did not amortize persist barriers: solo %d, grouped %d", solo, grouped)
	}
	if four, eight := barriers(8, 4), barriers(8, 8); eight >= four {
		t.Fatalf("8-wide groups cost no less than 4-wide at 8 writers: K=4 %d barriers, K=8 %d", four, eight)
	}
	t.Logf("persist barriers at 4 writers: solo=%d grouped=%d (%.1f%%)",
		solo, grouped, 100*float64(grouped)/float64(solo))
}

// TestGroupTailFlush: a group must not be stranded by a session that
// leaves without committing — its unregister flushes the tail.
func TestGroupTailFlush(t *testing.T) {
	const sessions = 3
	d, _ := newDB(t, concurrentOpts(8)) // group size larger than session count
	sessionTables(t, d, sessions)
	txs := openSessions(t, d, sessions, "k")
	done := make(chan error, 1)
	go func() { done <- errors.Join(commitAll(txs[:sessions-1])...) }()
	waitQueued(t, d, sessions-1)
	txs[sessions-1].Rollback()
	if err := <-done; err != nil { // hangs here if the tail group never flushes
		t.Fatal(err)
	}
	if n := countAll(t, d, sessions); n != sessions-1 {
		t.Fatalf("count = %d, want %d", n, sessions-1)
	}
}

// waitQueued waits until n requests wait in the group queue.
func waitQueued(t *testing.T, d *DB, n int) {
	t.Helper()
	for {
		d.gc.mu.Lock()
		queued := len(d.gc.queue)
		d.gc.mu.Unlock()
		if queued == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupFlushFailureDisablesEngine: once a group flush fails, the
// affected transactions' pre-images are gone and later state builds on
// them, so the engine must refuse further writes rather than corrupt.
func TestGroupFlushFailureDisablesEngine(t *testing.T) {
	const sessions = 2
	d, _ := newDB(t, concurrentOpts(2))
	sessionTables(t, d, sessions)
	d.gc.jrn = &faultJournal{Journal: d.jrn, failCommits: 99}
	for s, err := range commitAll(openSessions(t, d, sessions, "k")) {
		if !errors.Is(err, errInjected) {
			t.Fatalf("session %d: %v, want the injected flush failure", s, err)
		}
	}
	// The engine is wedged: no further write transactions.
	if _, err := d.Begin(); err == nil {
		t.Fatal("Begin succeeded after a failed group flush")
	} else if !errors.Is(err, errInjected) {
		t.Fatalf("Begin error = %v, want the latched flush failure", err)
	}
	if _, err := d.BeginConcurrent(); !errors.Is(err, errInjected) {
		t.Fatalf("BeginConcurrent after a failed group flush: %v", err)
	}
	if err := d.CreateTable("u"); err == nil {
		t.Fatal("CreateTable succeeded after a failed group flush")
	}
}

// TestTxCommitsAloneAfterQueuedSessions: a legacy Tx is never a member
// of the group queue. With GroupCommit 4, two sessions queued and a third
// open, its commit flushes the queued pair first and takes a seq above
// both; a failing journal rolls it back without disabling the engine;
// and Begin, Commit, Rollback, Prepare, CompletePrepared and
// AbortPrepared leave the session counts where they were.
func TestTxCommitsAloneAfterQueuedSessions(t *testing.T) {
	d, plat := newDB(t, concurrentOpts(4))
	sessionTables(t, d, 3)
	if err := d.CreateTable("legacy"); err != nil {
		t.Fatal(err)
	}
	txs := openSessions(t, d, 3, "k")
	queued := make(chan error, 1)
	go func() { queued <- errors.Join(commitAll(txs[:2])...) }()
	waitQueued(t, d, 2)

	// counts fails the test if a Tx step moved the session counts.
	counts := func(writers, lingering int, after string) {
		t.Helper()
		if w, l := gcCounts(d); w != writers || l != lingering {
			t.Fatalf("after %s: writers=%d lingering=%d, want %d/%d", after, w, l, writers, lingering)
		}
	}
	// commit runs tx.Commit, failing the test if it waits in the queue.
	commit := func(tx *Tx) error {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- tx.Commit() }()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("a Tx commit waits in the group queue for an open session")
			return nil
		}
	}
	insert := func(key string) *Tx {
		t.Helper()
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("legacy", []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		return tx
	}

	counts(3, 0, "two sessions queued")
	groups := plat.Metrics.Count(metrics.GroupCommits)
	tx := insert("after-queue")
	counts(3, 0, "Begin")
	if err := commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued sessions: %v", err)
	}
	if got := plat.Metrics.Count(metrics.GroupCommits) - groups; got != 1 {
		t.Fatalf("the Tx commit made %d group flushes, want the queued pair's one", got)
	}
	if a, b := txs[0].Seq(), txs[1].Seq(); a == 0 || b == 0 || tx.Seq() <= max(a, b) {
		t.Fatalf("Tx seq %d, queued session seqs %d and %d: the queue must flush first", tx.Seq(), a, b)
	}
	counts(1, 0, "Commit and the queued sessions' finish")

	// A failing journal under the solo commit: a clean rollback, no latch.
	d.pg.SetJournal(&faultJournal{Journal: d.jrn, failCommits: 1})
	if err := commit(insert("doomed")); !errors.Is(err, errInjected) {
		t.Fatalf("Tx commit through a failing journal: %v", err)
	}
	d.pg.SetJournal(d.jrn)
	if err := d.gc.bail(); err != nil {
		t.Fatalf("a failed Tx commit latched the engine: %v", err)
	}
	if _, ok, _ := d.Get("legacy", []byte("doomed")); ok {
		t.Fatal("the failed Tx's insert is visible")
	}
	counts(1, 0, "a failed Commit")

	tx = insert("rolled-back")
	tx.Rollback()
	counts(1, 0, "Rollback")
	tx = insert("prepared")
	if err := tx.Prepare(1); err != nil {
		t.Fatal(err)
	}
	counts(1, 0, "Prepare")
	if err := tx.CompletePrepared(); err != nil {
		t.Fatal(err)
	}
	counts(1, 0, "CompletePrepared")
	tx = insert("aborted")
	if err := tx.Prepare(2); err != nil {
		t.Fatal(err)
	}
	if err := tx.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	counts(1, 0, "AbortPrepared")

	// The open session still commits, alone, after everything above.
	if err := txs[2].Commit(); err != nil {
		t.Fatal(err)
	}
	expectUnregistered(t, d, "the last session")
	for _, key := range []string{"after-queue", "prepared"} {
		if _, ok, _ := d.Get("legacy", []byte(key)); !ok {
			t.Fatalf("committed %q lost", key)
		}
	}
	if n := countAll(t, d, 3); n != 3 {
		t.Fatalf("session tables hold %d records, want 3", n)
	}
}
