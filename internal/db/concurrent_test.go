package db

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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

// runSessions drives w writer sessions of txns transactions each and
// returns the persist barriers and group commits consumed.
func runSessions(t *testing.T, d *DB, m *metrics.Counters, w, txns int) (barriers, groups int64) {
	t.Helper()
	before := m.Snapshot()
	// Register every session before any goroutine commits: group commit
	// is deterministic over *registered* writers, so registration must
	// precede the first commit or early committers run solo.
	sessions := make([]*Writer, w)
	for s := range sessions {
		sessions[s] = d.Writer()
	}
	var wg sync.WaitGroup
	errs := make(chan error, w)
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := sessions[s]
			defer sess.Close()
			for i := 0; i < txns; i++ {
				tx, err := sess.Begin()
				if err != nil {
					errs <- err
					return
				}
				key := []byte(fmt.Sprintf("s%02d-%04d", s, i))
				if err := tx.Insert("t", key, []byte("payload")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	delta := m.Snapshot().Sub(before)
	return delta.Count(metrics.PersistBarrier), delta.Count(metrics.GroupCommits)
}

// TestGroupCommitCorrectness runs W sessions × T transactions under
// group commit and verifies nothing is lost and the batching actually
// happened.
func TestGroupCommitCorrectness(t *testing.T) {
	const (
		sessions = 4
		txns     = 25
	)
	d, plat := newDB(t, concurrentOpts(8))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	_, groups := runSessions(t, d, plat.Metrics, sessions, txns)
	if n, _ := d.Count("t"); n != sessions*txns {
		t.Fatalf("count = %d, want %d", n, sessions*txns)
	}
	if groups == 0 {
		t.Fatal("no group commit happened despite 4 concurrent sessions")
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
	if n, _ := d.Count("t"); n != sessions*txns {
		t.Fatal("records lost across checkpoint")
	}
}

// TestGroupCommitAmortizesBarriers is the Algorithm 1 commit-flag
// payoff: the same workload with group commit must spend fewer persist
// barriers than with per-transaction commits.
func TestGroupCommitAmortizesBarriers(t *testing.T) {
	const (
		sessions = 4
		txns     = 25
	)
	run := func(group int) (int64, int64) {
		d, plat := newDB(t, concurrentOpts(group))
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		return runSessions(t, d, plat.Metrics, sessions, txns)
	}
	soloBarriers, _ := run(1)
	groupBarriers, groups := run(8)
	if groups == 0 {
		t.Fatal("grouped run formed no groups")
	}
	if groupBarriers >= soloBarriers {
		t.Fatalf("group commit did not amortize persist barriers: solo %d, grouped %d",
			soloBarriers, groupBarriers)
	}
	t.Logf("persist barriers: solo=%d grouped=%d (%.1f%%), groups=%d",
		soloBarriers, groupBarriers, 100*float64(groupBarriers)/float64(soloBarriers), groups)
}

// TestGroupTailFlush: sessions that commit once and close must not
// strand a partial group — the last unregister flushes the tail.
func TestGroupTailFlush(t *testing.T) {
	const sessions = 3
	d, _ := newDB(t, concurrentOpts(8)) // group size larger than session count
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	writers := make([]*Writer, sessions)
	for s := range writers {
		writers[s] = d.Writer()
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := writers[s]
			defer sess.Close()
			tx, err := sess.Begin()
			if err != nil {
				t.Error(err)
				return
			}
			if err := tx.Insert("t", []byte(fmt.Sprintf("k%d", s)), []byte("v")); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}(s)
	}
	wg.Wait() // hangs here if the tail group never flushes
	if n, _ := d.Count("t"); n != sessions {
		t.Fatalf("count = %d, want %d", n, sessions)
	}
}

// TestGroupFlushFailureDisablesEngine: once a group flush fails, the
// affected transactions' pre-images are gone and later state builds on
// them, so the engine must refuse further writes rather than corrupt.
func TestGroupFlushFailureDisablesEngine(t *testing.T) {
	const sessions = 2
	d, _ := newDB(t, concurrentOpts(2))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	d.gc.jrn = &faultJournal{Journal: d.jrn, failCommits: 99}

	writers := make([]*Writer, sessions)
	for s := range writers {
		writers[s] = d.Writer()
	}
	var wg sync.WaitGroup
	commitErrs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := writers[s]
			defer sess.Close()
			tx, err := sess.Begin()
			if err != nil {
				commitErrs[s] = err
				return
			}
			if err := tx.Insert("t", []byte(fmt.Sprintf("k%d", s)), []byte("v")); err != nil {
				commitErrs[s] = err
				return
			}
			commitErrs[s] = tx.Commit()
		}(s)
	}
	wg.Wait()
	for s, err := range commitErrs {
		if err == nil {
			t.Fatalf("session %d committed through a failing journal", s)
		}
	}
	// The engine is wedged: no further write transactions.
	if _, err := d.Begin(); err == nil {
		t.Fatal("Begin succeeded after a failed group flush")
	} else if !errors.Is(err, errInjected) {
		t.Fatalf("Begin error = %v, want the latched flush failure", err)
	}
	if err := d.CreateTable("u"); err == nil {
		t.Fatal("CreateTable succeeded after a failed group flush")
	}
}
