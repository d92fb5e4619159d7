package db

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// staleErr reports the first CTx method that does not refuse a finished
// handle with ErrNoTxn, or a Seq that moved from seq. It touches nothing
// but the handle, so it may run beside sessions on the recycled state.
func staleErr(tx *CTx, seq uint64) error {
	k := []byte("stale")
	if err := tx.Insert("t", k, k); !errors.Is(err, ErrNoTxn) {
		return fmt.Errorf("Insert: %v", err)
	}
	if _, err := tx.Update("t", k, k); !errors.Is(err, ErrNoTxn) {
		return fmt.Errorf("Update: %v", err)
	}
	if _, err := tx.Delete("t", k); !errors.Is(err, ErrNoTxn) {
		return fmt.Errorf("Delete: %v", err)
	}
	if v, _, err := tx.Get("t", k); !errors.Is(err, ErrNoTxn) || v != nil {
		return fmt.Errorf("Get: %q, %v", v, err)
	}
	visited := false
	if err := tx.Scan("t", func(_, _ []byte) bool { visited = true; return false }); !errors.Is(err, ErrNoTxn) || visited {
		return fmt.Errorf("Scan: visited=%v, %v", visited, err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrNoTxn) {
		return fmt.Errorf("Commit: %v", err)
	}
	tx.Rollback()
	if tx.Seq() != seq {
		return fmt.Errorf("Seq %d, want %d", tx.Seq(), seq)
	}
	if tx.store.sessionState != nil {
		return errors.New("the handle still holds its working state")
	}
	return nil
}

func expectStale(t *testing.T, tx *CTx, seq uint64, after string) {
	t.Helper()
	if err := staleErr(tx, seq); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// TestStaleHandleAfterEveryEnd ends sessions every way a CTx ends —
// Commit, a no-op commit, Rollback, ErrConflict, and a failed fn inside
// RunConcurrent — and requires each finished handle to refuse every
// method with ErrNoTxn while Seq keeps its value.
func TestStaleHandleAfterEveryEnd(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(8))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "base"})
	begin := func() *CTx {
		t.Helper()
		tx, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		return tx
	}

	tx := begin()
	if err := tx.Insert("t", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil || tx.Seq() == 0 {
		t.Fatalf("commit: seq %d, err %v", tx.Seq(), err)
	}
	expectStale(t, tx, tx.Seq(), "Commit")

	tx = begin()
	if _, err := tx.Update("t", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	expectStale(t, tx, 0, "a no-op commit")

	tx = begin()
	if err := tx.Insert("t", []byte("r"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	expectStale(t, tx, 0, "Rollback")

	a, b := begin(), begin()
	for _, s := range []*CTx{a, b} {
		if _, err := s.Update("t", []byte("k"), []byte(fmt.Sprintf("%p", s))); err != nil {
			t.Fatal(err)
		}
	}
	// The winner waits in the queue for the loser, whose conflict
	// unregisters it and flushes the winner.
	aErr := make(chan error, 1)
	go func() { aErr <- a.Commit() }()
	for queued := 0; queued != 1; {
		d.gc.mu.Lock()
		queued = len(d.gc.queue)
		d.gc.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer: want ErrConflict, got %v", err)
	}
	if err := <-aErr; err != nil {
		t.Fatal(err)
	}
	expectStale(t, a, a.Seq(), "the winning commit")
	expectStale(t, b, 0, "ErrConflict")

	var kept *CTx
	errFn := errors.New("fn failed")
	err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
		kept = tx
		if err := tx.Insert("t", []byte("f"), []byte("1")); err != nil {
			return err
		}
		return errFn
	})
	if !errors.Is(err, errFn) {
		t.Fatalf("RunConcurrent: %v, want fn's error", err)
	}
	expectStale(t, kept, 0, "a failed fn in RunConcurrent")
	expectUnregistered(t, d, "every way a session ends")
}

// TestStaleHandleRacesReuse keeps a finished handle on one goroutine,
// calling every method on it, while four others run 1 000 sessions on the
// free list it gave its working state back to. Under -race this also
// checks that the handle touches none of that state and that concurrent
// sessions borrow and return it cleanly. The handle must see none of the
// sessions' pages, and change none: the table ends with exactly their keys.
func TestStaleHandleRacesReuse(t *testing.T) {
	const workers, sessions = 4, 250
	d, _ := newDB(t, concurrentOpts(workers))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var stale *CTx
	var given *sessionState
	if err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
		stale, given = tx, tx.store.sessionState
		return tx.Insert("t", []byte("first"), []byte("1"))
	}); err != nil {
		t.Fatal(err)
	}
	seq := stale.Seq()

	var reused atomic.Bool
	stop := make(chan struct{})
	errs := make(chan error, workers+1)
	var stopped sync.WaitGroup
	stopped.Add(1)
	go func() {
		defer stopped.Done()
		for {
			if err := staleErr(stale, seq); err != nil {
				errs <- err
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < sessions; i++ {
				err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
					if tx.store.sessionState == given {
						reused.Store(true)
					}
					return tx.Insert("t", []byte(fmt.Sprintf("s%d-%04d", w, i)), []byte("v"))
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	stopped.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !reused.Load() {
		t.Fatal("no session reused the finished handle's working state")
	}
	var keys []string
	if err := d.Scan("t", func(k, _ []byte) bool { keys = append(keys, string(k)); return true }); err != nil {
		t.Fatal(err)
	}
	want := []string{"first"}
	for w := 0; w < workers; w++ {
		for i := 0; i < sessions; i++ {
			want = append(want, fmt.Sprintf("s%d-%04d", w, i))
		}
	}
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("table holds %d keys, want the sessions' %d", len(keys), len(want))
	}
}

// TestReuseDropsLargePageTable: a session that touched more than
// maxReusedPages pages does not hand its state back (its map would never
// shrink), and the small sessions after it reuse one state between them.
func TestReuseDropsLargePageTable(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(8))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var big *sessionState
	val := make([]byte, 3000)
	if err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
		big = tx.store.sessionState
		for i := 0; i < 1000; i++ {
			if err := tx.Insert("t", []byte(fmt.Sprintf("big%04d", i)), val); err != nil {
				return err
			}
		}
		if n := len(tx.store.pages); n < 1000 {
			return fmt.Errorf("the bulk session touched %d pages, want at least 1000", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d.idleMu.Lock()
	kept := slices.Contains(d.idle, big)
	d.idleMu.Unlock()
	if kept {
		t.Fatal("the free list kept the bulk session's page table")
	}
	var small *sessionState
	for i := 0; i < 3; i++ {
		if err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
			st := tx.store.sessionState
			if st == big || small != nil && st != small {
				return fmt.Errorf("session %d got state %p (bulk %p, previous %p)", i, st, big, small)
			}
			small = st
			return tx.Insert("t", []byte(fmt.Sprintf("small%d", i)), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionReuseAllocs pins what a warm read-modify-write session
// allocates: the CTx handle, the value Get returns and the copy of the
// one page it writes — what it returns or commits. Its page table,
// stream, commit request and scratch are borrowed.
func TestSessionReuseAllocs(t *testing.T) {
	d, _ := newDB(t, concurrentOpts(8))
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	kv := map[string]string{}
	for i := 0; i < 500; i++ {
		kv[fmt.Sprintf("k%05d", i)] = "0123456789"
	}
	mustCommitKV(t, d, "t", kv)
	k := []byte("k00321")
	rmw := func() {
		err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
			v, ok, err := tx.Get("t", k)
			if err != nil || !ok {
				return fmt.Errorf("Get = %v, %v", ok, err)
			}
			v[0]++
			_, err = tx.Update("t", k, v)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rmw()
	// Under the race detector sync.Pool drops items at random, so the
	// B-tree's pooled edit scratch is re-made now and then.
	if a := testing.AllocsPerRun(100, rmw); a > 3 && !raceEnabled {
		t.Fatalf("a warm read-modify-write session allocates %v times, want at most 3", a)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// RaceEnabled reports raceEnabled to the package's external tests.
func RaceEnabled() bool { return raceEnabled }
