// Multi-writer properties measured on the simulated clocks: what MVCC
// sessions buy over slot transactions, what the background checkpointer
// takes off the commit path, and how every commit against a heap far
// smaller than the data it logs ends.
package db

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/simclock"
)

// driveWriters runs txn(w, i) for i < each on each of writers goroutines.
// It returns the latencies txn reported for its commits, ascending, and
// how many transactions came back ErrBusy (a clean rollback at the
// deadline). Any other error fails the test.
func driveWriters(t *testing.T, writers, each int, txn func(w, i int) (time.Duration, error)) (lats []time.Duration, busy int) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				lat, err := txn(w, i)
				if err != nil && !errors.Is(err, ErrBusy) {
					t.Errorf("writer %d, transaction %d: %v", w, i, err)
					return
				}
				mu.Lock()
				if err == nil {
					lats = append(lats, lat)
				} else {
					busy++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	slices.Sort(lats)
	return lats, busy
}

// timedInsert commits one single-key transaction begun by begin and
// returns how long its Commit took on now. A failed Insert rolls the
// transaction back: a transaction left open would hold the writer slot.
func timedInsert[T interface {
	Insert(table string, key, value []byte) error
	Commit() error
	Rollback()
}](begin func() (T, error), now func() time.Duration, key, val []byte) (time.Duration, error) {
	tx, err := begin()
	if err != nil {
		return 0, err
	}
	if err := tx.Insert("t", key, val); err != nil {
		tx.Rollback()
		return 0, err
	}
	t0 := now()
	err = tx.Commit()
	return now() - t0, err
}

// fill gives every byte of val a value that moves with the writer and
// the iteration, so differential logging logs the whole value.
func fill(val []byte, w, i int) {
	for j := range val {
		val[j] = byte(i + j + w)
	}
}

// TestSessionsOutCommitSlotTransactions: writers updating one shared
// keyspace of 512 pre-loaded keys, legacy Tx against MVCC sessions that
// each charge their CPU to their own lane. Slot transactions serialize on
// the writer slot and never conflict, at 8 to 64 writers; sessions overlap everything but the
// merged group flush, so at 8 writers they commit at least twice the
// virtual transactions per second, and they keep scaling to 64 writers.
func TestSessionsOutCommitSlotTransactions(t *testing.T) {
	const txns, keys = 256, 512
	cell := func(sessions bool, writers int) (perSec float64, conflicts int64) {
		t.Helper()
		plat, err := platform.New(platform.Config{NVRAM: nvram.Config{
			Size: 64 << 20, CacheLineSize: 64, NVRAMWriteLatency: 500 * time.Nanosecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Open(plat, "scale.db", Options{
			Journal:         JournalNVWAL,
			NVWAL:           core.VariantUHLSDiff(),
			Concurrent:      true,
			GroupCommit:     writers,
			CheckpointLimit: -1,
			CPU:             CPUTuna,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		clock := plat.Clock
		val := make([]byte, 128)
		for lo := 0; lo < keys; lo += 64 {
			tx, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for k := lo; k < lo+64; k++ {
				fill(val, k, 0)
				if err := tx.Insert("t", []byte(fmt.Sprintf("k%04d", k)), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Every lane starts at the same origin, before any writer runs: a
		// lane made inside its goroutine would start wherever the others had
		// already pushed the clock.
		lanes := make([]*simclock.Clock, writers)
		rngs := make([]*rand.Rand, writers)
		for w := range lanes {
			lanes[w] = clock.NewLane()
			rngs[w] = rand.New(rand.NewSource(int64(w)*7919 + 17))
		}
		before, start := plat.Metrics.Count(metrics.MVCCConflicts), clock.Now()
		lats, _ := driveWriters(t, writers, txns/writers, func(w, i int) (time.Duration, error) {
			key := []byte(fmt.Sprintf("k%04d", rngs[w].Intn(keys)))
			val := make([]byte, 128)
			fill(val, w, i+1)
			if !sessions {
				return timedInsert(d.Begin, clock.Now, key, val)
			}
			begin := func() (*CTx, error) {
				tx, err := d.BeginConcurrent()
				if err == nil {
					tx.SetClock(lanes[w])
				}
				return tx, err
			}
			for range 128 { // a lost first-committer race retries on a fresh snapshot
				lat, err := timedInsert(begin, clock.Now, key, val)
				if !errors.Is(err, ErrConflict) {
					return lat, err
				}
			}
			return 0, errors.New("still conflicting after 128 retries")
		})
		if len(lats) == 0 {
			t.Fatalf("sessions=%v, %d writers: nothing committed", sessions, writers)
		}
		return simclock.Throughput(len(lats), clock.Now()-start), plat.Metrics.Count(metrics.MVCCConflicts) - before
	}
	var slot8 float64
	for _, writers := range []int{8, 16, 32, 64} {
		perSec, conflicts := cell(false, writers)
		if conflicts != 0 {
			t.Errorf("slot transactions conflicted %d times at %d writers: they can never conflict", conflicts, writers)
		}
		if writers == 8 {
			slot8 = perSec
		}
	}
	sess8, _ := cell(true, 8)
	sess64, _ := cell(true, 64)
	if sess8 < 2*slot8 {
		t.Errorf("sessions commit only %.2fx the slot transactions' txn/s at 8 writers, want 2x", sess8/slot8)
	}
	if sess64 < 1.5*sess8 {
		t.Errorf("sessions at 64 writers commit only %.2fx their txn/s at 8, want 1.5x", sess64/sess8)
	}
}

// TestBackgroundCheckpointTakesRoundsOffCommitPath: a small checkpoint
// limit on the slow end of Tuna's NVRAM range, so rounds are frequent.
// Blocking mode runs each round inline in a committing writer; background
// mode hands it to the checkpointer. Both run rounds at 1 and 4 writers.
// Where a round ran is read from the ledger's checkpoint time
// (metrics.TimeCheckpnt), which a round is charged only when it runs on a
// writer's path: background mode charges commits none, blocking mode
// charges its rounds, and with one writer every blocking round ran inside
// the Commit that crossed the limit.
func TestBackgroundCheckpointTakesRoundsOffCommitPath(t *testing.T) {
	const txns, limit = 160, 16
	for _, background := range []bool{false, true} {
		for _, writers := range []int{1, 4} {
			plat, err := platform.NewTuna()
			if err != nil {
				t.Fatal(err)
			}
			plat.SetNVRAMLatency(1942 * time.Nanosecond)
			d, err := Open(plat, "ckpt.db", Options{
				Journal:              JournalNVWAL,
				NVWAL:                core.VariantUHLSDiff(),
				CPU:                  CPUTuna,
				CheckpointLimit:      limit,
				Concurrent:           true,
				BackgroundCheckpoint: background,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			m := plat.Metrics
			rounds, charged := m.Count(metrics.Checkpoints), m.Time(metrics.TimeCheckpnt)
			var inCommit int64 // one writer: rounds that ran inside a Commit
			val := make([]byte, 100)
			lats, _ := driveWriters(t, writers, txns/writers, func(w, i int) (time.Duration, error) {
				key := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				before := m.Count(metrics.Checkpoints)
				lat, err := timedInsert(d.Begin, plat.Clock.Now, key, val)
				if writers == 1 {
					inCommit += m.Count(metrics.Checkpoints) - before
				}
				return lat, err
			})
			if len(lats) == 0 {
				t.Fatalf("background=%v, %d writers: nothing committed", background, writers)
			}
			charged = m.Time(metrics.TimeCheckpnt) - charged
			if background {
				waitDrained(t, d, limit)
			}
			rounds = m.Count(metrics.Checkpoints) - rounds
			if rounds == 0 {
				t.Errorf("background=%v, %d writers: no checkpoint round ran", background, writers)
			}
			switch {
			case background && charged != 0:
				t.Errorf("background, %d writers: commits were charged %v of checkpoint rounds", writers, charged)
			case !background && charged == 0:
				t.Errorf("blocking, %d writers: %d rounds and none charged to a commit", writers, rounds)
			case !background && writers == 1 && inCommit != rounds:
				t.Errorf("blocking, one writer: %d of %d rounds ran inside a Commit", inCommit, rounds)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPressureEveryCommitAccountedFor: full-content 1 KiB overwrites of
// 8 keys per writer against heaps of 24 to 192 pages, at 1 and 4 writers,
// with a 20 ms virtual CommitTimeout. Every transaction commits or rolls
// back with ErrBusy (driveWriters fails on anything else), some commit in
// every cell, and the 24-page heap cannot absorb the log without urgent
// checkpoints.
func TestPressureEveryCommitAccountedFor(t *testing.T) {
	const txns = 120
	var urgentOn24 int64
	for _, pages := range []int{24, 48, 96, 192} {
		for _, writers := range []int{1, 4} {
			d, plat := newTinyHeapDB(t, pages, Options{
				Journal:       JournalNVWAL,
				NVWAL:         core.VariantUHLSDiff(),
				Concurrent:    writers > 1,
				GroupCommit:   writers,
				CommitTimeout: 20 * time.Millisecond,
			})
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			before := plat.Metrics.Count(metrics.UrgentCheckpoints)
			lats, busy := driveWriters(t, writers, txns/writers, func(w, i int) (time.Duration, error) {
				val := make([]byte, 1024)
				fill(val, w, i)
				return timedInsert(d.Begin, plat.Clock.Now, []byte(fmt.Sprintf("w%d-k%d", w, i%8)), val)
			})
			if len(lats)+busy != txns || len(lats) == 0 {
				t.Errorf("%d pages, %d writers: %d committed and %d busy of %d transactions", pages, writers, len(lats), busy, txns)
			}
			if pages == 24 {
				urgentOn24 += plat.Metrics.Count(metrics.UrgentCheckpoints) - before
			}
		}
	}
	if urgentOn24 == 0 {
		t.Fatal("the 24-page heap ran no urgent checkpoint: the test exercised no pressure")
	}
}
