package db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
)

func nvwalOpts() Options {
	return Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()}
}

func beginInsert(t *testing.T, d *DB, table, k, v string) *Tx {
	t.Helper()
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(table, []byte(k), []byte(v)); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxPrepareCompletePublishes(t *testing.T) {
	d, _ := newDB(t, nvwalOpts())
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx := beginInsert(t, d, "t", "k", "v1")
	if err := tx.Prepare(7); err != nil {
		t.Fatal(err)
	}
	if tx.Gtx() != 7 {
		t.Fatalf("Gtx = %d, want 7", tx.Gtx())
	}
	if err := tx.CompletePrepared(); err != nil {
		t.Fatal(err)
	}
	if tx.Seq() == 0 {
		t.Fatal("no sequence number assigned by CompletePrepared")
	}
	v, ok, err := d.Get("t", []byte("k"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get after complete = (%q,%v,%v)", v, ok, err)
	}
	// The engine keeps working: ordinary commits and another 2PC round.
	mustCommitKV(t, d, "t", map[string]string{"k2": "v2"})
	tx2 := beginInsert(t, d, "t", "k3", "v3")
	if err := tx2.Prepare(8); err != nil {
		t.Fatal(err)
	}
	if err := tx2.CompletePrepared(); err != nil {
		t.Fatal(err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxPrepareAbortUnwinds(t *testing.T) {
	d, _ := newDB(t, nvwalOpts())
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"pre": "1"})
	tx := beginInsert(t, d, "t", "gone", "x")
	if err := tx.Prepare(9); err != nil {
		t.Fatal(err)
	}
	if err := tx.AbortPrepared(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get("t", []byte("gone")); ok {
		t.Fatal("aborted prepared write visible")
	}
	if _, ok, _ := d.Get("t", []byte("pre")); !ok {
		t.Fatal("earlier commit lost")
	}
	mustCommitKV(t, d, "t", map[string]string{"post": "2"})
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestTxPrepareGuards(t *testing.T) {
	d, _ := newDB(t, nvwalOpts())
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Complete/Abort before Prepare.
	tx, _ := d.Begin()
	if err := tx.CompletePrepared(); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("CompletePrepared unprepared: %v", err)
	}
	if err := tx.AbortPrepared(); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("AbortPrepared unprepared: %v", err)
	}
	tx.Rollback()
	// Commit on a prepared transaction is refused; Rollback aborts it.
	tx = beginInsert(t, d, "t", "k", "v")
	if err := tx.Prepare(5); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrPrepared) {
		t.Fatalf("Commit on prepared tx: %v", err)
	}
	if err := tx.Prepare(6); err == nil {
		t.Fatal("double Prepare accepted")
	}
	tx.Rollback()
	if _, ok, _ := d.Get("t", []byte("k")); ok {
		t.Fatal("rolled-back prepared write visible")
	}
	// The slot is free again.
	mustCommitKV(t, d, "t", map[string]string{"after": "1"})
}

func TestTxPrepareRollbackJournalRefused(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalRollback})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx := beginInsert(t, d, "t", "k", "v")
	if err := tx.Prepare(3); err == nil {
		t.Fatal("Prepare accepted on a rollback journal")
	}
	// The failed Prepare rolled the transaction back cleanly.
	mustCommitKV(t, d, "t", map[string]string{"k2": "v2"})
}

// TestTxInDoubtCrashRecovery is the db-level half of in-doubt
// resolution: crash between Prepare and CompletePrepared, reopen with a
// resolver carrying the coordinator's decision.
func TestTxInDoubtCrashRecovery(t *testing.T) {
	for _, decided := range []bool{true, false} {
		plat, err := platform.NewNexus5()
		if err != nil {
			t.Fatal(err)
		}
		opts := nvwalOpts()
		d, err := Open(plat, "c.db", opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		mustCommitKV(t, d, "t", map[string]string{"pre": "1"})
		tx := beginInsert(t, d, "t", "doubt", "x")
		if err := tx.Prepare(42); err != nil {
			t.Fatal(err)
		}
		d.Abandon()
		plat.PowerFail(memsim.FailDropAll, 11)
		if err := plat.Reboot(); err != nil {
			t.Fatal(err)
		}
		opts.NVWAL.PreparedResolver = func(gtx uint64) bool { return decided && gtx == 42 }
		d2, err := Open(plat, "c.db", opts)
		if err != nil {
			t.Fatal(err)
		}
		_, ok, err := d2.Get("t", []byte("doubt"))
		if err != nil {
			t.Fatal(err)
		}
		if ok != decided {
			t.Fatalf("decided=%v: in-doubt key present=%v", decided, ok)
		}
		if _, ok, _ := d2.Get("t", []byte("pre")); !ok {
			t.Fatalf("decided=%v: earlier commit lost", decided)
		}
		mustCommitKV(t, d2, "t", map[string]string{"post": "2"})
		if err := d2.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrepareAbsorbsPressure drives every append through the prepare
// path on a tiny heap. With the log pinned by a snapshot reader no
// checkpoint round can free space, so Prepare's reclaim loop runs out
// the deadline and surfaces a clean ErrBusy with the transaction rolled
// back; once the reader closes, prepared transactions flow again.
func TestPrepareAbsorbsPressure(t *testing.T) {
	d, plat := newTinyHeapDB(t, 64, Options{
		Journal:       JournalNVWAL,
		NVWAL:         core.VariantUHLSDiff(),
		CommitTimeout: 2 * time.Millisecond,
	})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"seed": "v"})
	rd, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}

	busy := false
	gtx := uint64(1)
	for i := 0; i < 100 && !busy; i++ {
		tx, err := d.Begin()
		if err != nil {
			assertCleanPressureErr(t, err)
			if errors.Is(err, ErrBusy) {
				busy = true
			}
			continue
		}
		key := []byte(fmt.Sprintf("fill%d", i))
		if err := tx.Insert("t", key, []byte(strings.Repeat(string(rune('a'+i%26)), 4096))); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		if err := tx.Prepare(gtx); err != nil {
			assertCleanPressureErr(t, err)
			if errors.Is(err, ErrBusy) {
				busy = true
			}
			continue
		}
		if err := tx.CompletePrepared(); err != nil {
			t.Fatalf("fill %d: complete: %v", i, err)
		}
		gtx++
	}
	if !busy {
		t.Fatal("100 prepared txns against a pinned 64-page heap never hit ErrBusy")
	}
	if plat.Metrics.Count(metrics.PressureStalls) == 0 {
		t.Fatal("ErrBusy returned but pressure_stalls counter is zero")
	}
	if d.Degraded() != nil {
		t.Fatalf("deadline expiry must not latch degraded mode: %v", d.Degraded())
	}

	rd.Close()
	tx := beginInsert(t, d, "t", "post", "v")
	if err := tx.Prepare(gtx); err != nil {
		t.Fatalf("prepare after reader close: %v", err)
	}
	if err := tx.CompletePrepared(); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := d.Get("t", []byte("post")); !ok || string(v) != "v" {
		t.Fatal("post-pressure prepared commit lost")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConflictsWithPreparedCommit: a 2PC commit claims its pages
// in the version vector like every other commit. A session that
// snapshotted before it and writes the same leaf must lose first-
// committer-wins validation — committing its stale-base diff over the
// 2PC image would be a lost update whose live and recovered views
// differ.
func TestSessionConflictsWithPreparedCommit(t *testing.T) {
	opts := concurrentOpts(1)
	d, plat := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"a": "a0", "b": "b0"})

	sess, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("t", []byte("b"), []byte("b-2pc")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(7); err != nil {
		t.Fatal(err)
	}
	if err := tx.CompletePrepared(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Update("t", []byte("a"), []byte("a-session")); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("session commit over a 2PC commit of the same leaf: %v, want ErrConflict", err)
	}
	err = d.RunConcurrent(context.Background(), func(tx *CTx) error {
		_, err := tx.Update("t", []byte("a"), []byte("a-session"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(d *DB, when string) {
		t.Helper()
		for k, want := range map[string]string{"a": "a-session", "b": "b-2pc"} {
			if v, ok, err := d.Get("t", []byte(k)); err != nil || !ok || string(v) != want {
				t.Fatalf("%s: %s = (%q,%v,%v), want %q", when, k, v, ok, err, want)
			}
		}
	}
	check(d, "live")
	d.Abandon()
	plat.PowerFail(memsim.FailDropAll, 3)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	check(d2, "recovered")
}
