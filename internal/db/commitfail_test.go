package db

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/pager"
	"repro/internal/platform"
)

// faultJournal wraps a real journal and fails on demand, so tests can
// observe how the engine reacts to journal-layer errors. A group flush
// reaches it once it stands in for the group committer's journal.
type faultJournal struct {
	pager.Journal
	failCommits     int // fail this many CommitTransaction calls
	failCheckpoints int // fail this many Checkpoint calls
}

var errInjected = errors.New("injected journal failure")

func (j *faultJournal) CommitTransaction(frames []pager.Frame) error {
	if j.failCommits > 0 {
		j.failCommits--
		return errInjected
	}
	return j.Journal.CommitTransaction(frames)
}

// CommitStreams is the group flush's journal call: it fails like
// CommitTransaction, and otherwise commits through the wrapped NVWAL.
func (j *faultJournal) CommitStreams(streams []*core.Stream, txns int) error {
	if j.failCommits > 0 {
		j.failCommits--
		return errInjected
	}
	return j.Journal.(*core.NVWAL).CommitStreams(streams, txns)
}

func (j *faultJournal) Checkpoint() error {
	if j.failCheckpoints > 0 {
		j.failCheckpoints--
		return errInjected
	}
	return j.Journal.Checkpoint()
}

// TestFailedCommitLeavesNextTxnClean is the regression test for the
// DB/pager state desync: a failed journal commit used to leave the
// pager transaction open (with its dirty pages) while the DB already
// considered the transaction finished, so the next commit silently
// carried the failed transaction's pages.
func TestFailedCommitLeavesNextTxnClean(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalOptimizedWAL})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"base": "v"})

	fj := &faultJournal{Journal: d.jrn, failCommits: 1}
	d.pg.SetJournal(fj)

	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []byte("doomed"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit did not propagate the journal failure")
	} else if !errors.Is(err, errInjected) {
		t.Fatalf("commit error = %v, want the injected failure", err)
	}

	// The engine and pager agree: no transaction open, no dirty pages.
	if d.pg.InTransaction() {
		t.Fatal("failed commit left the pager transaction open")
	}
	if n := d.pg.DirtyPages(); n != 0 {
		t.Fatalf("failed commit left %d dirty pages", n)
	}

	// The next transaction starts clean: it must not resurrect the
	// failed insert, and the journal must see only its own frames.
	tx2, err := d.Begin()
	if err != nil {
		t.Fatalf("Begin after failed commit: %v", err)
	}
	if _, ok, _ := tx2.Get("t", []byte("doomed")); ok {
		t.Fatal("failed transaction's insert visible to the next transaction")
	}
	if err := tx2.Insert("t", []byte("clean"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after failed commit: %v", err)
	}
	if _, ok, _ := d.Get("t", []byte("doomed")); ok {
		t.Fatal("failed insert leaked into a later commit")
	}
	if v, ok, _ := d.Get("t", []byte("clean")); !ok || string(v) != "y" {
		t.Fatal("follow-up commit lost")
	}
	if _, ok, _ := d.Get("t", []byte("base")); !ok {
		t.Fatal("pre-existing data lost")
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCommitThenCrash proves the failed transaction is invisible
// to recovery too: after the failure, a power failure and reboot must
// bring back everything committed and nothing from the failed txn.
func TestFailedCommitThenCrash(t *testing.T) {
	opts := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()}
	plat, err := platform.NewNexus5()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "c.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	d.CreateTable("t")
	mustCommitKV(t, d, "t", map[string]string{"base": "v"})

	d.pg.SetJournal(&faultJournal{Journal: d.jrn, failCommits: 1})
	tx, _ := d.Begin()
	tx.Insert("t", []byte("doomed"), []byte("x"))
	if err := tx.Commit(); err == nil {
		t.Fatal("commit did not fail")
	}
	d.pg.SetJournal(d.jrn)
	mustCommitKV(t, d, "t", map[string]string{"after": "z"})

	plat.PowerFail(memsim.FailDropAll, 7)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(plat, "c.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d2.Get("t", []byte("doomed")); ok {
		t.Fatal("failed transaction recovered after crash")
	}
	for _, k := range []string{"base", "after"} {
		if _, ok, _ := d2.Get("t", []byte(k)); !ok {
			t.Fatalf("committed key %q lost after crash", k)
		}
	}
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoCheckpointFailureIsDistinguishable covers the second commit-
// path fix: the transaction is durable once the journal accepted it, so
// a failing auto-checkpoint must surface as ErrCheckpointDeferred, not
// as a commit failure.
func TestAutoCheckpointFailureIsDistinguishable(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalOptimizedWAL, CheckpointLimit: 1})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	fj := &faultJournal{Journal: d.jrn, failCheckpoints: 1}
	d.jrn = fj
	d.pg.SetJournal(fj)

	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if err == nil {
		t.Fatal("checkpoint failure swallowed")
	}
	if !errors.Is(err, ErrCheckpointDeferred) {
		t.Fatalf("commit error = %v, want ErrCheckpointDeferred", err)
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("commit error = %v, want it to wrap the checkpoint cause", err)
	}
	// The transaction is durable despite the error.
	if v, ok, _ := d.Get("t", []byte("k")); !ok || string(v) != "v" {
		t.Fatal("committed data missing after deferred checkpoint")
	}
	// The deferred checkpoint succeeds on the next commit.
	mustCommitKV(t, d, "t", map[string]string{"k2": "v2"})
	if d.Journal().FramesSinceCheckpoint() != 0 {
		t.Fatal("checkpoint never retried")
	}
}
