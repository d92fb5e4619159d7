package rollback

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/dbfile"
	"repro/internal/ext4"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/simclock"
	"repro/internal/trace"
)

type env struct {
	fs  *ext4.FS
	db  pager.DBFile
	m   *metrics.Counters
	rec *trace.Recorder
}

func newEnv(t testing.TB) *env {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	dev := blockdev.New(blockdev.Config{Pages: 1 << 15}, clock, m)
	rec := dev.StartTrace()
	fs := ext4.New(dev)
	f, err := fs.Create("r.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	return &env{fs: fs, db: dbfile.New(f, 4096), m: m, rec: rec}
}

func (e *env) open(t testing.TB) *Journal {
	t.Helper()
	j, err := Open(e.fs, "r.db", e.db, e.m)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func page(fill byte) []byte {
	p := make([]byte, 4096)
	for i := range p {
		p[i] = fill
	}
	return p
}

func TestCommitWritesDatabaseInPlace(t *testing.T) {
	e := newEnv(t)
	j := e.open(t)
	if err := j.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page(0xAA)}}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := e.db.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(0xAA)) {
		t.Fatal("page not written to the database file")
	}
	if _, ok := j.PageVersion(2); ok {
		t.Fatal("rollback mode has no log versions")
	}
	if e.fs.Exists("r.db-journal") {
		t.Fatal("journal not deleted at commit")
	}
}

func TestThreeFsyncsPerCommit(t *testing.T) {
	// The §1 comparison point: rollback journaling syncs the journal,
	// the database, and the journal deletion — WAL syncs once.
	e := newEnv(t)
	j := e.open(t)
	before := e.m.Count(metrics.Fsync)
	if err := j.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page(1)}}); err != nil {
		t.Fatal(err)
	}
	got := e.m.Count(metrics.Fsync) - before
	// Each file-level fsync may issue up to 2 device syncs (EXT4
	// journal commit); at least 3 file-level syncs must appear.
	if got < 3 {
		t.Fatalf("commit issued %d device syncs, want >= 3", got)
	}
}

func TestCrashBeforeJournalSyncLeavesDBUntouched(t *testing.T) {
	e := newEnv(t)
	j := e.open(t)
	j.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page(0x11)}})

	// Hand-craft a torn journal: header written, never fsynced, crash.
	jf, err := e.fs.Create("r.db-journal", "journal-file")
	if err != nil {
		t.Fatal(err)
	}
	jf.WriteAt([]byte("garbage-that-never-synced"), 0)
	e.fs.PowerFail()

	f, _ := e.fs.Open("r.db")
	e.db = dbfile.New(f, 4096)
	j2, err := Open(e.fs, "r.db", e.db, e.m)
	if err != nil {
		t.Fatal(err)
	}
	_ = j2
	got := make([]byte, 4096)
	e.db.ReadPage(2, got)
	if !bytes.Equal(got, page(0x11)) {
		t.Fatal("committed page lost")
	}
}

func TestHotJournalRollsBackTornCommit(t *testing.T) {
	e := newEnv(t)
	j := e.open(t)
	j.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page(0x11)}})

	// Simulate a crash after the journal fsync but before the database
	// write completes durably: write the journal for a new transaction,
	// fsync it, scribble the database without syncing, crash.
	jf, err := e.fs.Create("r.db-journal", "journal-file")
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the production encoding by invoking the commit path up to
	// the database write: easiest is to build the journal by hand using
	// the same helpers.
	j3 := &Journal{fs: e.fs, db: e.db, name: "r.db-journal", pageSize: 4096, m: e.m}
	_ = jf
	e.fs.Remove("r.db-journal")
	// Do a full commit but power-fail before its final sync by driving
	// the steps manually: journal the old page, sync, overwrite db,
	// crash (no sync).
	if err := j3.writeUndoLog([]pager.Frame{{Pgno: 2, Data: page(0x22)}}); err != nil {
		t.Fatal(err)
	}
	e.db.WritePage(2, page(0x22))
	e.fs.PowerFail() // db write was unsynced; journal was synced

	f, _ := e.fs.Open("r.db")
	e.db = dbfile.New(f, 4096)
	if _, err := Open(e.fs, "r.db", e.db, e.m); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	e.db.ReadPage(2, got)
	if !bytes.Equal(got, page(0x11)) {
		t.Fatalf("torn transaction not rolled back: %x", got[0])
	}
	if e.fs.Exists("r.db-journal") {
		t.Fatal("hot journal not removed after rollback")
	}
}

func TestHotJournalRollsBackAfterPartialDurableWrite(t *testing.T) {
	// The stronger case: the database write WAS durable but the journal
	// deletion was not — recovery must still undo (the commit point is
	// the journal deletion).
	e := newEnv(t)
	j := e.open(t)
	j.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page(0x11)}})

	j3 := &Journal{fs: e.fs, db: e.db, name: "r.db-journal", pageSize: 4096, m: e.m}
	if err := j3.writeUndoLog([]pager.Frame{{Pgno: 2, Data: page(0x33)}}); err != nil {
		t.Fatal(err)
	}
	e.db.WritePage(2, page(0x33))
	e.db.Sync() // database durable
	e.fs.PowerFail()

	f, _ := e.fs.Open("r.db")
	e.db = dbfile.New(f, 4096)
	if _, err := Open(e.fs, "r.db", e.db, e.m); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	e.db.ReadPage(2, got)
	if !bytes.Equal(got, page(0x11)) {
		t.Fatal("uncommitted (journal not deleted) transaction survived")
	}
}

func TestEmptyCommitNoop(t *testing.T) {
	e := newEnv(t)
	j := e.open(t)
	if err := j.CommitTransaction(nil); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("r.db-journal") {
		t.Fatal("empty commit created a journal")
	}
}

func TestCheckpointNoop(t *testing.T) {
	e := newEnv(t)
	j := e.open(t)
	if j.FramesSinceCheckpoint() != 0 {
		t.Fatal("rollback mode reported frames")
	}
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
