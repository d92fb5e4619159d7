package db

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSnapshotReadsAreStable(t *testing.T) {
	for _, opts := range allModes() {
		if opts.Journal != JournalNVWAL {
			continue
		}
		t.Run(modeName(opts), func(t *testing.T) {
			d, _ := newDB(t, opts)
			d.CreateTable("t")
			mustCommitKV(t, d, "t", map[string]string{"k1": "v1", "k2": "v2"})

			r, err := d.BeginRead()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			// The writer moves on: updates, deletes, inserts.
			mustCommitKV(t, d, "t", map[string]string{"k1": "CHANGED", "k3": "new"})
			tx, _ := d.Begin()
			tx.Delete("t", []byte("k2"))
			tx.Commit()

			// The snapshot still sees the original state.
			v, ok, err := r.Get("t", []byte("k1"))
			if err != nil || !ok || !bytes.Equal(v, []byte("v1")) {
				t.Fatalf("snapshot k1 = (%q,%v,%v)", v, ok, err)
			}
			if _, ok, _ := r.Get("t", []byte("k3")); ok {
				t.Fatal("snapshot sees a later insert")
			}
			if _, ok, _ := r.Get("t", []byte("k2")); !ok {
				t.Fatal("snapshot lost a record deleted later")
			}
			if n, _ := r.Count("t"); n != 2 {
				t.Fatalf("snapshot count = %d, want 2", n)
			}
			// The live view sees the new state.
			v, _, _ = d.Get("t", []byte("k1"))
			if !bytes.Equal(v, []byte("CHANGED")) {
				t.Fatal("live view stale")
			}
		})
	}
}

func TestSnapshotDoesNotSeeUncommittedWrites(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	d.CreateTable("t")
	mustCommitKV(t, d, "t", map[string]string{"base": "yes"})
	tx, _ := d.Begin()
	tx.Insert("t", []byte("pending"), []byte("no"))
	// Reader opens while the write txn is still uncommitted.
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, _ := r.Get("t", []byte("pending")); ok {
		t.Fatal("snapshot sees uncommitted write")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Still invisible: the snapshot predates the commit.
	if _, ok, _ := r.Get("t", []byte("pending")); ok {
		t.Fatal("snapshot sees a commit after its mark")
	}
}

func TestSnapshotBlocksCheckpoint(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CheckpointLimit: 5})
	d.CreateTable("t")
	mustCommitKV(t, d, "t", map[string]string{"a": "1"})
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	// The reader's mark covers the whole log, so a checkpoint at this
	// watermark cannot invalidate it: it proceeds.
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint with up-to-date reader = %v, want nil", err)
	}
	// A commit past the reader's mark makes the next watermark exceed it;
	// now checkpointing would steal frames the snapshot still needs.
	mustCommitKV(t, d, "t", map[string]string{"b": "2"})
	if err := d.Checkpoint(); err != ErrBusySnapshot {
		t.Fatalf("Checkpoint with stale reader = %v, want ErrBusySnapshot", err)
	}
	// Auto-checkpoint is skipped, not failed: commits keep working past
	// the limit.
	for i := 0; i < 10; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	if d.Journal().FramesSinceCheckpoint() == 0 {
		t.Fatal("checkpoint ran despite the open reader")
	}
	r.Close()
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
}

func TestSnapshotAcrossCheckpointEpoch(t *testing.T) {
	// A snapshot taken after a checkpoint reads pages from the database
	// file (the log is empty at its mark).
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	d.CreateTable("t")
	mustCommitKV(t, d, "t", map[string]string{"old": "data"})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustCommitKV(t, d, "t", map[string]string{"new": "data"})
	v, ok, err := r.Get("t", []byte("old"))
	if err != nil || !ok || !bytes.Equal(v, []byte("data")) {
		t.Fatalf("snapshot lost checkpointed data: (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := r.Get("t", []byte("new")); ok {
		t.Fatal("snapshot sees post-mark commit")
	}
}

// TestBaselineModesRejectSnapshots: point-in-time reads are NVWAL's
// alone. The flash WALs and the rollback journal refuse a snapshot, an
// export, a session, and background checkpointing at Open — naming the
// journal mode — while their plain reads and writes keep working.
func TestBaselineModesRejectSnapshots(t *testing.T) {
	for _, j := range []JournalMode{JournalWAL, JournalOptimizedWAL, JournalRollback} {
		t.Run(j.String(), func(t *testing.T) {
			d, plat := newDB(t, Options{Journal: j, Concurrent: true})
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			mustCommitKV(t, d, "t", map[string]string{"k": "v"})
			if _, err := d.BeginRead(); err != ErrNoSnapshots {
				t.Fatalf("BeginRead = %v, want ErrNoSnapshots", err)
			}
			if _, err := d.ExportPages(); err != ErrNoExport {
				t.Fatalf("ExportPages = %v, want ErrNoExport", err)
			}
			if tx, err := d.BeginConcurrent(); err == nil {
				tx.Rollback()
				t.Fatal("BeginConcurrent succeeded")
			}
			if v, ok, err := d.Get("t", []byte("k")); err != nil || !ok || string(v) != "v" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			_, err := Open(plat, "bg.db", Options{Journal: j, Concurrent: true, BackgroundCheckpoint: true})
			if err == nil || !strings.Contains(err.Error(), j.String()) {
				t.Fatalf("Open with BackgroundCheckpoint = %v, want an error naming %s", err, j)
			}
		})
	}
}

func TestClosedReadTxRejected(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	d.CreateTable("t")
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent
	if _, _, err := r.Get("t", []byte("k")); err == nil {
		t.Fatal("closed read txn served a read")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("reader accounting broken: %v", err)
	}
}

func TestManySnapshotsInterleaved(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	d.CreateTable("t")
	var snaps []*ReadTx
	for i := 0; i < 8; i++ {
		mustCommitKV(t, d, "t", map[string]string{fmt.Sprintf("k%d", i): fmt.Sprintf("v%d", i)})
		r, err := d.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, r)
	}
	// Snapshot i sees exactly i+1 records.
	for i, r := range snaps {
		n, err := r.Count("t")
		if err != nil || n != i+1 {
			t.Fatalf("snapshot %d count = %d (%v), want %d", i, n, err, i+1)
		}
		r.Close()
	}
}

// TestSessionScanSeesOwnWrites: an MVCC session's scans walk its own page
// table — updates, deletes that empty leaves, inserts, a value moved onto
// an overflow chain, a second table — while a snapshot opened before it
// sees none of that, and every view fn is handed matches the expected
// record while fn runs.
func TestSessionScanSeesOwnWrites(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1})
	for _, table := range []string{"t", "u"} {
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	base := map[string]string{}
	for i := 0; i < 400; i++ {
		base[key(i)] = fmt.Sprintf("base-%05d-%s", i, bytes.Repeat([]byte{'b'}, 80))
	}
	mustCommitKV(t, d, "t", base)
	before, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Close()

	want := maps.Clone(base)
	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	for i := 0; i < 400; i += 7 {
		want[key(i)] = "updated"
		if _, err := tx.Update("t", []byte(key(i)), []byte("updated")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 160; i++ {
		delete(want, key(i))
		if _, err := tx.Delete("t", []byte(key(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 400; i < 450; i++ {
		want[key(i)] = "inserted"
		if err := tx.Insert("t", []byte(key(i)), []byte("inserted")); err != nil {
			t.Fatal(err)
		}
	}
	want[key(200)] = string(bytes.Repeat([]byte{'o'}, 9000))
	if err := tx.Insert("t", []byte(key(200)), []byte(want[key(200)])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("u", []byte("only"), []byte("row")); err != nil {
		t.Fatal(err)
	}

	// scan checks a walk against kv in key order, view by view.
	scan := func(what string, walk func(string, func(k, v []byte) bool) error, table string, kv map[string]string) {
		t.Helper()
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		i := 0
		err := walk(table, func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != kv[keys[i]] {
				t.Fatalf("%s: record %d is %q (%d bytes)", what, i, k, len(v))
			}
			i++
			return true
		})
		if err != nil || i != len(keys) {
			t.Fatalf("%s: visited %d of %d records, err %v", what, i, len(keys), err)
		}
	}
	scan("session scan", tx.Scan, "t", want)
	scan("session scan of a second table", tx.Scan, "u", map[string]string{"only": "row"})
	scan("earlier snapshot", before.Scan, "t", base)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	scan("snapshot after commit", after.Scan, "t", want)
}

// TestSnapshotScanAllocatesNothing pins the read side's allocations: a
// warm 20-record ReadTx.ScanRange and a Count hand out views and allocate
// nothing, and a whole snapshot point read — BeginRead, Get, Close —
// allocates the ReadTx, the value it returns and at most one more.
func TestSnapshotScanAllocatesNothing(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	kv := map[string]string{}
	for i := 0; i < 500; i++ {
		kv[fmt.Sprintf("k%05d", i)] = string(bytes.Repeat([]byte{'v'}, 100))
	}
	mustCommitKV(t, d, "t", kv)
	rt, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	n, start := 0, []byte("k00100")
	visit := func(_, _ []byte) bool { n++; return n%20 != 0 }
	scan := func() {
		if err := rt.ScanRange("t", start, nil, visit); err != nil {
			t.Fatal(err)
		}
	}
	scan()
	if a := testing.AllocsPerRun(100, scan); a != 0 {
		t.Fatalf("a 20-record ReadTx.ScanRange allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { rt.Count("t") }); a != 0 {
		t.Fatalf("ReadTx.Count allocates %v times, want 0", a)
	}
	if n != 20*102 {
		t.Fatalf("the scans visited %d records, want %d", n, 20*102)
	}
	rt.Close()

	k := []byte("k00321")
	read := func() {
		rt, err := d.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := rt.Get("t", k); err != nil || !ok {
			t.Fatalf("Get = %v, %v", ok, err)
		}
		rt.Close()
	}
	read()
	if a := testing.AllocsPerRun(100, read); a > 3 {
		t.Fatalf("BeginRead + Get + Close allocates %v times, want at most 3", a)
	}
}
