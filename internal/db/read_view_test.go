package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/platform"
)

// TestCatalogParsedOncePerVersion pins the catalog memo: readers of one
// page-1 version share one parsed catalog (read transactions and MVCC
// sessions alike), a DDL makes a new version that is parsed again, and a
// reader opened before the DDL keeps resolving against its own.
func TestCatalogParsedOncePerVersion(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"k": "v"})
	get := func(r interface {
		Get(string, []byte) ([]byte, bool, error)
	}, table string) error {
		_, _, err := r.Get(table, []byte("k"))
		return err
	}

	old, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := get(old, "t"); err != nil {
		t.Fatal(err)
	}
	parsed := d.catalog.last.Load()
	if parsed == nil {
		t.Fatal("snapshot read did not go through the catalog memo")
	}

	// An update that allocates nothing leaves page 1 — and the parse —
	// alone, for a second reader and for a session.
	mustCommitKV(t, d, "t", map[string]string{"k": "w"})
	r2, _ := d.BeginRead()
	defer r2.Close()
	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := errors.Join(get(r2, "t"), get(tx, "t")); err != nil {
		t.Fatal(err)
	}
	if d.catalog.last.Load() != parsed {
		t.Fatal("catalog re-parsed although page 1 did not change")
	}

	// A commit that changes only page 1's position bytes (a follower's
	// import) leaves its catalog bytes alone: no re-parse, and the next
	// tree open allocates nothing.
	if err := d.ImportFrames(nil, Position{Incarnation: 1, Applied: 7, Chain: 9}); err != nil {
		t.Fatal(err)
	}
	r3, _ := d.BeginRead()
	defer r3.Close()
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.treeAt(&r3.store, &r3.store, "t"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("tree open after a position-only commit: %.1f allocs, want 0", allocs)
	}
	if d.catalog.last.Load() != parsed {
		t.Fatal("catalog re-parsed after a commit that changed only the position")
	}

	for _, ddl := range []struct {
		name string
		run  func() error
		want map[string]bool // table → visible after the DDL
	}{
		{"create", func() error { return d.CreateTable("u") }, map[string]bool{"t": true, "u": true}},
		{"drop", func() error { return d.DropTable("t") }, map[string]bool{"t": false, "u": true}},
	} {
		if err := ddl.run(); err != nil {
			t.Fatal(err)
		}
		r, _ := d.BeginRead()
		for table, visible := range ddl.want {
			if err := get(r, table); (err == nil) != visible {
				t.Fatalf("after %s: table %q visible=%v, err=%v", ddl.name, table, visible, err)
			}
		}
		r.Close()
		if now := d.catalog.last.Load(); now == parsed {
			t.Fatalf("after %s: catalog not re-parsed", ddl.name)
		} else {
			parsed = now
		}
	}
	// The reader that predates both DDLs still has its own catalog.
	if err := get(old, "u"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("pre-DDL reader resolved a later table: %v", err)
	}
	if v, ok, err := old.Get("t", []byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("pre-DDL reader lost its table: (%q, %v, %v)", v, ok, err)
	}
}

// referencePage is an independent journal-else-file resolution of pgno at
// mark: NVWAL's PageVersionAt when a frame of the page lies below the
// mark, otherwise a read of the database file.
func referencePage(nv *core.NVWAL, dbf pager.DBFile, pgno uint32, mark int) ([]byte, error) {
	if img, ok := nv.PageVersionAt(pgno, mark); ok {
		if img == nil {
			return nil, fmt.Errorf("%w: page %d at mark %d", pager.ErrNoImage, pgno, mark)
		}
		return img, nil
	}
	img := make([]byte, dbf.PageSize())
	if err := dbf.ReadPage(pgno, img); err != nil {
		return nil, err
	}
	return img, nil
}

// checkedStore compares every page a reader resolves with referencePage
// at the reader's own mark.
type checkedStore struct {
	snapshotStore
	d     *DB
	pages *atomic.Int64
}

func (c *checkedStore) Get(pgno uint32) ([]byte, error) {
	got, err := c.snapshotStore.Get(pgno)
	if err != nil {
		return nil, err
	}
	want, err := referencePage(c.d.nv, c.d.dbf, pgno, c.Mark)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("page %d at mark %d: shared image differs from the journal-else-file reference", pgno, c.Mark)
	}
	c.pages.Add(1)
	return got, nil
}

// The stress's shape: 4 snapshot readers, 2 writers of 24 keys each.
const raceReaders, raceWriters, raceSetSize = 4, 2, 24

func raceOpts() Options {
	return Options{
		Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(),
		Concurrent: true, GroupCommit: raceWriters, BackgroundCheckpoint: true, CheckpointLimit: 48,
	}
}

func raceKey(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%05d", w, i)) }

func raceVal(n uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 0, 72), n)[:72] }

// TestSnapshotReadersRaceWritersAndCheckpointer is the -race stress of
// the shared read view: 4 snapshot readers, 2 RunConcurrent writers and
// the background checkpointer. A writer rewrites its whole key set to one
// counter value per transaction and sometimes grows the tree; a reader
// opens a snapshot, walks the table through a store that checks every
// page it resolves against the reference, and requires each writer's set
// to be uniform — a torn snapshot, an image patched in place or a
// checkpoint retiring a pinned frame would all show.
func TestSnapshotReadersRaceWritersAndCheckpointer(t *testing.T) {
	d, _ := newDB(t, raceOpts())
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	raceReadersWritersCheckpointer(t, d)
}

// raceReadersWritersCheckpointer runs the stress on d's table "t".
func raceReadersWritersCheckpointer(t *testing.T, d *DB) {
	const readers, writers, setSize = raceReaders, raceWriters, raceSetSize
	run := 2 * time.Second
	if testing.Short() {
		run = 300 * time.Millisecond
	}
	key, val := raceKey, raceVal

	stop := make(chan struct{})
	errs := make(chan error, readers+writers)
	var wg sync.WaitGroup
	var pages, snapshots atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			extra := setSize
			for n := uint64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
					for i := 0; i < setSize; i++ {
						if err := tx.Insert("t", key(w, i), val(n)); err != nil {
							return err
						}
					}
					if n%4 == 0 { // grow: splits, fresh pages, a new page 1
						extra++
						return tx.Insert("t", key(w, extra), val(0))
					}
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt, err := d.BeginRead()
				if err != nil {
					errs <- err
					return
				}
				store := &checkedStore{snapshotStore: rt.store, d: d, pages: &pages}
				seen := make(map[byte]uint64)
				var torn error
				tr, err := d.treeAt(store, store, "t")
				if err == nil {
					err = tr.Scan(func(k, v []byte) bool {
						n := binary.BigEndian.Uint64(v)
						if n == 0 {
							return true // growth filler
						}
						if prev, ok := seen[k[1]]; ok && prev != n {
							torn = fmt.Errorf("torn snapshot at mark %d: writer %c has %d and %d", store.Mark, k[1], prev, n)
							return false
						}
						seen[k[1]] = n
						return true
					})
				}
				rt.Close()
				if err = errors.Join(err, torn); err != nil {
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
				snapshots.Add(1)
			}
		}()
	}
	select {
	case err := <-errs:
		close(stop)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(run):
		close(stop)
		wg.Wait()
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if snapshots.Load() == 0 || pages.Load() == 0 || d.Metrics().Count(metrics.Checkpoints) == 0 {
		t.Fatalf("stress did not stress: %d snapshots, %d pages, %d checkpoints",
			snapshots.Load(), pages.Load(), d.Metrics().Count(metrics.Checkpoints))
	}
	t.Logf("%d snapshots, %d pages checked, %d checkpoints", snapshots.Load(), pages.Load(), d.Metrics().Count(metrics.Checkpoints))
}

// TestSessionCopiesOnlyWrittenPages pins the session half of the
// ownership rule: a page a session loads is the snapshot's shared image
// itself — read, never copied — and the one copy is made when the session
// first writes a page, with the shared image staying the commit's diff
// base. A session that reads 64 pages and writes one copies exactly one
// page.
func TestSessionCopiesOnlyWrittenPages(t *testing.T) {
	d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1})
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// ~40 records of 100 bytes per leaf: every 40th key lands on a leaf of
	// its own.
	const keys, stride, reads = 64 * 40, 40, 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }
	kv := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		kv[string(key(i))] = string(bytes.Repeat([]byte{'v'}, 100))
	}
	mustCommitKV(t, d, "t", kv)
	probe := make([][]byte, reads)
	for r := range probe {
		probe[r] = key(r * stride)
	}
	value := []byte("written")
	// session runs the reads (and the write), then hands the page table to
	// inspect, if any, before the rollback takes it back.
	session := func(write bool, inspect func(st *sessionStore)) {
		tx, err := d.BeginConcurrent()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		for _, k := range probe {
			if _, ok, err := tx.Get("t", k); err != nil || !ok {
				t.Fatalf("Get %s = %v %v", k, ok, err)
			}
		}
		if write {
			if ok, err := tx.Update("t", probe[0], value); err != nil || !ok {
				t.Fatalf("Update = %v %v", ok, err)
			}
		}
		if inspect != nil {
			inspect(&tx.store)
		}
	}

	leaves, owned := 0, 0
	session(true, func(st *sessionStore) {
		for pgno, e := range st.pages {
			shared, isShared, err := d.view.PageAt(pgno, st.snap.Mark)
			if err != nil || !isShared || &e.base[0] != &shared[0] {
				t.Fatalf("page %d: the session did not load the snapshot's shared image (shared=%v err=%v)", pgno, isShared, err)
			}
			leaves++
			if e.own == nil {
				continue
			}
			owned++
			if !e.dirty || &e.own[0] == &e.base[0] || bytes.Equal(e.own, e.base) {
				t.Fatalf("page %d: the write went to the shared image", pgno)
			}
			if n := testing.AllocsPerRun(10, func() { st.MarkDirty(pgno) }); n != 0 {
				t.Fatalf("MarkDirty of a page already written allocates %v times, want 0", n)
			}
		}
	})
	if leaves < reads {
		t.Fatalf("the reads loaded %d pages, want at least %d", leaves, reads)
	}
	if owned != 1 {
		t.Fatalf("%d private pages, want the one written leaf", owned)
	}

	// Bytes: the same session with and without the one write. Reading 64
	// pages copies none of them (that alone would be 256 KiB); the write
	// adds one page copy and small bookkeeping, not a second page.
	bytesPerSession := func(write bool) float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		session(write, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			session(write, nil)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	readOnly, written := bytesPerSession(false), bytesPerSession(true)
	t.Logf("session of %d reads: %.0f B; with one write: %.0f B", reads, readOnly, written)
	if readOnly >= reads*4096/4 {
		t.Fatalf("a read-only session of %d page loads allocates %.0f bytes: pages are being copied", reads, readOnly)
	}
	if extra := written - readOnly; extra < 4096 || extra >= 2*4096 {
		t.Fatalf("one write costs %.0f bytes, want one 4 KiB page copy", extra)
	}
}

// reopened checkpoints, closes and reopens d, so that every page lives
// only in the database file: the log has no image to share.
func reopened(t testing.TB, d *DB, plat *platform.Platform, opts Options) *DB {
	t.Helper()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotKeepsOnlyBuiltPages pins the reader's memo to the pages
// that need one: an image the view had to build (a database file read) is
// built once per ReadTx, an image the log shares is never kept.
func TestSnapshotKeepsOnlyBuiltPages(t *testing.T) {
	nv := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()}
	for _, c := range []struct {
		name   string
		opts   Options
		reopen bool
		built  bool
	}{
		{"nvwal live", nv, false, false},
		{"nvwal reopened", nv, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, plat := newDB(t, c.opts)
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			mustCommitKV(t, d, "t", map[string]string{"a": "1", "b": "2"})
			if c.reopen {
				d = reopened(t, d, plat, c.opts)
			}
			defer d.Close()
			rt, err := d.BeginRead()
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			for i := 0; i < 3; i++ {
				if v, ok, err := rt.Get("t", []byte("b")); err != nil || !ok || string(v) != "2" {
					t.Fatalf("Get = %q %v %v", v, ok, err)
				}
			}
			if got := len(rt.store.built) > 0; got != c.built {
				t.Fatalf("reader kept %d built pages, want any=%v", len(rt.store.built), c.built)
			}
			for pgno, img := range rt.store.built {
				if again, _ := rt.store.Get(pgno); &again[0] != &img[0] {
					t.Fatalf("page %d built twice in one ReadTx", pgno)
				}
			}
		})
	}
}

// TestSessionOwnsBuiltPages is the session side of the same rule on a
// reopened database: a page read from the file is built for the session
// alone, and the session keeps it as it is — loaded once, never copied
// for reading, never written — and copies it only when it writes the
// page, the built image staying the diff base.
func TestSessionOwnsBuiltPages(t *testing.T) {
	opts := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true}
	d, plat := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommitKV(t, d, "t", map[string]string{"a": "1", "b": "2"})
	d = reopened(t, d, plat, opts)

	tx, err := d.BeginConcurrent()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := tx.Get("t", []byte("a")); err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	st := &tx.store
	if len(st.pages) == 0 {
		t.Fatal("read-only load: no loaded pages")
	}
	before := make(map[uint32][]byte)
	loaded := make(map[uint32][]byte)
	for pgno, e := range st.pages {
		if e.own != nil {
			t.Fatalf("read-only load: page %d has a private image", pgno)
		}
		if again, _ := st.Get(pgno); &again[0] != &e.base[0] {
			t.Fatalf("page %d built twice", pgno)
		}
		before[pgno] = bytes.Clone(e.base)
		loaded[pgno] = e.base
	}
	if _, err := tx.Update("t", []byte("a"), []byte("9")); err != nil {
		t.Fatal(err)
	}
	dirty := 0
	for pgno, e := range st.pages {
		if !e.dirty {
			continue
		}
		dirty++
		if &e.base[0] != &loaded[pgno][0] || !bytes.Equal(e.base, before[pgno]) {
			t.Fatalf("page %d: diff base is not the page's pre-image as built", pgno)
		}
		if bytes.Equal(e.base, e.own) {
			t.Fatalf("page %d: the write did not reach the session's copy", pgno)
		}
	}
	if dirty == 0 {
		t.Fatal("update dirtied nothing")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The commit logged a differential frame against that base: replaying
	// it over the file must give the updated row and leave the other.
	plat.PowerFail(memsim.FailDropAll, 3)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for k, want := range map[string]string{"a": "9", "b": "2"} {
		if v, _, err := d2.Get("t", []byte(k)); err != nil || string(v) != want {
			t.Fatalf("after power cut %s = %q (%v), want %q", k, v, err, want)
		}
	}
}

// BenchmarkFallbackReads measures the readers on pages the log cannot
// hand out shared — a reopened NVWAL database, every page only in the
// database file — beside the shared case: a ReadTx of N point reads, or
// (session) a read-only MVCC session of 10.
func BenchmarkFallbackReads(b *testing.B) {
	nv := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1}
	for _, c := range []struct {
		name    string
		opts    Options
		reopen  bool
		gets    int
		session bool
	}{
		{"nvwal-live/100gets", nv, false, 100, false},
		{"nvwal-reopened/1get", nv, true, 1, false},
		{"nvwal-reopened/100gets", nv, true, 100, false},
		{"nvwal-live/session", nv, false, 10, true},
		{"nvwal-reopened/session", nv, true, 10, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			d, plat := newDB(b, c.opts)
			if err := d.CreateTable("t"); err != nil {
				b.Fatal(err)
			}
			const keys = 20000
			key := func(i int) []byte { return []byte(fmt.Sprintf("k%06d", i%keys)) }
			for base := 0; base < keys; base += 500 {
				kv := make(map[string]string, 500)
				for i := base; i < base+500; i++ {
					kv[string(key(i))] = "0123456789012345678901234567890123456789"
				}
				mustCommitKV(b, d, "t", kv)
			}
			if c.reopen {
				d = reopened(b, d, plat, c.opts)
			}
			defer d.Close()
			gets := func(i int, get func(table string, key []byte) ([]byte, bool, error)) error {
				for g := 0; g < c.gets; g++ {
					if _, ok, err := get("t", key(i*7919+g*31)); err != nil || !ok {
						return fmt.Errorf("read: found=%v err=%v", ok, err)
					}
				}
				return nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if c.session {
					err = d.RunConcurrent(context.Background(), func(tx *CTx) error { return gets(i, tx.Get) })
				} else {
					var rt *ReadTx
					if rt, err = d.BeginRead(); err == nil {
						err = gets(i, rt.Get)
						rt.Close()
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSessionFreesAndRewritesBuiltPages drives the same ownership rule
// through page frees and splits: on a reopened database a session deletes
// a key range (emptied leaves chain onto the freelist against their own
// pre-images), rewrites and inserts others, and the result must survive a
// power cut exactly.
func TestSessionFreesAndRewritesBuiltPages(t *testing.T) {
	opts := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true}
	d, plat := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const keys = 1500
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	want := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		want[key(i)] = fmt.Sprintf("value-%05d-0123456789012345678901234567890123456789", i)
	}
	mustCommitKV(t, d, "t", want)
	d = reopened(t, d, plat, opts)

	err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
		for i := 300; i < 900; i++ {
			if _, err := tx.Delete("t", []byte(key(i))); err != nil {
				return err
			}
		}
		for i := 0; i < 300; i += 3 {
			if _, err := tx.Update("t", []byte(key(i)), []byte("rewritten")); err != nil {
				return err
			}
		}
		for i := keys; i < keys+200; i++ {
			if err := tx.Insert("t", []byte(key(i)), []byte("fresh")); err != nil {
				return err
			}
		}
		for _, e := range tx.store.pages {
			if e.freed {
				return nil
			}
		}
		return errors.New("the delete range freed no page")
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 300; i < 900; i++ {
		delete(want, key(i))
	}
	for i := 0; i < 300; i += 3 {
		want[key(i)] = "rewritten"
	}
	for i := keys; i < keys+200; i++ {
		want[key(i)] = "fresh"
	}
	plat.PowerFail(memsim.FailDropAll, 5)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(plat, "test.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make(map[string]string)
	if err := d2.Scan("t", func(k, v []byte) bool { got[string(k)] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows after the power cut, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %q, want %q", k, got[k], v)
		}
	}
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
}
