package db

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// Image recycling across checkpoint rounds (DESIGN.md §15): the page copy
// a commit makes lands in a version an earlier round retired, and no
// reader sees an image recycled under it.

const recycleKeys = 200

func recycleKey(i int) []byte { return []byte(fmt.Sprintf("k%05d", i%recycleKeys)) }

// recycleDB opens a database with the default checkpoint limit and a
// table of recycleKeys ten-byte values.
func recycleDB(t *testing.T, opts Options) *DB {
	t.Helper()
	d, _ := newDB(t, opts)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	kv := map[string]string{}
	for i := 0; i < recycleKeys; i++ {
		kv[string(recycleKey(i))] = "0000000000"
	}
	mustCommitKV(t, d, "t", kv)
	return d
}

// steadyBytesPerCommit runs commit until the log has completed one
// checkpoint round, then reports the heap bytes per commit over the
// commits that complete three more.
func steadyBytesPerCommit(t *testing.T, d *DB, commit func(i int)) float64 {
	t.Helper()
	rounds := func() int64 { return d.Metrics().Count(metrics.Checkpoints) }
	i := 0
	for ; rounds() == 0; i++ {
		if i == 10*DefaultCheckpointLimit {
			t.Fatalf("no checkpoint round after %d commits", i)
		}
		commit(i)
	}
	first := rounds()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := 0
	for ; rounds() < first+3; n++ {
		commit(i + n)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// checkValues requires every key to hold the value model says.
func checkValues(t *testing.T, d *DB, model map[string][]byte) {
	t.Helper()
	for k, want := range model {
		got, ok, err := d.Get("t", []byte(k))
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("%s = %q (%v, %v), want %q", k, got, ok, err, want)
		}
	}
}

// bumpValue returns the next ten-byte value of key i: commit n's.
func bumpValue(n int) []byte { return []byte(fmt.Sprintf("%010d", n)) }

// TestLegacyUpdatesAcrossRoundsRecycleImages: a legacy transaction's one
// page copy comes from the spare list once a round has retired versions,
// so past the first round an update commit allocates well under the
// page it copies.
func TestLegacyUpdatesAcrossRoundsRecycleImages(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	model := map[string][]byte{}
	perCommit := steadyBytesPerCommit(t, d, func(i int) {
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		v := bumpValue(i)
		if ok, err := tx.Update("t", recycleKey(i), v); err != nil || !ok {
			t.Fatalf("update %d: %v, %v", i, ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		model[string(recycleKey(i))] = v
	})
	t.Logf("legacy update across rounds: %.0f bytes/commit", perCommit)
	// Under the race detector sync.Pool drops the B-tree's page-sized
	// edit scratch at random; what the test then checks is the content.
	if perCommit >= 1024 && !raceEnabled {
		t.Fatalf("a legacy update allocates %.0f bytes per commit across rounds, want < 1024: its page copy is not recycled", perCommit)
	}
	checkValues(t, d, model)
}

// TestSessionUpdatesAcrossRoundsRecycleImages is the same for MVCC
// sessions, whose MarkDirty copies through the same spare list.
func TestSessionUpdatesAcrossRoundsRecycleImages(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true})
	model := map[string][]byte{}
	perCommit := steadyBytesPerCommit(t, d, func(i int) {
		v := bumpValue(i)
		if err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
			_, err := tx.Update("t", recycleKey(i), v)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		model[string(recycleKey(i))] = v
	})
	t.Logf("session update across rounds: %.0f bytes/commit", perCommit)
	if perCommit >= 1024 && !raceEnabled {
		t.Fatalf("a session update allocates %.0f bytes per commit across rounds, want < 1024: its page copy is not recycled", perCommit)
	}
	checkValues(t, d, model)
}

// scanAll returns every record r sees.
func scanAll(t *testing.T, r *ReadTx) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := r.Scan("t", func(k, v []byte) bool {
		out[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPinnedReaderOutlivesRewritesThenReleases: a ReadTx pinned across
// three rounds' worth of rewrites of its pages — by legacy transactions
// and sessions, each round refused by its mark — reads its snapshot's
// exact bytes throughout; once it closes, the next round releases every
// image it was reading that a later commit replaced.
func TestPinnedReaderOutlivesRewritesThenReleases(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1})
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	mark := r.store.Mark
	want := scanAll(t, r)
	pages, err := d.pg.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	held := map[uint32][]byte{}
	for pgno := uint32(1); pgno <= pages; pgno++ {
		if img, shared, err := d.nv.PageImageAt(pgno, mark); err == nil && shared && img != nil {
			held[pgno] = img
		}
	}
	n := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < recycleKeys; i, n = i+1, n+1 {
			v := bumpValue(n)
			if i%2 == 0 {
				mustCommitKV(t, d, "t", map[string]string{string(recycleKey(i)): string(v)})
				continue
			}
			if err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
				_, err := tx.Update("t", recycleKey(i), v)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Checkpoint(); !errors.Is(err, ErrBusySnapshot) {
			t.Fatalf("round %d past the reader's mark: %v, want ErrBusySnapshot", round, err)
		}
		if got := scanAll(t, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: the pinned reader no longer reads its snapshot", round)
		}
	}
	replaced := map[*byte]uint32{}
	for pgno, img := range held {
		if now, _, err := d.nv.PageImageAt(pgno, pager.Latest); err == nil && &now[0] != &img[0] {
			replaced[&img[0]] = pgno
		}
	}
	if len(replaced) == 0 {
		t.Fatal("no commit replaced an image the reader held: the test proves nothing")
	}
	r.Close()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for img := d.nv.SpareImage(); img != nil; img = d.nv.SpareImage() {
		delete(replaced, &img[0])
	}
	for _, pgno := range replaced {
		t.Errorf("page %d's image at the reader's mark was not released once it closed", pgno)
	}
}

// TestPagerCacheHoldsLatestVersionsAcrossRounds: sessions committing in
// groups and legacy transactions, with a background checkpointer
// recycling what its rounds retire, leave the pager cache holding each
// page's latest version — the log's own image — never one a round could
// have handed back to a writer (the session's Install path included).
func TestPagerCacheHoldsLatestVersionsAcrossRounds(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true,
		GroupCommit: 4, BackgroundCheckpoint: true, CheckpointLimit: 100})
	defer d.Close()
	errs := make(chan error, 5)
	for g := 0; g < 5; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 300 && err == nil; i++ {
				k, v := recycleKey(g*37+i*5), bumpValue(g*1000+i)
				if g == 0 {
					var tx *Tx
					if tx, err = d.Begin(); err == nil {
						if _, err = tx.Update("t", k, v); err != nil {
							tx.Rollback()
						} else if err = tx.Commit(); errors.Is(err, ErrCheckpointDeferred) {
							err = nil
						}
					}
					continue
				}
				err = d.RunConcurrent(context.Background(), func(tx *CTx) error {
					_, err := tx.Update("t", k, v)
					return err
				})
			}
			errs <- err
		}(g)
	}
	for g := 0; g < 5; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if rounds := d.Metrics().Count(metrics.Checkpoints); rounds < 3 {
		t.Fatalf("only %d rounds ran", rounds)
	}
	if err := d.acquireSlot(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer d.releaseSlot()
	pages, err := d.pg.PageCount()
	if err != nil {
		t.Fatal(err)
	}
	for pgno := uint32(1); pgno <= pages; pgno++ {
		cached, err := d.pg.Get(pgno)
		if err != nil {
			t.Fatal(err)
		}
		latest, _, err := d.nv.PageImageAt(pgno, pager.Latest)
		if err != nil {
			t.Fatal(err)
		}
		if latest != nil && &cached[0] != &latest[0] {
			t.Errorf("the pager cache holds page %d in an image that is not its latest version", pgno)
		}
	}
}

// TestCatalogFollowsDDLAcrossRecycledRounds: a reader parses page 1's
// catalog, a DDL replaces that image, a round retires it alone and
// releases it, and the next DDL copies page 1 into that very image. Both
// Tables() and a fresh ReadTx must then see exactly the new catalog — a
// memo keyed on the image's address would hand them the first one.
func TestCatalogFollowsDDLAcrossRecycledRounds(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1})
	want := map[string]bool{"t": true}
	check := func(step string) {
		t.Helper()
		names, err := d.Tables()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(names) != fmt.Sprint(sortedTables(want)) {
			t.Fatalf("%s: Tables() = %v, want %v", step, names, sortedTables(want))
		}
		r, err := d.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for _, name := range []string{"t", "u0", "u1", "u2", "u3", "u4", "u5"} {
			if _, err := r.Count(name); (err == nil) != want[name] {
				t.Fatalf("%s: a ReadTx counts %q: %v, want visible=%v", step, name, err, want[name])
			}
		}
	}
	type step struct {
		create bool
		name   string
	}
	ddl := func(st step) {
		t.Helper()
		create, name := st.create, st.name
		if create {
			if err := d.CreateTable(name); err != nil {
				t.Fatal(err)
			}
			want[name] = true
			return
		}
		if err := d.DropTable(name); err != nil {
			t.Fatal(err)
		}
		delete(want, name)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	steps := []step{{true, "u0"}, {true, "u1"}, {true, "u2"}, {false, "u0"}, {true, "u3"}, {false, "u1"}}
	for i := 0; i < len(steps); i += 2 {
		check(fmt.Sprintf("before DDL %d", i))
		ddl(steps[i])
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ddl(steps[i+1])
		check(fmt.Sprintf("after DDL %d", i+1))
	}
}

func sortedTables(set map[string]bool) []string {
	var out []string
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestExportPagesOutlivesRounds: a re-seed snapshot is its own copy once
// ExportPages returns and unpins — rounds that recycle the images it was
// captured from, and writers copying pages into them, leave it intact.
func TestExportPagesOutlivesRounds(t *testing.T) {
	d := recycleDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff(), CheckpointLimit: -1})
	snap, err := d.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(snap.Pages))
	for i, pg := range snap.Pages {
		want[i] = bytes.Clone(pg.Data)
	}
	for n := 0; n < 3*recycleKeys; n++ {
		mustCommitKV(t, d, "t", map[string]string{string(recycleKey(n)): string(bumpValue(n))})
		if n%recycleKeys == recycleKeys-1 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, pg := range snap.Pages {
		if !bytes.Equal(pg.Data, want[i]) {
			t.Fatalf("snapshot page %d changed after it was captured", pg.Pgno)
		}
	}
}
