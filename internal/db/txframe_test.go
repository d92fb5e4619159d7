package db_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/platform"
)

// A legacy transaction's handle is built in its caller's frame: Begin and
// BeginCtx inline, and a caller that keeps the *Tx local keeps it on its
// stack. No handle is pooled or reused, so a stale one stays stale.

// openTxDB opens an NVWAL database with a table "t" holding key "k".
func openTxDB(t *testing.T, opts db.Options) *db.DB {
	t.Helper()
	plat, err := platform.NewNexus5()
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal, opts.NVWAL = db.JournalNVWAL, core.VariantUHLSDiff()
	d, err := db.Open(plat, "tx.db", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("t", []byte("k"), []byte("v0")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLegacyTxnAllocatesNothing: on a warm database, Begin → Update →
// Commit allocates nothing at all — not the handle, and not the page copy,
// which lands in a version the warm-up's checkpoint round retired. The
// checkpoint limit is above the loop, so no round runs inside it.
func TestLegacyTxnAllocatesNothing(t *testing.T) {
	if db.RaceEnabled() {
		t.Skip("the race detector allocates on its own account")
	}
	const runs = 100
	d := openTxDB(t, db.Options{CheckpointLimit: 100 * runs})
	val := []byte("0000000000")
	update := func() {
		val[0]++
		tx, err := d.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := tx.Update("t", []byte("k"), val); err != nil || !ok {
			t.Fatalf("Update = (%v, %v)", ok, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: enough commits that the round below retires a version for
	// every commit AllocsPerRun makes (runs, plus its own warm-up run).
	for range 2 * runs {
		update()
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, update); n != 0 {
		t.Fatalf("a warm legacy transaction allocates %v times, want 0", n)
	}
}

// TestStaleTxAfterNextBegin: a handle kept past its Commit or Rollback
// answers ErrNoTxn while the next Begin's transaction is open in the same
// function, and leaves that transaction as it was.
func TestStaleTxAfterNextBegin(t *testing.T) {
	for _, end := range []string{"commit", "rollback"} {
		t.Run(end, func(t *testing.T) {
			d := openTxDB(t, db.Options{})
			stale, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := stale.Insert("t", []byte("stale"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if end == "commit" {
				err = stale.Commit()
			} else {
				stale.Rollback()
			}
			if err != nil {
				t.Fatal(err)
			}
			tx, err := d.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if tx == stale {
				t.Fatal("Begin handed back the ended transaction's handle")
			}
			if err := tx.Insert("t", []byte("live"), []byte("2")); err != nil {
				t.Fatal(err)
			}
			if err := stale.Insert("t", []byte("ghost"), []byte("3")); !errors.Is(err, db.ErrNoTxn) {
				t.Fatalf("stale Insert = %v, want ErrNoTxn", err)
			}
			if err := stale.Commit(); !errors.Is(err, db.ErrNoTxn) {
				t.Fatalf("stale Commit = %v, want ErrNoTxn", err)
			}
			stale.Rollback() // a no-op on an ended handle
			if v, ok, err := tx.Get("t", []byte("live")); err != nil || !ok || string(v) != "2" {
				t.Fatalf("open transaction's own write = (%q, %v, %v)", v, ok, err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("open transaction's Commit after the stale calls: %v", err)
			}
			want := map[string]string{"k": "v0", "live": "2", "stale": "1"}
			if end == "rollback" {
				delete(want, "stale")
			}
			for _, k := range []string{"k", "live", "stale", "ghost"} {
				v, ok, err := d.Get("t", []byte(k))
				if err != nil {
					t.Fatal(err)
				}
				if w, in := want[k]; ok != in || string(v) != w {
					t.Fatalf("after commit %s = (%q, %v), want (%q, %v)", k, v, ok, w, in)
				}
			}
		})
	}
}
