package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
)

func TestExportPagesSnapshot(t *testing.T) {
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "exp.db", Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	tx, err := d.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tx.Insert("kv", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	snap, err := d.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Mark <= 0 || snap.PageSize <= 0 || len(snap.Pages) == 0 {
		t.Fatalf("degenerate snapshot: %+v", snap)
	}
	if snap.Pages[0].Pgno != 1 {
		t.Fatalf("snapshot must lead with the header page, got page %d", snap.Pages[0].Pgno)
	}
	cat, err := parseCatalog(snap.Pages[0].Data)
	if _, ok := cat["kv"]; err != nil || !ok {
		t.Fatalf("catalog in exported header lacks table kv: %v", cat)
	}

	// The incremental hook covers [0, Mark) gaplessly before any
	// checkpoint has retired frames.
	b, ok, err := d.ExportSince(0, d.nv.Mark(), nil)
	if err != nil || !ok {
		t.Fatalf("ExportSince(0) = ok=%v err=%v", ok, err)
	}
	if b.To != snap.Mark || len(b.Frames) != b.To {
		t.Fatalf("incremental range [%d,%d) with %d frames, want To=%d", b.From, b.To, len(b.Frames), snap.Mark)
	}
}

// TestImportFramesFollowsAnotherDatabase: a database that imports
// another's snapshot and then its frame batches holds that database's
// state and the position each import committed, which the snapshot's own
// page 1 does not overwrite. Its own tree cache from before is dropped —
// the import moved the table's root, and the old root now holds the other
// database's "pad" — and a batch with a frame that overruns its page
// applies nothing, position included.
func TestImportFramesFollowsAnotherDatabase(t *testing.T) {
	opts := Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()}
	src, _ := newDB(t, opts)
	dst, _ := newDB(t, opts)
	defer dst.Close()
	defer src.Close()
	at := func(want Position) {
		t.Helper()
		if pos, err := dst.ImportedPosition(); err != nil || pos != want {
			t.Fatalf("ImportedPosition = %+v err=%v, want %+v", pos, err, want)
		}
	}
	get := func(d *DB, want string) {
		t.Helper()
		if v, found, err := d.Get("t", []byte("k")); err != nil || !found || string(v) != want {
			t.Fatalf("Get = %q found=%v err=%v, want %q", v, found, err, want)
		}
		rt, err := d.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if v, found, err := rt.Get("t", []byte("k")); err != nil || !found || string(v) != want {
			t.Fatalf("snapshot Get = %q found=%v err=%v, want %q", v, found, err, want)
		}
	}
	for _, step := range []struct {
		d      *DB
		tables []string
	}{{dst, []string{"t"}}, {src, []string{"pad", "t"}}} {
		for _, table := range step.tables {
			if err := step.d.CreateTable(table); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCommitKV(t, dst, "t", map[string]string{"k": "dst"})
	get(dst, "dst") // caches dst's tree of "t"
	mustCommitKV(t, src, "t", map[string]string{"k": "src"})

	snap, err := src.ExportPages()
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]core.ExportFrame, len(snap.Pages))
	for i, pg := range snap.Pages {
		seed[i] = core.ExportFrame{Pgno: pg.Pgno, Full: true, Payload: pg.Data}
	}
	at(Position{})
	if err := dst.ImportFrames(seed, Position{Incarnation: 3, Applied: snap.Mark, Chain: 0xC0FFEE}); err != nil {
		t.Fatal(err)
	}
	get(dst, "src")
	at(Position{Incarnation: 3, Applied: snap.Mark, Chain: 0xC0FFEE})

	mustCommitKV(t, src, "t", map[string]string{"k": "src2"})
	b, ok, err := src.ExportSince(snap.Mark, src.nv.Mark(), nil)
	if err != nil || !ok {
		t.Fatalf("ExportSince(%d) = ok=%v err=%v", snap.Mark, ok, err)
	}
	if err := dst.ImportFrames(b.Frames, Position{Incarnation: 3, Applied: b.To, Chain: 1}); err != nil {
		t.Fatal(err)
	}
	get(dst, "src2")
	at(Position{Incarnation: 3, Applied: b.To, Chain: 1})

	// The first frame would wipe the catalog; the second fails the batch.
	overrun := []core.ExportFrame{{Pgno: 1, Full: true, Payload: []byte{0}}, {Pgno: 2, Off: PageSize - 8, Payload: make([]byte, 16)}}
	if err := dst.ImportFrames(overrun, Position{}); err == nil {
		t.Fatal("a frame that overruns its page was imported")
	}
	get(dst, "src2")
	at(Position{Incarnation: 3, Applied: b.To, Chain: 1})
	if err := dst.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCatalogIsAnError: a page 1 whose catalog lists more tables
// than the page holds, or one table twice, reaches the engine as an
// imported frame (a replica's shipped page 1). Every reader of the
// catalog — a tree open, CreateTable, DropTable, a snapshot's tree open —
// reports it rather than slicing past the page or hiding a table.
func TestCorruptCatalogIsAnError(t *testing.T) {
	count := func(n uint16) core.ExportFrame {
		return core.ExportFrame{Pgno: 1, Off: catalogOff, Payload: binary.LittleEndian.AppendUint16(nil, n)}
	}
	for _, tc := range []struct {
		name  string
		patch core.ExportFrame
	}{
		{"count 144", count(uint16(maxTables(PageSize)) + 1)},
		{"count 65535", count(65535)},
		// Rename the second entry, "kw", to "kv".
		{"duplicate name", core.ExportFrame{Pgno: 1, Off: catalogOff + 2 + tableEntry + 1, Payload: []byte("v")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := newDB(t, Options{Journal: JournalNVWAL, NVWAL: core.VariantUHLSDiff()})
			defer d.Close()
			for _, table := range []string{"kv", "kw"} {
				if err := d.CreateTable(table); err != nil {
					t.Fatal(err)
				}
			}
			mustCommitKV(t, d, "kv", map[string]string{"k": "v"})
			if err := d.ImportFrames([]core.ExportFrame{tc.patch}, Position{}); err != nil {
				t.Fatal(err)
			}
			check := func(op string, err error) {
				t.Helper()
				if !errors.Is(err, errCorruptCatalog) {
					t.Errorf("%s: err = %v, want a corrupt catalog", op, err)
				}
			}
			_, _, err := d.Get("kv", []byte("k"))
			check("Get", err)
			check("CreateTable", d.CreateTable("new"))
			check("DropTable", d.DropTable("kv"))
			rt, err := d.BeginRead()
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			_, _, err = rt.Get("kv", []byte("k"))
			check("ReadTx.Get", err)
		})
	}
}
