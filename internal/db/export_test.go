package db

import (
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
	cat := ParseCatalog(snap.Pages[0].Data)
	if _, ok := cat["kv"]; !ok {
		t.Fatalf("catalog in exported header lacks table kv: %v", cat)
	}

	// The incremental hook covers [0, Mark) gaplessly before any
	// checkpoint has retired frames.
	b, ok, err := d.ExportSince(0, nil)
	if err != nil || !ok {
		t.Fatalf("ExportSince(0) = ok=%v err=%v", ok, err)
	}
	if b.To != snap.Mark || len(b.Frames) != b.To {
		t.Fatalf("incremental range [%d,%d) with %d frames, want To=%d", b.From, b.To, len(b.Frames), snap.Mark)
	}
}
