package db

import (
	"context"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// recoveredWithPendingLeaf builds a database whose table "t" is one leaf,
// checkpoints it, rewrites a = "2" (a differential frame over the
// backfilled leaf) and cuts power: after the reboot the leaf is a pending
// page whose base is the database file's copy, which still says a = "1".
func recoveredWithPendingLeaf(t *testing.T) (*platform.Platform, uint32) {
	t.Helper()
	plat, err := platform.NewTuna()
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", faultOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "1")
	mustCommit(t, d, "t", "b", "1")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, d, "t", "a", "2")
	cat, err := d.readCatalog()
	if err != nil {
		t.Fatal(err)
	}
	d.Abandon()
	plat.PowerFail(memsim.FailDropAll, 1)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	return plat, cat["t"]
}

// TestRecoveredPageUnreadableBaseDegradesAtFirstTouch: a recovered page
// whose database-file block went bad does not fail the open. Its first
// read returns the device error, the database degrades read-only from
// then on, and no read — latest or snapshot, first or later — ever answers
// with the file's stale copy. One transient failure on that first read is
// retried and never seen.
func TestRecoveredPageUnreadableBaseDegradesAtFirstTouch(t *testing.T) {
	t.Run("permanent", func(t *testing.T) {
		plat, leaf := recoveredWithPendingLeaf(t)
		f, err := plat.FS.Open("test.db")
		if err != nil {
			t.Fatal(err)
		}
		plat.Flash.MarkBad(f.Extents()[leaf-1])
		d, err := Open(plat, "test.db", faultOpts())
		if err != nil {
			t.Fatalf("open over a pending page with a bad base: %v", err)
		}
		defer d.Abandon()
		if err := d.Degraded(); err != nil {
			t.Fatalf("degraded at open, before anything read the page: %v", err)
		}
		for i := 0; i < 2; i++ {
			v, _, err := d.Get("t", []byte("a"))
			if !errors.Is(err, blockdev.ErrIO) {
				t.Fatalf("read %d of the page = (%q, %v), want the device error", i, v, err)
			}
		}
		if _, err := d.Begin(); !errors.Is(err, ErrDegraded) {
			t.Fatalf("Begin after the failed first touch = %v, want ErrDegraded", err)
		}
		rt, err := d.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		if v, _, err := rt.Get("t", []byte("b")); !errors.Is(err, blockdev.ErrIO) {
			t.Fatalf("snapshot read = (%q, %v), want the device error", v, err)
		}
	})
	t.Run("transient", func(t *testing.T) {
		plat, _ := recoveredWithPendingLeaf(t)
		d, err := Open(plat, "test.db", faultOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Abandon()
		retries := plat.Metrics.Count(metrics.IORetries)
		plat.Flash.FailNextReads(1)
		if v, ok, err := d.Get("t", []byte("a")); err != nil || !ok || string(v) != "2" {
			t.Fatalf("Get = (%q, %v, %v), want the committed \"2\"", v, ok, err)
		}
		if plat.Metrics.Count(metrics.IORetries) == retries {
			t.Fatal("the first touch's read was not the one that failed")
		}
		if err := d.Degraded(); err != nil {
			t.Fatalf("a retried transient failure degraded the database: %v", err)
		}
	})
}

// TestPendingPagesRaceReadersWritersAndCheckpointer is the read-view
// stress started right after a reopen over a log whose pages are all
// pending: the readers, the writers and the background checkpointer race
// to build them.
func TestPendingPagesRaceReadersWritersAndCheckpointer(t *testing.T) {
	// The rewrite logs about as many frames as the stress's checkpoint
	// limit: no background round may retire them before the power cut.
	setup := raceOpts()
	setup.CheckpointLimit = 1000
	d, plat := newDB(t, setup)
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 2; n++ {
		err := d.RunConcurrent(context.Background(), func(tx *CTx) error {
			for w := 0; w < raceWriters; w++ {
				for i := 0; i < raceSetSize; i++ {
					if err := tx.Insert("t", raceKey(w, i), raceVal(n)); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Abandon()
	plat.PowerFail(memsim.FailDropAll, 1)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	d, err := Open(plat, "test.db", raceOpts())
	if err != nil {
		t.Fatal(err)
	}
	if d.Journal().FramesSinceCheckpoint() == 0 {
		t.Fatal("the reopened log recovered no frames: nothing is pending")
	}
	raceReadersWritersCheckpointer(t, d)
}
