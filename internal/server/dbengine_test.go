package server

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// TestDeferredRoundDoesNotFailDurableWrite: on the served path a write
// that crosses a checkpoint boundary is acknowledged with its seq whatever
// becomes of the inline round behind it. A round that fails on a transient
// device error is counted and retried by the next due commit; one that
// fails on dead media latches the database degraded, which Status shows —
// and in neither case did the client see an error for a write that exists.
func TestDeferredRoundDoesNotFailDurableWrite(t *testing.T) {
	const limit = 8
	open := func(t *testing.T) (*platform.Platform, *db.DB, *Client) {
		plat, err := platform.NewTuna()
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.Open(plat, "srv.db", db.Options{
			Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: limit,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Abandon)
		if err := d.CreateTable("kv"); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		_, dial := startSim(t, NewDBEngine(d, 0), Options{Pressure: d.Pressure})
		cli := NewClient(dial, []string{"srv"}, ClientOptions{})
		t.Cleanup(cli.Close)
		return plat, d, cli
	}
	// toBoundary writes until the next PUT is the one that makes a round
	// due, and returns that PUT's key.
	toBoundary := func(t *testing.T, d *db.DB, cli *Client, tag string) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("%s%03d", tag, i)
			if d.Journal().FramesSinceCheckpoint() >= limit-1 {
				return key
			}
			if _, err := cli.Put("kv", []byte(key), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	failed := func(plat *platform.Platform) int64 { return plat.Metrics.Count(metrics.CheckpointErrors) }

	t.Run("transient", func(t *testing.T) {
		plat, d, cli := open(t)
		key := toBoundary(t, d, cli, "a")
		rounds := plat.Metrics.Count(metrics.Checkpoints)
		plat.Flash.FailNextSyncs(3) // one more than the retry policy absorbs
		seq, err := cli.Put("kv", []byte(key), []byte("boundary"))
		if err != nil || seq == 0 {
			t.Fatalf("boundary PUT = (seq %d, %v): a failed round failed a durable write", seq, err)
		}
		if failed(plat) != 1 || plat.Metrics.Count(metrics.Checkpoints) != rounds {
			t.Fatalf("%d failed rounds counted, %d completed; want 1, 0", failed(plat), plat.Metrics.Count(metrics.Checkpoints)-rounds)
		}
		if st, err := cli.Status(); err != nil || st.Degraded {
			t.Fatalf("a transient failure degraded the server: %+v, %v", st, err)
		}
		// The next commit finds the round still due and completes it.
		if _, err := cli.Put("kv", []byte("after"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if plat.Metrics.Count(metrics.Checkpoints) != rounds+1 || failed(plat) != 1 {
			t.Fatalf("the next due commit did not retry the round: %d rounds, %d failures",
				plat.Metrics.Count(metrics.Checkpoints)-rounds, failed(plat))
		}
		if v, found, err := cli.Get("kv", []byte(key)); err != nil || !found || string(v) != "boundary" {
			t.Fatalf("boundary write reads %q found=%v err=%v", v, found, err)
		}
	})

	t.Run("permanent", func(t *testing.T) {
		plat, d, cli := open(t)
		key := toBoundary(t, d, cli, "b")
		f, err := plat.FS.Open("srv.db")
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range f.Extents() {
			plat.Flash.MarkBad(pg)
		}
		seq, err := cli.Put("kv", []byte(key), []byte("boundary"))
		if err != nil || seq == 0 {
			t.Fatalf("boundary PUT = (seq %d, %v): a failed round failed a durable write", seq, err)
		}
		if failed(plat) != 1 {
			t.Fatalf("%d failed rounds counted, want 1", failed(plat))
		}
		if st, err := cli.Status(); err != nil || !st.Degraded {
			t.Fatalf("dead media behind the round is not visible in Status: %+v, %v", st, err)
		}
		// Degraded is read-only: the acknowledged write still reads back from
		// the log.
		if v, found, err := cli.Get("kv", []byte(key)); err != nil || !found || string(v) != "boundary" {
			t.Fatalf("boundary write reads %q found=%v err=%v", v, found, err)
		}
	})
}
