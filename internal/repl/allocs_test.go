package repl

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/server"
)

// startAllocsPair starts a semi-sync primary with table "kv" and no
// checkpoint limit, so no round runs in a measured loop, and one replica
// attached to it.
func startAllocsPair(t *testing.T) (*PrimaryNode, *ReplicaNode, *Cluster) {
	t.Helper()
	c := newTestCluster(t, "n0", "n1")
	opts := DefaultDBOptions()
	opts.CheckpointLimit = -1
	pn, err := c.StartPrimary("n0", opts, PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pn.Stop(false) })
	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rn.Stop)
	pn.Attach(c, "n1")
	return pn, rn, c
}

// TestReplicaApplyAllocs holds a replica's apply path alone: a primary's
// batches, one 100 B update each, are cut beforehand and handed to a
// caught-up replica in-process, so neither the primary's commit nor the
// wire is measured. Counted per applied page, a page costs at most one
// image copy: the clone of the journal's current image that the batch
// patches and the journal then keeps as the page's new version.
func TestReplicaApplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	pn, rn, _ := startAllocsPair(t)
	const keys, warm, runs = 200, 16, 300
	val := make([]byte, 100)
	var eng server.Engine = pn.Repl
	write := func(i int) {
		val[0] = byte(i)
		if _, err := eng.Apply(context.Background(), "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%05d", i%keys)), Value: val}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		write(i)
	}
	// Semi-sync, quorum 1 of 1: the replica has applied every write. Stop
	// the shipping, commit locally and play the primary by hand from here.
	pn.Repl.Close()
	eng = server.NewDBEngine(pn.DB, 1)
	// warm batches, PerRun's warm-up call, then the measured ones.
	batches := make([]core.ExportBatch, 0, warm+1+runs)
	pages := 0
	for i := 0; i < cap(batches); i++ {
		write(keys + i*7)
		from := rn.R.Applied()
		if n := len(batches); n > 0 {
			from = batches[n-1].To
		}
		b, ok, err := pn.DB.ExportSince(from, markOf(pn.DB), nil)
		if err != nil || !ok {
			t.Fatalf("export from %d: ok=%v err=%v", from, ok, err)
		}
		batches = append(batches, b)
		if i > warm {
			seen := map[uint32]bool{}
			for _, fr := range b.Frames {
				seen[fr.Pgno] = true
			}
			pages += len(seen)
		}
	}
	next := 0
	apply := func() {
		if !rn.R.ApplyBatch(1, batches[next]) {
			t.Fatalf("replica refused batch %d [%d,%d)", next, batches[next].From, batches[next].To)
		}
		next++
	}
	for range warm {
		apply()
	}
	allocs, bytes := alloctest.PerRun(runs, apply)
	for _, b := range batches {
		if len(b.Frames) > 0 {
			pn.DB.ExportDone()
		}
	}
	perPage := float64(runs) / float64(pages)
	allocs, bytes = allocs*perPage, bytes*perPage
	t.Logf("replica apply: %d pages in %d batches, %.3f allocs, %.0f bytes per page", pages, runs, allocs, bytes)
	if allocs > 0.78 || bytes > 5134 {
		t.Fatalf("a replica allocates %.3f times and %.0f bytes per applied page, want at most 0.78 and 5134: a staging copy or per-batch bookkeeping is back", allocs, bytes)
	}
}

// TestReplicatedPutAllocs holds a served, replicated write whole: one
// Client.Put over the simulated network to a semi-sync primary, its
// commit, the batch shipped to the replica, the replica's apply and ack,
// and the response. What a write must allocate is its messages' copies,
// the page images the primary and the replica keep and the client's
// protocol buffers; the rest of the path is state its owners re-arm.
func TestReplicatedPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, _, c := startAllocsPair(t)
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	keys := make([][]byte, 200)
	val := make([]byte, 100)
	for i := range keys { // every key's leaf exists before the measurement
		keys[i] = []byte(fmt.Sprintf("k%05d", i))
		if _, err := cli.Put("kv", keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs, bytes := alloctest.PerRun(300, func() {
		i++
		val[0] = byte(i)
		if _, err := cli.Put("kv", keys[i*7%len(keys)], val); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("replicated put: %.2f allocs/op, %.0f bytes/op", allocs, bytes)
	if allocs > 4 {
		t.Fatalf("a replicated PUT allocates %.2f times, want at most 4", allocs)
	}
}
