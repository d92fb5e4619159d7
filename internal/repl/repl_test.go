package repl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/server"
)

func testClusterConfig() platform.Config {
	return platform.Config{
		NVRAM: nvram.Config{
			Size:              16 << 20,
			CacheLineSize:     32,
			NVRAMWriteLatency: 500 * time.Nanosecond,
		},
	}
}

func newTestCluster(t *testing.T, names ...string) *Cluster {
	t.Helper()
	c, err := NewCluster(testClusterConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 11, names...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// replicaLog is the journal of the replica's database.
func replicaLog(r *Replica) *core.NVWAL { return r.db.Journal().(*core.NVWAL) }

// headerPage is page 1 of a database pages long with no tables: a page a
// replica's database reopens over, which a hand-built seed must ship.
func headerPage(pages uint32) []byte {
	img := make([]byte, 4096)
	copy(img, "NVWALDB1")
	binary.LittleEndian.PutUint32(img[12:], pages)
	return img
}

// markOf is the mark of d's journal.
func markOf(d *db.DB) int { return d.Journal().(*core.NVWAL).Mark() }

func startPrimaryWithTable(t *testing.T, c *Cluster, name string, epoch uint64, acks int) *PrimaryNode {
	t.Helper()
	pn, err := c.StartPrimary(name, DefaultDBOptions(), PrimaryOptions{Epoch: epoch, AckReplicas: acks}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	return pn
}

func TestReplicaFollowsAndServesReads(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")

	cli := server.NewClient(c.Dialer("cli"), []string{"n0", "n1"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 30; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// Semi-sync with AckReplicas=1: every acked write is already on
	// the replica — read it back directly.
	for i := 0; i < 30; i++ {
		v, found, err := rn.R.Get("kv", []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("replica read k%03d = %q found=%v err=%v", i, v, found, err)
		}
	}
	// And through the replica's read-only front-end.
	rcli := server.NewClient(c.Dialer("cli2"), []string{"n1"}, server.ClientOptions{ReadAnywhere: true})
	defer rcli.Close()
	v, found, err := rcli.Get("kv", []byte("k007"))
	if err != nil || !found || string(v) != "v7" {
		t.Fatalf("front-end replica read = %q found=%v err=%v", v, found, err)
	}
	// Writes to the replica endpoint are refused as read-only.
	wcli := server.NewClient(c.Dialer("cli3"), []string{"n1"}, server.ClientOptions{ReadAnywhere: true, RetryBudget: 2, BackoffMax: time.Millisecond})
	defer wcli.Close()
	if _, err := wcli.Put("kv", []byte("x"), []byte("y")); err == nil {
		t.Fatal("write accepted by a replica endpoint")
	}
	st := pn.Repl.Status()
	if st.Role != "primary" || st.Lag != 0 {
		t.Fatalf("primary status after semi-sync writes: %+v", st)
	}
}

func TestReplicaResumesFromCursorAfterRestart(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("a%d", i)), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replica never caught up before restart")
	}
	seedsBefore := pn.Node.M.Count(metrics.ReplReseeds)
	rn.Stop()

	// Writes continue while the replica is down.
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("b%d", i)), []byte("2")); err != nil {
			t.Fatal(err)
		}
	}
	rn2, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn2.Stop()
	if !rn2.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("restarted replica never caught up")
	}
	if v, found, err := rn2.R.Get("kv", []byte("b9")); err != nil || !found || string(v) != "2" {
		t.Fatalf("post-restart read = %q found=%v err=%v", v, found, err)
	}
	if got := pn.Node.M.Count(metrics.ReplReseeds); got != seedsBefore {
		t.Fatalf("restart with a valid cursor re-seeded: %d -> %d", seedsBefore, got)
	}
}

func TestDivergenceLatchesDegradedUntilReseed(t *testing.T) {
	c := newTestCluster(t, "n1")
	node := c.Node("n1")
	r, err := NewReplica(node.Plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Seed a minimal state directly.
	seed := seedMsg{
		incarnation: 1,
		mark:        3,
		pageSize:    4096,
		pages:       []seedPage{{pgno: 1, data: make([]byte, 4096)}},
	}
	if a := r.applySeed(seed); !a.ok {
		t.Fatal("seed refused")
	}
	// A batch whose declared chain does not match what the replica
	// folds is divergence: latch + nack.
	batch := core.ExportBatch{From: 3, To: 4, Frames: []core.ExportFrame{
		{Pgno: 2, Full: true, Payload: []byte("payload")},
	}}
	f := framesMsg{incarnation: 1, batch: batch, endChain: 0xdeadbeef}
	if a, _ := r.applyFrames(f); a.ok {
		t.Fatal("diverged batch accepted")
	}
	if r.Degraded() == nil {
		t.Fatal("divergence did not latch degraded")
	}
	if node.M.Count(metrics.ReplDivergences) != 1 {
		t.Fatalf("divergence counter = %d", node.M.Count(metrics.ReplDivergences))
	}
	if !r.Status().Degraded {
		t.Fatal("status does not report degraded")
	}
	// Degraded still serves reads at the applied mark, but refuses
	// further frame batches.
	good := framesMsg{incarnation: 1, batch: batch, endChain: core.ChainExport(r.pos.Chain, batch)}
	if a, _ := r.applyFrames(good); a.ok {
		t.Fatal("degraded replica accepted frames")
	}
	// Only a full re-seed heals the latch.
	seed.mark = 10
	if a := r.applySeed(seed); !a.ok {
		t.Fatal("healing seed refused")
	}
	if r.Degraded() != nil || r.Applied() != 10 {
		t.Fatalf("re-seed did not heal: degraded=%v applied=%d", r.Degraded(), r.Applied())
	}
}

// TestFailoverPreservesAckedWrites: every write the semi-sync quorum
// (1 of 2 replicas) acknowledged survives the crash of the primary and
// the promotion of the most-caught-up replica, for a short run and for
// 400 writes.
func TestFailoverPreservesAckedWrites(t *testing.T) {
	for _, n := range []int{25, 400} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { failoverPreservesAckedWrites(t, n) })
	}
}

func failoverPreservesAckedWrites(t *testing.T, n int) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	r1, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.StartReplica("n2", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn.Attach(c, "n1")
	pn.Attach(c, "n2")

	cli := server.NewClient(c.Dialer("cli"), []string{"n0", "n1", "n2"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < n; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("acked write %d failed: %v", i, err)
		}
	}

	// Crash the primary: black-hole its links (the externally visible
	// instant), power-fail the machine, tear down its processes.
	c.IsolateNode("n0")
	pn.Node.Plat.PowerFail(memsim.FailDropAll, 99)
	pn.Stop(true)

	// Promote the most-caught-up replica; fence with a new epoch.
	best, loser := r1, r2
	if r2.R.Applied() > r1.R.Applied() {
		best, loser = r2, r1
	}
	bestName := best.Node.Name
	best.Stop()
	d2, err := best.R.Promote(DefaultDBOptions())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	pn2, err := c.ServePromoted(bestName, d2, PrimaryOptions{Epoch: 2, AckReplicas: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pn2.Stop(false)
	pn2.Attach(c, loser.Node.Name)

	// Every client-acked write survived onto the new primary.
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		v, found, err := pn2.Repl.Get("kv", key)
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked write k%03d lost in failover: %q found=%v err=%v", i, v, found, err)
		}
	}
	// The new primary accepts writes at the new epoch; the client
	// adopts it transparently.
	if _, err := cli.Put("kv", []byte("post-failover"), []byte("ok")); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if cli.Epoch() != 2 {
		t.Fatalf("client did not adopt the promotion epoch: %d", cli.Epoch())
	}
	// The surviving replica re-seeds under the new incarnation and
	// catches up.
	if !loser.WaitCaughtUp(pn2.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("surviving replica never caught up with the new primary")
	}
	v, found, err := loser.R.Get("kv", []byte("post-failover"))
	if err != nil || !found || string(v) != "ok" {
		t.Fatalf("replica under new primary: %q found=%v err=%v", v, found, err)
	}
}

func TestReplicaSurvivesPowerFailure(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 15; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Power-fail the REPLICA mid-life and reboot it.
	rn.Stop()
	rn.Node.Plat.PowerFail(memsim.FailDropAll, 7)
	if err := rn.Node.Plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	rn2, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatalf("replica reopen after power failure: %v", err)
	}
	defer rn2.Stop()

	// More writes, then the replica must converge (resume or re-seed —
	// either is correct; the data is what matters).
	for i := 15; i < 30; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !rn2.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("rebooted replica never caught up")
	}
	for i := 0; i < 30; i++ {
		if _, found, err := rn2.R.Get("kv", []byte(fmt.Sprintf("k%d", i))); err != nil || !found {
			t.Fatalf("k%d missing after replica power failure: found=%v err=%v", i, found, err)
		}
	}
}

func TestClusterMetricsAggregateAcrossNodeLabels(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	r1, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	r2, err := c.StartReplica("n2", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()
	pn.Attach(c, "n1")
	pn.Attach(c, "n2")

	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !r1.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) || !r2.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replicas never caught up")
	}
	// Applied on the replicas is not yet acknowledged on the primary: the
	// counters below stand still only once both acks have been processed.
	if !waitFor(t, 5*time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
		t.Fatal("primary never saw the last acks")
	}

	labels := c.Registry.Labels()
	want := map[string]bool{"n0": false, "n1": false, "n2": false, "net": false}
	for _, l := range labels {
		if _, ok := want[l]; ok {
			want[l] = true
		}
	}
	for l, seen := range want {
		if !seen {
			t.Fatalf("label %q missing from registry (have %v)", l, labels)
		}
	}

	// Per-label: shipping counters live on the primary's label,
	// apply counters on the replicas'.
	if c.Registry.Snapshot("n0").Count(metrics.ReplBatchesShipped) == 0 {
		t.Fatal("primary label has no shipped batches")
	}
	if c.Registry.Snapshot("n1").Count(metrics.ReplBatchesApplied) == 0 ||
		c.Registry.Snapshot("n2").Count(metrics.ReplBatchesApplied) == 0 {
		t.Fatal("replica labels have no applied batches")
	}
	if c.Registry.Snapshot("net").Count(metrics.NetMessages) == 0 {
		t.Fatal("net label has no messages")
	}

	// Aggregate reassembles the whole-cluster view: each counter is
	// the sum over labels.
	agg := c.Registry.Aggregate()
	for _, key := range []string{
		metrics.ReplBatchesShipped, metrics.ReplBatchesApplied,
		metrics.ReplAcks, metrics.ServerRequests, metrics.NetMessages,
	} {
		var sum int64
		for _, l := range labels {
			sum += c.Registry.Snapshot(l).Count(key)
		}
		if agg.Count(key) != sum || sum == 0 {
			t.Fatalf("aggregate %s = %d, want non-zero sum %d", key, agg.Count(key), sum)
		}
	}
}

func TestPrimaryApplyIndeterminateWhenReplicasUnreachable(t *testing.T) {
	// The ack wait ends at the primary's own AckTimeout or when the
	// caller gives up, whichever comes first.
	for _, tc := range []struct {
		name                string
		ackTimeout, callerT time.Duration
	}{
		{"ack-timeout", 50 * time.Millisecond, time.Minute},
		{"caller-deadline", time.Minute, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCluster(t, "n0", "n1")
			pn, err := c.StartPrimary("n0", DefaultDBOptions(),
				PrimaryOptions{Epoch: 1, AckReplicas: 1, AckTimeout: tc.ackTimeout},
				server.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer pn.Stop(false)
			if err := pn.DB.CreateTable("kv"); err != nil {
				t.Fatal(err)
			}
			// Replica attached but the node is isolated: commits succeed
			// locally but the ack quorum cannot form.
			rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer rn.Stop()
			pn.Attach(c, "n1")
			c.IsolateNode("n1")

			ctx, cancel := context.WithTimeout(t.Context(), tc.callerT)
			defer cancel()
			start := time.Now()
			_, aerr := pn.Repl.Apply(ctx, "kv", []server.Op{{Key: []byte("k"), Value: []byte("v")}})
			if !errors.Is(aerr, server.ErrIndeterminate) {
				t.Fatalf("ack-starved apply = %v, want ErrIndeterminate", aerr)
			}
			if waited := time.Since(start); waited > 10*time.Second {
				t.Fatalf("ack wait took %v: the shorter deadline did not end it", waited)
			}
			// The write IS durable locally — indeterminate, not lost.
			if v, found, _ := pn.Repl.Get("kv", []byte("k")); !found || string(v) != "v" {
				t.Fatal("locally committed write missing")
			}
		})
	}
}

// TestReplicaCatalogParsedOncePerVersion: replica reads are the
// database's pooled snapshot reads, resolving tables through its memoised
// catalog of the applied page-1 image — repeated GETs (and updates that
// leave page 1 alone) parse nothing and allocate only the value they
// return, and a DDL shipped from the primary is seen by the next read.
func TestReplicaCatalogParsedOncePerVersion(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	put := func(table, k, v string) {
		t.Helper()
		if _, err := cli.Put(table, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(table, k, want string) {
		t.Helper()
		if v, found, err := rn.R.Get(table, []byte(k)); err != nil || !found || string(v) != want {
			t.Fatalf("replica %s[%s] = %q found=%v err=%v, want %q", table, k, v, found, err, want)
		}
	}
	// A read that parsed the catalog again, or copied a page the log
	// holds, would allocate more than the value it returns.
	checkReadAllocs := func(when string) {
		t.Helper()
		if raceEnabled {
			return // the race detector drops pooled read transactions at random
		}
		if a, b := alloctest.PerRun(50, func() { _, _, _ = rn.R.Get("kv", []byte("k")) }); a > 1.05 || b >= 2048 {
			t.Fatalf("%s a replica read allocated %.2f times and %.0f bytes, want only the value copy", when, a, b)
		}
	}

	put("kv", "k", "v1")
	get("kv", "k", "v1")
	put("kv", "k", "v2") // no allocation: page 1 unchanged
	get("kv", "k", "v2")
	checkReadAllocs("before a DDL")
	if err := pn.DB.CreateTable("kv2"); err != nil {
		t.Fatal(err)
	}
	put("kv2", "a", "b") // ships the DDL's frames ahead of it (semi-sync)
	get("kv2", "a", "b")
	get("kv", "k", "v2")
	checkReadAllocs("after a DDL")
	if _, shared, err := replicaLog(rn.R).PageImageAt(1, replicaLog(rn.R).Mark()); err != nil || !shared {
		t.Fatal("the replica's log does not hold the DDL's page 1")
	}
}

// TestReplicaFollowsTableDropAndRecreate: the primary drops a table and
// creates it again. Drop frees the root last, so the freelist hands the
// old root to a table created in between and the new table's root moves.
// Replica reads find no table while it is gone, then only the new table's
// records: never a tree of the dropped one, nor the other table's under
// the old root.
func TestReplicaFollowsTableDropAndRecreate(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	// put commits through the primary; semi-sync, so the replica has
	// applied it, and every DDL before it, when put returns.
	put := func(table string, i int, v string) {
		t.Helper()
		ops := []server.Op{{Key: []byte(fmt.Sprintf("k%04d", i)), Value: []byte(v)}}
		if _, err := pn.Repl.Apply(context.Background(), table, ops); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() (n int, v string) {
		t.Helper()
		if err := rn.R.Scan("kv", func(_, val []byte) bool { n, v = n+1, string(val); return true }); err != nil {
			t.Fatal(err)
		}
		return n, v
	}
	old := fmt.Sprintf("old-%0100d", 0)
	for i := 0; i < 200; i++ { // several leaves under the root
		put("kv", i, old)
	}
	if n, _ := scan(); n != 200 {
		t.Fatalf("replica scan before the drop saw %d records, want 200", n)
	}

	if err := pn.DB.DropTable("kv"); err != nil {
		t.Fatal(err)
	}
	if err := pn.DB.CreateTable("pad"); err != nil { // takes the old root
		t.Fatal(err)
	}
	put("pad", 0, "pad")
	if _, _, err := rn.R.Get("kv", []byte("k0000")); !errors.Is(err, db.ErrNoTable) {
		t.Fatalf("replica read of the dropped table = %v, want ErrNoTable", err)
	}

	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	put("kv", 7, "new")
	if n, v := scan(); n != 1 || v != "new" {
		t.Fatalf("replica scan of the re-created table saw %d records (last %q), want the 1 new one", n, v)
	}
	if _, found, err := rn.R.Get("kv", []byte("k0000")); err != nil || found {
		t.Fatalf("replica read a dropped record: found=%v err=%v", found, err)
	}
	if v, found, err := rn.R.Get("kv", []byte("k0007")); err != nil || !found || string(v) != "new" {
		t.Fatalf("replica read of the new record = %q found=%v err=%v", v, found, err)
	}
	if v, found, err := rn.R.Get("pad", []byte("k0000")); err != nil || !found || string(v) != "pad" {
		t.Fatalf("replica read of the table at the old root = %q found=%v err=%v", v, found, err)
	}
}
