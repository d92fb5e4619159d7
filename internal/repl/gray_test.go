// Gray-failure resilience tests: automatic replica quarantine on
// ack-latency budget breach, hysteresis re-admit, semi-sync quorum
// degradation, and re-seed abort under staged double faults.
package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
)

// waitFor polls cond until it holds or the real-time deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestReplicaQuarantineAndReadmit(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn, err := c.StartPrimary("n0", DefaultDBOptions(),
		PrimaryOptions{Epoch: 1, AckReplicas: 1, AckBudget: 5 * time.Millisecond},
		server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	var replicas []*ReplicaNode
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		replicas = append(replicas, rn)
		pn.Attach(c, name)
	}

	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("w%03d", i)), []byte("v")); err != nil {
			t.Fatalf("warm write %d: %v", i, err)
		}
	}
	// Both replicas seeded and caught up before the link degrades: a
	// sender that first runs after the writes below would seed n1 at the
	// final mark and never ship it a batch to sample.
	for _, rn := range replicas {
		if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
			t.Fatal("replica not caught up after warm writes")
		}
	}

	// Gray-degrade n1's ack path: 20ms of virtual latency per ack, four
	// times the budget. The replica still works — it is merely slow.
	c.Net.SetLink(ReplAddr("n1"), "n0", netsim.Config{Latency: 20 * time.Millisecond})
	quarantined := func() bool {
		q := pn.Repl.Quarantined()
		return len(q) == 1 && q[0] == ReplAddr("n1")
	}
	for i := 0; i < 40 && !quarantined(); i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("s%03d", i)), []byte("v")); err != nil {
			t.Fatalf("write under slow replica: %v", err)
		}
	}
	if !waitFor(t, 2*time.Second, quarantined) {
		t.Fatalf("slow replica not quarantined; quarantined=%v ewma=%v",
			pn.Repl.Quarantined(), pn.Repl.AckLatencies())
	}
	// observeAck counts the transition just after it flips the flag.
	count := func(name string) int64 { return pn.Repl.DB().Metrics().Count(name) }
	if !waitFor(t, time.Second, func() bool { return count(metrics.ReplicaQuarantines) >= 1 }) {
		t.Fatalf("replica_quarantines = %d, want >= 1", count(metrics.ReplicaQuarantines))
	}

	// Shipping must continue to a quarantined replica: it keeps
	// receiving frames even while excluded from the quorum.
	mark := pn.Repl.Status().Mark
	if !replicas[0].WaitCaughtUp(mark, 5*time.Second) {
		t.Fatal("quarantined replica stopped receiving frames")
	}

	// Heal the link; good samples decay the EWMA below half the budget
	// and the replica is re-admitted.
	c.Net.SetLink(ReplAddr("n1"), "n0", netsim.Config{Latency: 20 * time.Microsecond})
	readmitted := func() bool { return len(pn.Repl.Quarantined()) == 0 }
	// Paced, not back-to-back: a quarantined link is outside the quorum,
	// so nothing makes a commit wait for its ack, and writes issued
	// faster than the link ships them reach it as one batch — one EWMA
	// sample however many commits it carries.
	for i := 0; i < 60 && !readmitted(); i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("h%03d", i)), []byte("v")); err != nil {
			t.Fatalf("write during heal: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !waitFor(t, 2*time.Second, readmitted) {
		t.Fatalf("healed replica not re-admitted; ewma=%v", pn.Repl.AckLatencies())
	}
	if !waitFor(t, time.Second, func() bool { return count(metrics.ReplicaReadmits) >= 1 }) {
		t.Fatalf("replica_readmits = %d, want >= 1", count(metrics.ReplicaReadmits))
	}
}

// TestQuarantineThresholds pins the quarantine rule, the link's
// health.Tracker against AckBudget: a link is quarantined once its ack
// EWMA is over the budget, not at it, and re-admitted once the EWMA is
// back at half the budget — at it, not only below it.
func TestQuarantineThresholds(t *testing.T) {
	const budget = 10 * time.Millisecond
	c := newTestCluster(t, "n0")
	pn, err := c.StartPrimary("n0", DefaultDBOptions(),
		PrimaryOptions{Epoch: 1, AckReplicas: 1, AckBudget: budget}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Stop(false)
	// A replica that never answers a dial: the samples below are the
	// link's only ones.
	pn.Repl.AddReplica("r", func(string) (netsim.Conn, error) { return nil, netsim.ErrNoPeer })
	rl := pn.Repl.links()[0]
	ewma := func() time.Duration { return pn.Repl.AckLatencies()["r"] }
	quarantined := func() bool {
		t.Helper()
		rl.mu.Lock()
		flag := rl.quarantined
		rl.mu.Unlock()
		if q := pn.Repl.Quarantined(); (len(q) == 1) != flag {
			t.Fatalf("the commit path's flag %v disagrees with Quarantined() %v", flag, q)
		}
		return flag
	}

	rl.observeAck(budget) // the first sample is the EWMA
	if ewma() != budget || quarantined() {
		t.Fatalf("EWMA %v at the budget: quarantined=%v, want admitted", ewma(), quarantined())
	}
	rl.observeAck(budget + 10*time.Nanosecond)
	if ewma() <= budget || !quarantined() {
		t.Fatalf("EWMA %v over the budget: quarantined=%v, want quarantined", ewma(), quarantined())
	}
	for i := 0; ewma() > budget/2; i++ {
		if !quarantined() {
			t.Fatalf("re-admitted at EWMA %v, over half the budget", ewma())
		}
		if i == 100 {
			t.Fatalf("EWMA stuck at %v, over half the budget", ewma())
		}
		rl.observeAck(budget / 2)
	}
	if ewma() != budget/2 || quarantined() {
		t.Fatalf("EWMA %v: quarantined=%v, want re-admitted at exactly half the budget", ewma(), quarantined())
	}
	if q, r := pn.Repl.m.Count(metrics.ReplicaQuarantines), pn.Repl.m.Count(metrics.ReplicaReadmits); q != 1 || r != 1 {
		t.Fatalf("quarantines=%d readmits=%d, want 1 and 1", q, r)
	}
}

func TestSemiSyncDegradesToAsyncWhenAllQuarantined(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn, err := c.StartPrimary("n0", DefaultDBOptions(),
		PrimaryOptions{Epoch: 1, AckReplicas: 1, AckBudget: 5 * time.Millisecond,
			AckTimeout: 10 * time.Second},
		server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")

	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	if _, err := cli.Put("kv", []byte("warm"), []byte("v")); err != nil {
		t.Fatalf("warm write: %v", err)
	}

	c.Net.SetLink(ReplAddr("n1"), "n0", netsim.Config{Latency: 50 * time.Millisecond})
	for i := 0; i < 40 && len(pn.Repl.Quarantined()) == 0; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("s%03d", i)), []byte("v")); err != nil {
			t.Fatalf("write %d while degrading: %v", i, err)
		}
	}
	if !waitFor(t, 2*time.Second, func() bool { return len(pn.Repl.Quarantined()) == 1 }) {
		t.Fatalf("only replica not quarantined; ewma=%v", pn.Repl.AckLatencies())
	}

	// Every quorum candidate is quarantined: commits must degrade to
	// async acks promptly instead of burning the 10s AckTimeout each.
	start := time.Now()
	if _, err := cli.Put("kv", []byte("degraded"), []byte("v")); err != nil {
		t.Fatalf("write with all replicas quarantined: %v", err)
	}
	if real := time.Since(start); real > 5*time.Second {
		t.Fatalf("degraded-quorum write took %v of real time — did it wait the full AckTimeout?", real)
	}
}

// TestReseedAbortsOnStagedDoubleFault stages the double fault the
// re-seed abort protects against: fault 1 opens an unhealable cursor
// gap (while the replica is away its backlog outgrows the retention
// budget, the link loses its pin and a checkpoint passes its cursor),
// forcing a full re-seed; fault 2 degrades the source before the copy.
// The sender must abort and re-schedule the seed — never ship a
// snapshot from a source that may stop serving snapshot reads mid-copy.
func TestReseedAbortsOnStagedDoubleFault(t *testing.T) {
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
	for i := 0; i < 20; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("a%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replica never caught up before the staged faults")
	}
	cursor := rn.R.Applied()
	rn.Stop()

	// Fault 1: the gap.
	outgrowSeedBudget(t, pn, cli, ReplAddr("n1"))
	if err := pn.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := pn.DB.ExportSince(cursor, markOf(pn.DB), nil); ok {
		t.Fatalf("staging failed: cursor %d still exportable, no re-seed would be needed", cursor)
	}

	// Fault 2: the source degrades. Then the replica comes back.
	pn.DB.ForceDegrade(errors.New("staged gray fault"))
	rn2, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn2.Stop()

	// The sender must abort the re-seed (metric) and never deliver it.
	m := pn.Repl.DB().Metrics()
	if !waitFor(t, 5*time.Second, func() bool { return m.Count(metrics.ReplReseedAborts) >= 1 }) {
		t.Fatalf("repl_reseed_aborts = %d, want >= 1", m.Count(metrics.ReplReseedAborts))
	}
	if rn2.WaitCaughtUp(pn.Repl.Status().Mark, 100*time.Millisecond) {
		t.Fatal("replica was seeded from a degraded source")
	}
}

// TestReseedAbortsWhenPrimaryFenced: a sender whose primary has been
// superseded by a newer epoch must stop shipping instead of seeding
// replicas with a stale incarnation.
func TestReseedAbortsWhenPrimaryFenced(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Attach before the replica exists: the sender spins on dial
	// failures. Fencing during that window must stop it for good.
	pn.Attach(c, "n1")
	pn.Repl.Fence(2)

	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 2}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()

	if rn.WaitCaughtUp(pn.Repl.Status().Mark, 200*time.Millisecond) {
		t.Fatal("fenced primary still seeded the replica")
	}
}
