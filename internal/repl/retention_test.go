// Retention and checkpoint-policy tests: what a link's pin keeps across
// primary checkpoints, the three ways the pin is lost, and the steady
// state they add up to — no re-seeds, one replica round per primary
// boundary.
package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
)

// linkPinned reports whether the link to addr holds an export cursor.
func linkPinned(p *Primary, addr string) bool {
	for _, rl := range p.links() {
		if rl.addr == addr {
			rl.mu.Lock()
			defer rl.mu.Unlock()
			return rl.pin != nil
		}
	}
	return false
}

// outgrowSeedBudget rewrites a few keys until the link to addr has lost
// its pin to the budget rule: its backlog holds more payload than the
// (small, non-growing) database would ship as a seed. Checkpoints along
// the way move the backlog into the export tail, so the tail's peak is
// the memory the peer was allowed to hold.
func outgrowSeedBudget(t *testing.T, pn *PrimaryNode, cli *server.Client, addr string) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 512)
	for i := 0; linkPinned(pn.Repl, addr); i++ {
		if i == 2000 {
			t.Fatalf("link %s still pinned after %d rewrites", addr, i)
		}
		val[0] = byte(i)
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("big%d", i%4)), val); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := pn.DB.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// awayAndBack runs the scenario the policy tests share: a replica that
// caught up goes away, the primary writes and checkpoints (whatever away
// does), and the replica returns. It reports the seeds its return cost.
func awayAndBack(t *testing.T, c *Cluster, pn *PrimaryNode, rn *ReplicaNode, cli *server.Client, away func()) (*ReplicaNode, int64) {
	t.Helper()
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replica never caught up")
	}
	name := rn.Node.Name
	seedsBefore := settledSeeds(t, pn)
	rn.Stop()
	away()
	back, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(back.Stop)
	if !back.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatalf("returning replica stuck at %d, primary mark %d", back.R.Applied(), pn.Repl.Status().Mark)
	}
	return back, settledSeeds(t, pn) - seedsBefore
}

// settledSeeds returns the seeds the primary has shipped, once it has
// recorded every replica's ack of its mark. A count read when only the
// replica has caught up is not final: the sender counts a seed after
// its Send returns, which can be after the replica applied it; and a
// seed whose ack outlasts the sender's wait is applied while the sender
// redials, and may be followed by a second one.
func settledSeeds(t *testing.T, pn *PrimaryNode) int64 {
	t.Helper()
	if !waitFor(t, 5*time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
		t.Fatalf("the primary never recorded its replicas' acks: %+v", pn.Repl.Status())
	}
	return pn.Node.M.Count(metrics.ReplReseeds)
}

func mustGet(t *testing.T, r *Replica, key, want string) {
	t.Helper()
	if v, found, err := r.Get("kv", []byte(key)); err != nil || !found || string(v) != want {
		t.Fatalf("replica read %s = %q found=%v err=%v, want %q", key, v, found, err, want)
	}
}

// TestRetentionResumesAcrossCheckpointGap: a checkpoint that passes an
// attached replica's cursor retires nothing the replica still needs. It
// resumes from its cursor — 0 new seeds — and the tail is released as
// soon as it has acknowledged the frames.
func TestRetentionResumesAcrossCheckpointGap(t *testing.T) {
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
	if _, err := cli.Put("kv", []byte("early"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	var held core.ExportRetention
	back, seeds := awayAndBack(t, c, pn, rn, cli, func() {
		for i := 0; i < 20; i++ {
			if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := pn.DB.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		held = pn.Repl.wal.ExportRetention()
	})
	if held.Frames == 0 {
		t.Fatal("the checkpoint kept nothing for the attached replica")
	}
	if seeds != 0 {
		t.Fatalf("a gap within the budget cost %d seeds, want 0", seeds)
	}
	mustGet(t, back.R, "early", "1")
	mustGet(t, back.R, "k19", "v")
	if !waitFor(t, time.Second, func() bool { return pn.Repl.wal.ExportRetention().Frames == 0 }) {
		t.Fatalf("tail not released after the replica caught up: %+v", pn.Repl.wal.ExportRetention())
	}
}

// TestRetentionBoundedForSilentPeer: a peer that stops acknowledging
// (its node drops off the network; nothing closes) cannot make the
// primary hold more than a seed's worth of log for it. The link is
// unpinned at the budget, the next checkpoint keeps nothing, and the
// peer re-seeds when it returns. The tail's PeakBytes is its memory: it
// holds copies of the payloads, not the page images they were logged
// from (core's TestRetentionTailHoldsPayloadNotImages).
func TestRetentionBoundedForSilentPeer(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	if _, err := cli.Put("kv", []byte("early"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replica never caught up")
	}
	seedsBefore := settledSeeds(t, pn)

	c.IsolateNode("n1")
	outgrowSeedBudget(t, pn, cli, ReplAddr("n1"))
	budget, err := pn.DB.SeedBytes()
	if err != nil {
		t.Fatal(err)
	}
	// One commit past the budget is what it takes to notice.
	if peak := int64(pn.Repl.wal.ExportRetention().PeakBytes); peak == 0 || peak > budget+4096 {
		t.Fatalf("the silent peer held %d B of retired log, budget %d B", peak, budget)
	}
	if err := pn.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ret := pn.Repl.wal.ExportRetention(); ret.Frames != 0 {
		t.Fatalf("an unpinned link still retains %+v", ret)
	}

	c.RejoinNode("n1")
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 10*time.Second) {
		t.Fatal("returning peer never caught up")
	}
	if got := settledSeeds(t, pn) - seedsBefore; got != 1 {
		t.Fatalf("a backlog past the budget cost %d seeds, want 1", got)
	}
	mustGet(t, rn.R, "early", "1")
}

// TestReseedWhenBacklogPastSeedBudget is the away-and-back flow of
// TestRetentionResumesAcrossCheckpointGap with a backlog that outgrows
// the budget: past it a seed is the cheaper transfer, and that is what
// the returning replica gets.
func TestReseedWhenBacklogPastSeedBudget(t *testing.T) {
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
	if _, err := cli.Put("kv", []byte("early"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	back, seeds := awayAndBack(t, c, pn, rn, cli, func() {
		outgrowSeedBudget(t, pn, cli, ReplAddr("n1"))
		if err := pn.DB.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if seeds != 1 {
		t.Fatalf("a backlog past the budget cost %d seeds, want 1", seeds)
	}
	mustGet(t, back.R, "early", "1")
}

// TestReseedAfterQuarantinedLinkLosesPin: a quarantined link holds no
// pin, so the gap a healthy replica resumes across
// (TestRetentionResumesAcrossCheckpointGap) costs the quarantined one a
// seed. One replica only: with every quorum candidate quarantined the
// commits degrade to asynchronous acks and the writes go on.
func TestReseedAfterQuarantinedLinkLosesPin(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn, err := c.StartPrimary("n0", DefaultDBOptions(),
		PrimaryOptions{Epoch: 1, AckReplicas: 1, AckBudget: 5 * time.Millisecond}, server.Options{})
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
	pn.Attach(c, "n1")
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	for i := 0; i < 10; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("w%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) || !linkPinned(pn.Repl, ReplAddr("n1")) {
		t.Fatal("a healthy, caught-up link must hold its pin")
	}

	// Slow acks, four times the budget: quarantined, pin gone.
	c.Net.SetLink(ReplAddr("n1"), "n0", netsim.Config{Latency: 20 * time.Millisecond})
	for i := 0; i < 40 && len(pn.Repl.Quarantined()) == 0; i++ {
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("s%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if !waitFor(t, 2*time.Second, func() bool {
		return len(pn.Repl.Quarantined()) == 1 && !linkPinned(pn.Repl, ReplAddr("n1"))
	}) {
		t.Fatalf("slow link still pinned; quarantined=%v ewma=%v", pn.Repl.Quarantined(), pn.Repl.AckLatencies())
	}
	c.Net.SetLink(ReplAddr("n1"), "n0", netsim.Config{Latency: 20 * time.Microsecond})

	back, seeds := awayAndBack(t, c, pn, rn, cli, func() {
		for i := 0; i < 10; i++ {
			if _, err := cli.Put("kv", []byte(fmt.Sprintf("g%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := pn.DB.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if seeds != 1 {
		t.Fatalf("the quarantined link's gap cost %d seeds, want 1", seeds)
	}
	mustGet(t, back.R, "g9", "v")
}

// TestRetentionDroppedWhenPrimaryFenced: a fenced primary will not ship
// again, so it drops every pin at once and its next checkpoint keeps
// nothing.
func TestRetentionDroppedWhenPrimaryFenced(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		pn.Attach(c, name)
	}
	cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
	defer cli.Close()
	if _, err := cli.Put("kv", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	pinned := func() bool { return linkPinned(pn.Repl, ReplAddr("n1")) && linkPinned(pn.Repl, ReplAddr("n2")) }
	if !waitFor(t, 2*time.Second, pinned) {
		t.Fatal("attached links never pinned")
	}
	c.IsolateNode("n1") // n1 stops acknowledging: its cursor stays behind
	if _, err := cli.Put("kv", []byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	pn.Repl.Fence(2)
	if linkPinned(pn.Repl, ReplAddr("n1")) || linkPinned(pn.Repl, ReplAddr("n2")) {
		t.Fatal("a fenced primary still holds pins")
	}
	if err := pn.DB.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ret := pn.Repl.wal.ExportRetention(); ret.Frames != 0 {
		t.Fatalf("a fenced primary retains %+v", ret)
	}
}

// seedTap runs a hook before every SEED message its conn sends.
type seedTap struct {
	netsim.Conn
	beforeSeed func()
}

func (c seedTap) Send(msg []byte) error {
	if len(msg) > 0 && msg[0] == mtSeed {
		c.beforeSeed()
	}
	return c.Conn.Send(msg)
}

// TestReseedOnceDespiteCheckpointBeforeFirstBatch: commits and a
// checkpoint land after the seed's snapshot was taken and before its
// first batch ships. The link registered its pin before the snapshot, so
// the frames behind the seed are still there and it does not seed twice.
func TestReseedOnceDespiteCheckpointBeforeFirstBatch(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	var taps atomic.Int64
	dial := c.Dialer("n0")
	pn.Repl.AddReplica(ReplAddr("n1"), func(addr string) (netsim.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return seedTap{Conn: conn, beforeSeed: func() {
			taps.Add(1)
			for i := 0; i < 5; i++ {
				ops := []server.Op{{Key: []byte(fmt.Sprintf("late%d", i)), Value: []byte("v")}}
				if _, err := pn.Repl.Apply(context.Background(), "kv", ops); err != nil {
					t.Error(err)
				}
			}
			if err := pn.DB.Checkpoint(); err != nil {
				t.Error(err)
			}
		}}, nil
	})
	if !waitFor(t, 5*time.Second, func() bool { return taps.Load() > 0 && rn.R.Applied() >= pn.Repl.Status().Mark }) {
		t.Fatalf("replica stuck at %d, primary mark %d", rn.R.Applied(), pn.Repl.Status().Mark)
	}
	if got := pn.Node.M.Count(metrics.ReplReseeds); got != 1 || taps.Load() != 1 {
		t.Fatalf("%d seeds (%d sent) for one attach, want 1", got, taps.Load())
	}
	mustGet(t, rn.R, "late4", "v")
}

// TestSteadyStateOneRoundPerPrimaryBoundary is the steady state the
// protocol exists for: 3 000 semi-sync writes across at least eight
// primary checkpoints, two replicas. No seed beyond the two that set the
// replicas up, and each replica ran exactly one checkpoint round per
// primary round — on the primary's boundary, not on a count of its own.
func TestSteadyStateOneRoundPerPrimaryBoundary(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	// Quorum 2 keeps both replicas within a batch of the primary, which is
	// what makes the counts exact: under quorum 1 the replica nobody waits
	// for may fall a whole generation behind, legitimately fold two
	// boundaries into one round, and on a database as small as this one
	// outgrow the seed budget.
	pn := startPrimaryWithTable(t, c, "n0", 1, 2)
	defer pn.Stop(false)
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
	if !waitFor(t, 5*time.Second, func() bool { return pn.Node.M.Count(metrics.ReplReseeds) == 2 }) {
		t.Fatal("replicas never seeded")
	}
	if _, err := cli.Put("kv", []byte("warm"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	settle := func() {
		t.Helper()
		for _, rn := range replicas {
			if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 10*time.Second) {
				t.Fatalf("replica %s stuck at %d, primary mark %d", rn.Node.Name, rn.R.Applied(), pn.Repl.Status().Mark)
			}
		}
	}
	settle()
	base := map[string]int64{"n0": rounds(pn.Node)}
	for _, rn := range replicas {
		base[rn.Node.Name] = rounds(rn.Node)
	}

	val := bytes.Repeat([]byte("x"), 256)
	for i := 0; i < 3000; i++ {
		val[0] = byte(i)
		if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%04d", i%500)), val); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// A sender that cut its batch in the instant between a commit and the
	// inline round it triggered learns of that boundary with the next
	// batch; make sure there is one.
	if _, err := cli.Put("kv", []byte("last"), val); err != nil {
		t.Fatal(err)
	}
	settle()
	primaryRounds := rounds(pn.Node) - base["n0"]
	if primaryRounds < 8 {
		t.Fatalf("only %d primary checkpoints in 3000 writes: the run does not cross enough boundaries", primaryRounds)
	}
	if got := pn.Node.M.Count(metrics.ReplReseeds); got != 2 {
		t.Fatalf("%d seeds, want the 2 that set the replicas up", got)
	}
	for _, rn := range replicas {
		if got := rounds(rn.Node) - base[rn.Node.Name]; got != primaryRounds {
			t.Fatalf("replica %s ran %d checkpoint rounds for the primary's %d", rn.Node.Name, got, primaryRounds)
		}
		if n := rn.Node.M.Count(metrics.ReplCheckpointErrors); n != 0 {
			t.Fatalf("replica %s counted %d failed rounds", rn.Node.Name, n)
		}
		mustGet(t, rn.R, "k0499", string(append([]byte{byte(2999 % 256)}, val[1:]...)))
	}
	// Every replica acked every frame before the primary's round retired it
	// (the round is the last step of the write that waited for those acks),
	// so the export tail was never needed.
	if ret := pn.Repl.wal.ExportRetention(); ret.Frames != 0 || ret.PeakFrames != 0 {
		t.Fatalf("retention after the run %+v: replicas that keep up must leave the tail unused", ret)
	}
}

// TestRetentionTailServesLaggingReplica is the case the export tail exists
// for: one link stalls (its node drops off the network) while the quorum's
// other replica carries the writes across two primary boundaries. The
// stalled link's frames move into the tail, the replica resumes from its
// cursor without a seed when it returns, and the tail drains.
func TestRetentionTailServesLaggingReplica(t *testing.T) {
	const limit = 40
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1})
	defer pn.Stop(false)
	var replicas []*Replica
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		replicas = append(replicas, rn.R)
		pn.Attach(c, name)
	}
	// A database large enough that two generations of backlog stay inside
	// the seed budget.
	model := kvModel{}
	for i := 0; i < 400; i++ {
		model.put(t, pn.Repl, i)
	}
	waitApplied(t, pn.Repl, replicas...)
	seeds := pn.Node.M.Count(metrics.ReplReseeds)

	c.IsolateNode("n2")
	for i, before := 400, rounds(pn.Node); rounds(pn.Node) < before+2; i++ {
		model.put(t, pn.Repl, i)
	}
	held := pn.Repl.wal.ExportRetention()
	if held.Frames < limit || !linkPinned(pn.Repl, ReplAddr("n2")) {
		t.Fatalf("two boundaries behind a stalled link kept %+v (pinned=%v), want at least a generation", held, linkPinned(pn.Repl, ReplAddr("n2")))
	}
	c.RejoinNode("n2")
	waitApplied(t, pn.Repl, replicas...)
	if got := pn.Node.M.Count(metrics.ReplReseeds) - seeds; got != 0 {
		t.Fatalf("the lagging replica's return cost %d seeds, want 0", got)
	}
	if !waitFor(t, time.Second, func() bool { return pn.Repl.wal.ExportRetention().Frames == 0 }) {
		t.Fatalf("tail not drained after the replica caught up: %+v", pn.Repl.wal.ExportRetention())
	}
	for _, r := range replicas {
		model.verify(t, "replica", r.Get)
	}
}

// TestSteadyStateReadsMatchModelAcrossBoundaries races replica Get and
// Scan against applies that cross checkpoint boundaries every few
// batches (run under -race). Every write is one transaction setting all
// keys to one version, so whatever mark a read lands on, the model says
// it sees a single version — never a half-applied batch, never a page a
// checkpoint round was moving — and versions only grow.
func TestSteadyStateReadsMatchModelAcrossBoundaries(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	opts := DefaultDBOptions()
	opts.CheckpointLimit = 40
	pn, err := c.StartPrimary("n0", opts, PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
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

	const keys, writes = 6, 400
	write := func(version int) {
		ops := make([]server.Op, keys)
		for k := range ops {
			ops[k] = server.Op{Key: []byte(fmt.Sprintf("k%d", k)), Value: []byte(fmt.Sprintf("%06d-%s", version, bytes.Repeat([]byte{'a' + byte(k)}, 200)))}
		}
		if _, err := pn.Repl.Apply(context.Background(), "kv", ops); err != nil {
			t.Errorf("write %d: %v", version, err)
		}
	}
	write(0)
	version := func(v []byte) int {
		var n int
		if _, err := fmt.Sscanf(string(v[:6]), "%d", &n); err != nil {
			t.Errorf("unparsable value %q", v[:6])
		}
		return n
	}
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func(reader int) {
			defer wg.Done()
			last := 0
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				floor := int(acked.Load())
				seen := -1
				if (i+reader)%2 == 0 {
					err := rn.R.Scan("kv", func(_, v []byte) bool {
						if n := version(v); seen >= 0 && n != seen {
							t.Errorf("scan saw versions %d and %d in one snapshot", seen, n)
						} else {
							seen = n
						}
						return true
					})
					if err != nil {
						t.Errorf("scan: %v", err)
					}
				} else if v, found, err := rn.R.Get("kv", []byte(fmt.Sprintf("k%d", i%keys))); err != nil || !found {
					t.Errorf("get: found=%v err=%v", found, err)
				} else {
					seen = version(v)
				}
				// Semi-sync with quorum 1 of 1: an acked version is applied.
				if seen < floor || seen < last {
					t.Errorf("read saw version %d after %d was acked and %d was read", seen, floor, last)
				}
				last = seen
			}
		}(reader)
	}
	for v := 1; v <= writes; v++ {
		write(v)
		acked.Store(int64(v))
	}
	close(stop)
	wg.Wait()
	if got := rn.Node.M.Count(metrics.Checkpoints); got < 8 {
		t.Fatalf("the replica ran %d checkpoint rounds: the reads did not race enough boundaries", got)
	}
}

// TestReplicaCheckpointErrorIsCountedAndRetried: a replica round that
// fails is counted, leaves the batch acknowledged (its frames are durable
// in the journal) and is retried at the next boundary; only once the
// journal is also past the safety net does the replica report degraded.
func TestReplicaCheckpointErrorIsCountedAndRetried(t *testing.T) {
	c := newTestCluster(t, "n1")
	node := c.Node("n1")
	r, err := NewReplica(node.Plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a := r.applySeed(seedMsg{incarnation: 1, mark: 3, pageSize: 4096, pages: []seedPage{{pgno: 1, data: headerPage(1)}}}); !a.ok {
		t.Fatal("seed refused")
	}
	// next builds a batch of n full frames on distinct fresh pages, and
	// the page-1 frame that counts them: n frames in the replica's own
	// journal beside page 1, which every import logs.
	pgno := uint32(2)
	next := func(n, backfill int) core.ExportBatch {
		b := core.ExportBatch{From: r.Applied(), To: r.Applied() + n, Backfill: backfill}
		b.Frames = append(b.Frames, core.ExportFrame{Pgno: 1, Off: 12, Payload: binary.LittleEndian.AppendUint32(nil, pgno+uint32(n)-1)})
		for i := 0; i < n; i++ {
			b.Frames = append(b.Frames, core.ExportFrame{Pgno: pgno, Full: true, Payload: []byte{byte(pgno), 1, 2, 3, 4, 5, 6, 7}})
			pgno++
		}
		return b
	}
	failed := func() int64 { return node.M.Count(metrics.ReplCheckpointErrors) }
	rounds := func() int64 { return node.M.Count(metrics.Checkpoints) }

	node.Plat.Flash.InjectFaults(blockdev.FaultConfig{Seed: 1, SyncEIORate: 1})
	if !r.ApplyBatch(1, next(1, r.Applied()+1)) {
		t.Fatal("a batch whose checkpoint round failed was not acknowledged")
	}
	if failed() != 1 || r.Status().Degraded {
		t.Fatalf("after one failed round: %d counted, degraded=%v; want 1, false", failed(), r.Status().Degraded)
	}
	if !r.ApplyBatch(1, next(1, 0)) || failed() != 1 {
		t.Fatalf("a batch with no boundary retried the round (%d failures counted)", failed())
	}
	// Past the safety net the round runs whatever the primary announces,
	// and a replica that still cannot checkpoint says so.
	if !r.ApplyBatch(1, next(checkpointNet, 0)) || failed() != 2 || !r.Status().Degraded {
		t.Fatalf("past the safety net: %d failures counted, degraded=%v; want 2, true", failed(), r.Status().Degraded)
	}
	// The device heals. The next boundary's round finishes the one the
	// failures left half-done (its watermark is the first failure's); the
	// safety net then drains what piled up behind it.
	node.Plat.Flash.InjectFaults(blockdev.FaultConfig{})
	before := rounds()
	if !r.ApplyBatch(1, next(1, r.Applied()+1)) || rounds() != before+1 || r.Status().Degraded {
		t.Fatalf("after the device healed: %d rounds completed, degraded=%v; want 1, false", rounds()-before, r.Status().Degraded)
	}
	if !r.ApplyBatch(1, next(1, 0)) || rounds() != before+2 || replicaLog(r).FramesSinceCheckpoint() != 0 {
		t.Fatalf("the safety net left %d frames unbackfilled after %d rounds", replicaLog(r).FramesSinceCheckpoint(), rounds()-before)
	}
}
