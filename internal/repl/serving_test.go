// Serving tests measured in virtual time: reads spread over replicas,
// hedged reads around a gray-degraded replica, and what a semi-sync write
// costs across the primary's checkpoint boundaries.
package repl

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simclock"
)

// servingCluster serves a primary n0 with a "kv" table of keys 256-byte
// values and replicas n1..n<replicas>, attached without an ack quorum and
// caught up. It returns the cluster and the serving nodes' names.
func servingCluster(t *testing.T, replicas, keys int) (*Cluster, []string) {
	t.Helper()
	names := []string{"n0", "n1", "n2"}[:replicas+1]
	c := newTestCluster(t, names...)
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	t.Cleanup(func() { pn.Stop(false) })
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := range keys {
		if _, err := pn.Repl.Apply(context.Background(), "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%04d", i)), Value: val}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names[1:] {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rn.Stop)
		pn.Attach(c, name)
		if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 10*time.Second) {
			t.Fatalf("replica %s never caught up", name)
		}
	}
	return c, names
}

// TestReadsScaleOutAcrossReplicas: one reader per serving node, each on
// its node's lane (a colocated client), so a read's virtual time accrues
// where it is served. Nodes are parallel virtual cores: the primary and
// two replicas serve the same reads at least 2.5x as fast as the primary
// alone.
func TestReadsScaleOutAcrossReplicas(t *testing.T) {
	const reads, keys = 1000, 200
	perSec := func(replicas int) float64 {
		c, names := servingCluster(t, replicas, keys)
		per := reads / len(names)
		var slowest time.Duration
		for i, name := range names {
			lane, rd := c.Node(name).Plat.Clock, "rd-"+name
			c.Net.Register(rd, lane)
			cli := server.NewClient(c.Dialer(rd), []string{name}, server.ClientOptions{ReadAnywhere: true})
			start := lane.Now()
			for j := range per {
				key := []byte(fmt.Sprintf("k%04d", (i*per+j)%keys))
				if _, found, err := cli.Get("kv", key); err != nil || !found {
					t.Fatalf("read %s via %s: found=%v err=%v", key, name, found, err)
				}
			}
			cli.Close()
			slowest = max(slowest, lane.Now()-start)
		}
		return float64(per*len(names)) / slowest.Seconds()
	}
	alone, three := perSec(0), perSec(2)
	if three < 2.5*alone {
		t.Errorf("a primary and two replicas serve %.2fx the reads/s of the primary alone, want 2.5x", three/alone)
	}
}

// TestHedgedReadsRecoverDegradedTail: a reader lists n1 first, so it is
// pinned to the replica whose links to it then degrade from 20 µs to 2 ms
// (a gray failure hurts the clients attached to the sick node). Without
// hedging every read pays the degraded link; hedging after 100 µs to n2
// recovers the p99 at least 2x. When nothing is degraded the hedging
// reader duplicates at most 5 % of its reads, and a plain reader never
// hedges.
func TestHedgedReadsRecoverDegradedTail(t *testing.T) {
	const reads, keys = 300, 200
	const degraded = 2 * time.Millisecond
	c, _ := servingCluster(t, 2, keys)
	cell := func(rd string, hedged, degrade bool) (p99 time.Duration, hedges int64) {
		lane := c.Clock.NewLane()
		c.Net.Register(rd, lane)
		if degrade {
			c.Net.SetLink("n1", rd, netsim.Config{Latency: degraded})
			c.Net.SetLink(rd, "n1", netsim.Config{Latency: degraded})
		}
		m := c.Registry.Counters(rd)
		opts := server.ClientOptions{ReadAnywhere: true, Metrics: m, Seed: 13}
		if hedged {
			opts.HedgeDelay, opts.Clock = 100*time.Microsecond, lane
		}
		cli := server.NewClient(c.Dialer(rd), []string{"n1", "n2"}, opts)
		defer cli.Close()
		lats := make([]time.Duration, 0, reads)
		for i := range reads {
			key := []byte(fmt.Sprintf("k%04d", i%keys))
			t0 := lane.Now()
			if _, found, err := cli.Get("kv", key); err != nil || !found {
				t.Fatalf("read %s via %s: found=%v err=%v", key, rd, found, err)
			}
			lats = append(lats, lane.Now()-t0)
		}
		slices.Sort(lats)
		return lats[(reads-1)*99/100], m.Count(metrics.HedgedReads)
	}
	_, plainHedges := cell("rd-plain-h", false, false)
	_, healthyHedges := cell("rd-hedge-h", true, false)
	plain, _ := cell("rd-plain-d", false, true)
	hedged, degradedHedges := cell("rd-hedge-d", true, true)
	if plain < degraded {
		t.Errorf("plain p99 %v below the degraded link latency %v: the pin did not bite", plain, degraded)
	}
	if hedged == 0 || plain < 2*hedged {
		t.Errorf("hedging recovers the p99 only from %v to %v, want 2x", plain, hedged)
	}
	if degradedHedges == 0 {
		t.Error("the hedging reader fired no hedge against the degraded replica")
	}
	if 100*healthyHedges > 5*reads {
		t.Errorf("healthy cluster: %d of %d reads hedged, over 5 %%", healthyHedges, reads)
	}
	if plainHedges != 0 {
		t.Errorf("a plain reader hedged %d reads", plainHedges)
	}
}

// ackTimer times a primary's shipping conn in virtual time, from a
// message handed to the wire to the delivery of the ack that answers it
// (a sender sends one message and reads its ack before the next). It
// forwards SendAt and RecvAt, so the primary behind it stamps and sees
// what it would on the bare conn.
type ackTimer struct {
	netsim.Conn
	lane *simclock.Clock
	sent time.Duration
	sum  *atomic.Int64 // virtual ns over every ack
	n    *atomic.Int64
}

func (c *ackTimer) Send(msg []byte) error {
	c.sent = c.lane.Now()
	return c.Conn.Send(msg)
}

func (c *ackTimer) SendAt(msg []byte, at time.Duration) error {
	c.sent = at
	return netsim.SendAt(c.Conn, msg, at)
}

func (c *ackTimer) RecvAt(timeout time.Duration) ([]byte, time.Duration, error) {
	msg, at, _, err := netsim.RecvAt(c.Conn, timeout)
	if err == nil {
		c.sum.Add(int64(at - c.sent))
		c.n.Add(1)
	}
	return msg, at, err
}

// TestSteadyStateWriteCostsOneRoundPerBoundary: semi-sync writes (quorum
// 1) of 256-byte values over a 2 000-key table, loaded before the two
// replicas attach so both seed outside the measured window. In the window
// no link seeds and the primary crosses at least ten boundaries. A
// boundary costs the writer about one round: a round on this database is
// a few tens of virtual ms of flash time, so the writes above 20 ms add up
// to 20–65 ms per primary round, where two rounds in sequence would read
// about twice the lower end. An ack carries no flash time: the mean from a
// batch handed to the wire to its ack is two 20 µs links plus an apply
// (40 µs to 2 ms). And the cliff stays above p99: the virtual write p99
// is under 5 ms.
func TestSteadyStateWriteCostsOneRoundPerBoundary(t *testing.T) {
	const keys = 2000
	writes := 4000
	if raceEnabled {
		writes = 2500
	}
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	val := make([]byte, 256)
	// Loaded straight into the database: no quorum waits before the
	// replicas attach.
	var eng server.Engine = server.NewDBEngine(pn.DB, 1)
	put := func(i int) {
		val[0], val[1] = byte(i), byte(i>>8)
		if _, err := eng.Apply(context.Background(), "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%05d", i%keys)), Value: val}}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := range keys {
		put(i)
	}
	eng = pn.Repl
	var ackSum, acks atomic.Int64
	var replicas []*ReplicaNode
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		replicas = append(replicas, rn)
		dial := c.Dialer("n0")
		pn.Repl.AddReplica(ReplAddr(name), func(addr string) (netsim.Conn, error) {
			conn, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return &ackTimer{Conn: conn, lane: pn.Node.Plat.Clock, sum: &ackSum, n: &acks}, nil
		})
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

	seeds, roundsBefore := pn.Node.M.Count(metrics.ReplReseeds), rounds(pn.Node)
	sum0, n0 := ackSum.Load(), acks.Load()
	lane := pn.Node.Plat.Clock
	lats := make([]time.Duration, 0, writes)
	var boundary time.Duration
	for i := range writes {
		t0 := lane.Now()
		put(i * 7)
		lat := lane.Now() - t0
		lats = append(lats, lat)
		if lat > 20*time.Millisecond {
			boundary += lat
		}
	}
	settle()

	if n := pn.Node.M.Count(metrics.ReplReseeds) - seeds; n != 0 {
		t.Errorf("%d seeds in the steady window, want 0", n)
	}
	primaryRounds := rounds(pn.Node) - roundsBefore
	if primaryRounds < 10 {
		t.Fatalf("%d primary checkpoints in %d writes: the run crosses too few boundaries", primaryRounds, writes)
	}
	if ms := boundary.Seconds() * 1e3 / float64(primaryRounds); ms < 20 || ms > 65 {
		t.Errorf("%.1f virtual ms in writes above 20 ms per primary round, want about one round (20–65)", ms)
	}
	if us := float64(ackSum.Load()-sum0) / 1e3 / float64(max(1, acks.Load()-n0)); us < 40 || us > 2000 {
		t.Errorf("mean send-to-ack %.1f µs, want two 20 µs link latencies plus an apply and no flash time", us)
	}
	slices.Sort(lats)
	if p99 := lats[(len(lats)-1)*99/100]; p99 > 5*time.Millisecond {
		t.Errorf("virtual write p99 %v: the boundary cliff moved below p99", p99)
	}
}
