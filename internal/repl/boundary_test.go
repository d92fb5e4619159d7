// Boundary tests: the order of a replicated write that crosses a
// checkpoint boundary — freeze, ship, ack, write back, on every node —
// which batch announces it, whose clock an ack moves, and what a power cut
// at each point of it leaves behind.
package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
)

// tapConn reports what crosses one end of a shipping conn. It forwards
// RecvAt, so a primary behind it still sees virtual delivery times.
type tapConn struct {
	netsim.Conn
	beforeRecv func()
	afterRecv  func(msg []byte, at time.Duration) // at is 0 for a plain Recv
	beforeSend func(msg []byte)
}

func (c *tapConn) Send(msg []byte) error {
	if c.beforeSend != nil {
		c.beforeSend(msg)
	}
	return c.Conn.Send(msg)
}

func (c *tapConn) Recv(timeout time.Duration) ([]byte, error) {
	if c.beforeRecv != nil {
		c.beforeRecv()
	}
	msg, err := c.Conn.Recv(timeout)
	if err == nil && c.afterRecv != nil {
		c.afterRecv(msg, 0)
	}
	return msg, err
}

func (c *tapConn) RecvAt(timeout time.Duration) ([]byte, time.Duration, error) {
	msg, at, _, err := netsim.RecvAt(c.Conn, timeout)
	if err == nil && c.afterRecv != nil {
		c.afterRecv(msg, at)
	}
	return msg, at, err
}

// tapListener wraps every conn it accepts.
type tapListener struct {
	netsim.Listener
	wrap func(netsim.Conn) netsim.Conn
}

func (l tapListener) Accept(timeout time.Duration) (netsim.Conn, error) {
	conn, err := l.Listener.Accept(timeout)
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// startTappedReplica is Cluster.StartReplica without the read front-end
// and with every shipping conn wrapped. stop closes the replica and waits
// for its accept loop.
func startTappedReplica(t *testing.T, c *Cluster, name string, wrap func(netsim.Conn) netsim.Conn) (r *Replica, stop func()) {
	t.Helper()
	node := c.Node(name)
	r, err := NewReplica(node.Plat, name+".db", ReplicaOptions{Epoch: 1, Metrics: node.M})
	if err != nil {
		t.Fatal(err)
	}
	l, err := c.Net.Listen(ReplAddr(name))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.Serve(tapListener{Listener: l, wrap: wrap})
		close(done)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			r.Close()
			_ = l.Close()
			<-done
		})
	}
	t.Cleanup(stop)
	return r, stop
}

// startBoundaryPrimary serves a primary whose inline round is due every
// limit frames. Its senders ship only what Apply announced, so which batch
// carries which commit is exact.
func startBoundaryPrimary(t *testing.T, c *Cluster, limit int, popts PrimaryOptions) *PrimaryNode {
	t.Helper()
	opts := DefaultDBOptions()
	opts.CheckpointLimit = limit
	pn, err := c.StartPrimary("n0", opts, popts, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pn.DB.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	return pn
}

func rounds(n *Node) int64 { return n.M.Count(metrics.Checkpoints) }

// shippedBatch is the range a FRAMES message carries; ok=false for any
// other message.
func shippedBatch(msg []byte) (b core.ExportBatch, ok bool) {
	if msg[0] != mtFrames {
		return b, false
	}
	f, err := decodeFrames(msg, nil)
	return f.batch, err == nil
}

func waitApplied(t *testing.T, p *Primary, replicas ...*Replica) {
	t.Helper()
	for _, r := range replicas {
		if !waitFor(t, 10*time.Second, func() bool { return r.Applied() >= p.Status().Mark }) {
			t.Fatalf("replica stuck at %d, primary mark %d", r.Applied(), p.Status().Mark)
		}
	}
}

// kvModel is what every node must read: the last acknowledged value of
// every key.
type kvModel map[string]string

func (m kvModel) put(t *testing.T, p *Primary, i int) {
	t.Helper()
	key, val := fmt.Sprintf("k%03d", i%97), fmt.Sprintf("%06d-%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 200))
	if _, err := p.Apply(context.Background(), "kv", []server.Op{{Key: []byte(key), Value: []byte(val)}}); err != nil {
		t.Fatalf("write %d: %v", i, err)
	}
	m[key] = val
}

func (m kvModel) verify(t *testing.T, who string, get func(table string, key []byte) ([]byte, bool, error)) {
	t.Helper()
	for key, want := range m {
		if v, found, err := get("kv", []byte(key)); err != nil || !found || string(v) != want {
			t.Fatalf("%s: %s = %.12q found=%v err=%v, want %.12q", who, key, v, found, err, want)
		}
	}
}

// TestBoundaryAckPrecedesEveryRound is the order itself, measured on the
// wire in virtual time with both replicas in the quorum. For every primary
// boundary and both replicas: the batch that announces the watermark is the
// one that ends at the boundary commit's mark; its ack is on the wire before
// the replica's round starts (the round counter rises only after the send)
// and is delivered within two link latencies plus the apply of its send,
// with no flash time in it; and the round runs before the next batch is
// read. The primary's own round comes after the acks, so the whole
// boundary costs the write one round, not two in sequence.
func TestBoundaryAckPrecedesEveryRound(t *testing.T) {
	const limit, link = 60, 20 * time.Microsecond
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 2})
	defer pn.Stop(false)

	// One record per FRAMES message a replica handled, in virtual time on
	// the lane of whoever observed it.
	type shipped struct {
		to, backfill               int
		sent, delivered            time.Duration // primary: FRAMES handed to the wire, ACK's delivery time
		arrived, acked, resumed    time.Duration // replica: FRAMES received, ACK handed to the wire, next Recv
		roundsAtAck, roundsResumed int64
	}
	var mu sync.Mutex
	log := map[string][]*shipped{}
	byMark := map[string]map[int]*shipped{"n1": {}, "n2": {}}
	rec := func(name string, to int) *shipped {
		if s := byMark[name][to]; s != nil {
			return s
		}
		s := &shipped{to: to}
		byMark[name][to] = s
		return s
	}
	var replicas []*Replica
	for _, name := range []string{"n1", "n2"} {
		node, lane := c.Node(name), c.Node(name).Plat.Clock
		var cur *shipped
		r, _ := startTappedReplica(t, c, name, func(conn netsim.Conn) netsim.Conn {
			return &tapConn{Conn: conn,
				afterRecv: func(msg []byte, _ time.Duration) {
					b, ok := shippedBatch(msg)
					if !ok {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					cur = rec(name, b.To)
					cur.backfill, cur.arrived = b.Backfill, lane.Now()
					log[name] = append(log[name], cur)
				},
				beforeSend: func(msg []byte) {
					mu.Lock()
					defer mu.Unlock()
					if msg[0] == mtAck && cur != nil {
						cur.acked, cur.roundsAtAck = lane.Now(), rounds(node)
					}
				},
				beforeRecv: func() {
					mu.Lock()
					defer mu.Unlock()
					if cur != nil {
						cur.resumed, cur.roundsResumed = lane.Now(), rounds(node)
						cur = nil
					}
				},
			}
		})
		replicas = append(replicas, r)
		dial, plane := c.Dialer("n0"), pn.Node.Plat.Clock
		pn.Repl.AddReplica(ReplAddr(name), func(addr string) (netsim.Conn, error) {
			conn, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return &tapConn{Conn: conn,
				beforeSend: func(msg []byte) {
					if b, ok := shippedBatch(msg); ok {
						mu.Lock()
						defer mu.Unlock()
						rec(name, b.To).sent = plane.Now()
					}
				},
				afterRecv: func(msg []byte, at time.Duration) {
					if msg[0] != mtAck {
						return
					}
					if a, err := decodeAck(msg); err == nil && a.ok {
						mu.Lock()
						defer mu.Unlock()
						rec(name, a.applied).delivered = at
					}
				},
			}, nil
		})
	}

	model := kvModel{}
	model.put(t, pn.Repl, 0)
	waitApplied(t, pn.Repl, replicas...)
	var boundaryMarks []int
	var boundaryCost []time.Duration
	for i := 1; len(boundaryMarks) < 4; i++ {
		if i > 40*limit {
			t.Fatalf("%d writes crossed only %d boundaries", i, len(boundaryMarks))
		}
		before, t0 := rounds(pn.Node), pn.Node.Plat.Clock.Now()
		model.put(t, pn.Repl, i)
		if rounds(pn.Node) > before {
			boundaryMarks = append(boundaryMarks, pn.Repl.wal.Mark())
			boundaryCost = append(boundaryCost, pn.Node.Plat.Clock.Now()-t0)
		}
	}
	model.put(t, pn.Repl, 1<<20) // the last round's replicas resume on this batch
	waitApplied(t, pn.Repl, replicas...)

	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"n1", "n2"} {
		var announced []*shipped
		for _, s := range log[name] {
			if s.roundsResumed > s.roundsAtAck {
				announced = append(announced, s)
			}
		}
		if len(announced) != len(boundaryMarks) {
			t.Fatalf("%s ran a round after %d batches for the primary's %d boundaries", name, len(announced), len(boundaryMarks))
		}
		for i, s := range announced {
			if s.to != boundaryMarks[i] || s.backfill != s.to {
				t.Errorf("%s boundary %d: the round followed batch To=%d Backfill=%d, want both %d (the boundary commit's mark)",
					name, i, s.to, s.backfill, boundaryMarks[i])
			}
			if s.roundsResumed != s.roundsAtAck+1 {
				t.Errorf("%s boundary %d: %d rounds between the ack and the next Recv, want 1", name, i, s.roundsResumed-s.roundsAtAck)
			}
			apply, rtt, round := s.acked-s.arrived, s.delivered-s.sent, s.resumed-s.acked
			if s.sent == 0 || s.delivered == 0 || rtt > 2*link+apply {
				t.Errorf("%s boundary %d: ack delivered %v after the send (sent %v), want within 2×%v + apply %v", name, i, rtt, s.sent, link, apply)
			}
			if round < 10*rtt {
				t.Errorf("%s boundary %d: round cost %v against an ack round trip of %v: the test no longer tells them apart", name, i, round, rtt)
			}
			// One flash round per boundary for the cluster: the write paid the
			// primary's round (about this replica's: the same pages) and an ack
			// round trip, not the two rounds in sequence.
			if boundaryCost[i] > round*3/2 {
				t.Errorf("%s boundary %d: the write cost %v with a replica round of %v: the rounds did not overlap", name, i, boundaryCost[i], round)
			}
		}
	}
	for _, r := range replicas {
		model.verify(t, "replica", r.Get)
	}
}

// TestBoundaryBatchWaitsForTheFreeze: a sender made to look for work
// between a commit and its freeze — the moment a batch cut early would
// leave without the round's watermark — finds nothing to ship, because
// nothing is announced before the freeze. Every batch then ends at or
// below a boundary commit's mark, and the one that ends at it carries its
// watermark. The hook waits for a send the woken sender might make, so an
// early cut is always seen.
func TestBoundaryBatchWaitsForTheFreeze(t *testing.T) {
	const limit = 8
	c := newTestCluster(t, "n0", "n1")
	pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1})
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()

	var mu sync.Mutex
	var batches []core.ExportBatch
	sent := make(chan struct{}, 1)
	dial := c.Dialer("n0")
	pn.Repl.AddReplica(ReplAddr("n1"), func(addr string) (netsim.Conn, error) {
		conn, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return &tapConn{Conn: conn, beforeSend: func(msg []byte) {
			if b, ok := shippedBatch(msg); ok {
				mu.Lock()
				batches = append(batches, b)
				mu.Unlock()
				select {
				case sent <- struct{}{}:
				default:
				}
			}
		}}, nil
	})
	p := pn.Repl
	p.beforeFreeze = func() {
		select {
		case <-sent:
		default:
		}
		p.mu.Lock()
		p.shipCond.Broadcast() // every sender looks for work now
		p.mu.Unlock()
		select {
		case <-sent:
		case <-time.After(20 * time.Millisecond):
		}
	}

	model := kvModel{}
	var boundaryMarks []int
	for i := 0; len(boundaryMarks) < 3; i++ {
		if i > 20*limit {
			t.Fatalf("%d writes crossed only %d boundaries", i, len(boundaryMarks))
		}
		before := rounds(pn.Node)
		model.put(t, p, i)
		if rounds(pn.Node) > before {
			boundaryMarks = append(boundaryMarks, p.wal.Mark())
		}
	}
	p.beforeFreeze = nil
	model.put(t, p, 1<<20)
	waitApplied(t, p, rn.R)

	mu.Lock()
	defer mu.Unlock()
	for _, b := range batches {
		if b.Backfill > b.To {
			t.Errorf("batch [%d, %d) announces watermark %d above its end", b.From, b.To, b.Backfill)
		}
		for _, bm := range boundaryMarks {
			if b.From < bm && bm <= b.To && (b.To != bm || b.Backfill != bm) {
				t.Errorf("boundary commit at %d left in batch [%d, %d) with watermark %d, want a batch ending there that carries it",
					bm, b.From, b.To, b.Backfill)
			}
		}
	}
	model.verify(t, "replica", rn.R.Get)
}

// TestBoundaryDeferredByReaderCostsReplicasNoRounds: what the primary
// announces is a round it has frozen, never an intent. A snapshot reader
// held open on the primary defers its rounds for 3 000 writes, so nothing is
// announced and the replicas run only what their own safety net asks for —
// not a round per commit — and once the reader closes they are back to one
// round per primary round.
func TestBoundaryDeferredByReaderCostsReplicasNoRounds(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 2)
	defer pn.Stop(false)
	var nodes []*ReplicaNode
	var replicas []*Replica
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		nodes, replicas = append(nodes, rn), append(replicas, rn.R)
		pn.Attach(c, name)
	}
	model := kvModel{}
	model.put(t, pn.Repl, 0)
	waitApplied(t, pn.Repl, replicas...)

	rd, err := pn.DB.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	base := map[string]int64{"n0": rounds(pn.Node), "n1": rounds(nodes[0].Node), "n2": rounds(nodes[1].Node)}
	startMark := pn.Repl.wal.Mark()
	for i := 1; i <= 3000; i++ {
		model.put(t, pn.Repl, i)
	}
	waitApplied(t, pn.Repl, replicas...)
	if got := rounds(pn.Node) - base["n0"]; got != 0 {
		t.Fatalf("the primary ran %d rounds under an open snapshot", got)
	}
	frames := pn.Repl.wal.Mark() - startMark
	if frames < 2*db.DefaultCheckpointLimit {
		t.Fatalf("3000 writes logged %d frames: the run never reached a boundary to defer", frames)
	}
	for _, rn := range nodes {
		got, net := rounds(rn.Node)-base[rn.Node.Name], int64(frames/checkpointNet)+1
		if got > net {
			t.Fatalf("replica %s ran %d rounds while the primary announced none; its safety net asks for at most %d over %d frames",
				rn.Node.Name, got, net, frames)
		}
		base[rn.Node.Name] += got
	}

	rd.Close()
	for i := 3001; rounds(pn.Node)-base["n0"] < 2; i++ {
		if i > 3001+3*db.DefaultCheckpointLimit {
			t.Fatal("the primary did not resume its rounds after the reader closed")
		}
		model.put(t, pn.Repl, i)
	}
	model.put(t, pn.Repl, 1<<20)
	waitApplied(t, pn.Repl, replicas...)
	for _, rn := range nodes {
		// The safety net may have left a replica less than a generation
		// behind, so the first announced round is one it owed anyway.
		if got, want := rounds(rn.Node)-base[rn.Node.Name], rounds(pn.Node)-base["n0"]; got != want {
			t.Fatalf("replica %s ran %d rounds for the primary's %d after the reader closed", rn.Node.Name, got, want)
		}
		model.verify(t, rn.Node.Name, rn.R.Get)
	}
	if got := pn.Node.M.Count(metrics.ReplReseeds); got != 2 {
		t.Fatalf("%d seeds, want the 2 that set the replicas up", got)
	}
}

// TestBoundaryRoundRunsWhateverTheAcks: the due round is the last step of
// Apply also when nobody is waited for (AckReplicas 0) and when the ack
// wait fails — an ErrIndeterminate write is durable locally and its
// checkpoint is still owed.
func TestBoundaryRoundRunsWhateverTheAcks(t *testing.T) {
	const limit = 8
	put := func(p *Primary, i int) error {
		_, err := p.Apply(context.Background(), "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v")}})
		return err
	}
	t.Run("async", func(t *testing.T) {
		c := newTestCluster(t, "n0")
		pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1})
		defer pn.Stop(false)
		before := rounds(pn.Node)
		for i := 0; i < 4*limit; i++ {
			if err := put(pn.Repl, i); err != nil {
				t.Fatal(err)
			}
		}
		if got := rounds(pn.Node) - before; got < 2 || pn.DB.Journal().FramesSinceCheckpoint() >= limit {
			t.Fatalf("%d rounds in %d async writes, %d frames unbackfilled", got, 4*limit, pn.DB.Journal().FramesSinceCheckpoint())
		}
	})
	t.Run("ack-timeout", func(t *testing.T) {
		c := newTestCluster(t, "n0", "n1")
		pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1, AckTimeout: 20 * time.Millisecond})
		defer pn.Stop(false)
		rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		pn.Attach(c, "n1")
		if err := put(pn.Repl, 0); err != nil {
			t.Fatal(err)
		}
		c.IsolateNode("n1")
		before := rounds(pn.Node)
		for i := 1; rounds(pn.Node) == before; i++ {
			if i > 4*limit {
				t.Fatalf("no round in %d ack-starved writes", i)
			}
			wasDue := pn.DB.Journal().FramesSinceCheckpoint() >= limit-1
			if err := put(pn.Repl, i); !errors.Is(err, server.ErrIndeterminate) {
				t.Fatalf("ack-starved write %d = %v, want ErrIndeterminate", i, err)
			}
			if wasDue && rounds(pn.Node) == before {
				t.Fatalf("write %d made a round due and returned without running it", i)
			}
		}
	})
}

// TestDeferredRoundKeepsReplicatedWriteAcked is the served, replicated side
// of server's TestDeferredRoundDoesNotFailDurableWrite: the primary's flash
// fails under the round of a boundary write. The client's PUT is
// acknowledged with its seq, both replicas hold it and ran their own rounds
// (the freeze, which announces the boundary, touches no flash), the failure
// is counted, and the next due commit retries the round — or, on dead
// media, the primary reports Degraded.
func TestDeferredRoundKeepsReplicatedWriteAcked(t *testing.T) {
	const limit = 12
	for _, permanent := range []bool{false, true} {
		t.Run(fmt.Sprintf("permanent=%v", permanent), func(t *testing.T) {
			c := newTestCluster(t, "n0", "n1", "n2")
			pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 2})
			defer pn.Stop(true)
			if err := pn.DB.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var nodes []*ReplicaNode
			for _, name := range []string{"n1", "n2"} {
				rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer rn.Stop()
				nodes = append(nodes, rn)
				pn.Attach(c, name)
			}
			cli := server.NewClient(c.Dialer("cli"), []string{"n0"}, server.ClientOptions{})
			defer cli.Close()
			for i := 0; pn.DB.Journal().FramesSinceCheckpoint() < limit-1; i++ {
				if _, err := cli.Put("kv", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for _, rn := range nodes {
				if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
					t.Fatal("replica never caught up")
				}
			}
			primaryRounds, replicaRounds := rounds(pn.Node), []int64{rounds(nodes[0].Node), rounds(nodes[1].Node)}
			if permanent {
				f, err := pn.Node.Plat.FS.Open("n0.db")
				if err != nil {
					t.Fatal(err)
				}
				for _, pg := range f.Extents() {
					pn.Node.Plat.Flash.MarkBad(pg)
				}
			} else {
				pn.Node.Plat.Flash.FailNextSyncs(3) // one more than the retry policy absorbs
			}

			seq, err := cli.Put("kv", []byte("boundary"), []byte("acked"))
			if err != nil || seq == 0 {
				t.Fatalf("boundary PUT = (seq %d, %v): a failed round failed a durable, replicated write", seq, err)
			}
			if got := pn.Node.M.Count(metrics.CheckpointErrors); got != 1 || rounds(pn.Node) != primaryRounds {
				t.Fatalf("%d failed rounds counted, %d completed; want 1, 0", got, rounds(pn.Node)-primaryRounds)
			}
			for i, rn := range nodes {
				mustGet(t, rn.R, "boundary", "acked")
				if !waitFor(t, 2*time.Second, func() bool { return rounds(rn.Node) == replicaRounds[i]+1 }) {
					t.Fatalf("replica %s ran %d rounds on the announced boundary, want 1", rn.Node.Name, rounds(rn.Node)-replicaRounds[i])
				}
			}
			st, err := cli.Status()
			if err != nil || st.Degraded != permanent {
				t.Fatalf("status after the failed round: %+v, %v; want Degraded=%v", st, err, permanent)
			}
			if permanent {
				return
			}
			if _, err := cli.Put("kv", []byte("after"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if rounds(pn.Node) != primaryRounds+1 || pn.Node.M.Count(metrics.CheckpointErrors) != 1 {
				t.Fatalf("the next due commit did not retry the round: %d rounds, %d failures",
					rounds(pn.Node)-primaryRounds, pn.Node.M.Count(metrics.CheckpointErrors))
			}
			for _, rn := range nodes {
				if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
					t.Fatal("replica never caught up")
				}
				mustGet(t, rn.R, "after", "v")
				if got := rounds(rn.Node); got != replicaRounds[0]+1 && got != replicaRounds[1]+1 {
					t.Fatalf("the retried round cost replica %s another round", rn.Node.Name)
				}
			}
		})
	}
}

// TestQuorumAckAloneMovesPrimaryClock: with a quorum of 1 of 2, the ack of
// the replica nobody waited for — here 5 ms late on every batch, and held
// back in host time until the write has returned — is on no write's path
// and moves no write's timestamp: the primary's lane advances by the
// commit and the first ack's round trip, also once the late ack has been
// received.
func TestQuorumAckAloneMovesPrimaryClock(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	var hold atomic.Bool
	release := make(chan struct{})
	slow, _ := startTappedReplica(t, c, "n2", func(conn netsim.Conn) netsim.Conn {
		return &tapConn{Conn: conn, beforeSend: func(msg []byte) {
			if msg[0] == mtAck && hold.Load() {
				<-release
			}
		}}
	})
	pn.Attach(c, "n1")
	pn.Attach(c, "n2")
	model := kvModel{}
	model.put(t, pn.Repl, 0)
	waitApplied(t, pn.Repl, rn.R, slow)
	if !waitFor(t, time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
		t.Fatal("set-up acks never arrived")
	}

	const late, writes = 5 * time.Millisecond, 40
	c.Net.SetLink(ReplAddr("n2"), "n0", netsim.Config{Latency: late})
	hold.Store(true)
	lane := pn.Node.Plat.Clock
	start := lane.Now()
	for i := 1; i <= writes; i++ {
		model.put(t, pn.Repl, i) // returns on n1's ack: n2's is held
		release <- struct{}{}
		// The late ack is received before the next write is stamped: at the
		// parent this is exactly when it pushed the shared lane.
		if !waitFor(t, time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
			t.Fatalf("write %d: the held ack never arrived", i)
		}
	}
	hold.Store(false) // every ack was released and nothing more is shipped
	if perWrite := (lane.Now() - start) / writes; perWrite > late/5 {
		t.Fatalf("a write advanced the primary's clock by %v with the quorum's ack one 20 µs round trip away: the 5 ms ack nobody waited for moved it", perWrite)
	}
	model.verify(t, "n1", rn.R.Get)
	model.verify(t, "n2", slow.Get)
}

// TestQuorumTimeIsTheKthAck pins quorumLocked: the quorum is complete at
// the AckReplicas-th smallest delivery time among eligible links that cover
// the target, and finding it allocates nothing.
func TestQuorumTimeIsTheKthAck(t *testing.T) {
	p := &Primary{opts: PrimaryOptions{AckReplicas: 2}}
	for _, l := range []struct {
		applied     int
		ackAt       time.Duration
		quarantined bool
	}{{10, 30, false}, {10, 10, false}, {9, 1, false}, {12, 20, false}, {10, 5, true}} {
		p.replicas = append(p.replicas, &replicaLink{applied: l.applied, ackAt: l.ackAt, quarantined: l.quarantined})
	}
	if n, at := p.quorumLocked(10); n != 3 || at != 20 {
		t.Fatalf("quorum for mark 10 = %d acks complete at %v, want 3 at 20ns", n, at)
	}
	if n, at := p.quorumLocked(11); n != 1 || at != 0 {
		t.Fatalf("quorum for mark 11 = %d acks at %v, want 1 and no time yet", n, at)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.quorumLocked(10) }); allocs != 0 {
		t.Fatalf("quorumLocked allocates %.0f objects per write", allocs)
	}
}

// cutPower fails a node's power under policy, restoring the image an armed
// crash froze if one fired, and reboots it.
func cutPower(t *testing.T, n *Node, policy memsim.FailPolicy, seed int64) {
	t.Helper()
	n.Plat.PowerFail(policy, seed)
	if err := n.Plat.Reboot(); err != nil {
		t.Fatal(err)
	}
}

var cutPolicies = []struct {
	name   string
	policy memsim.FailPolicy
}{{"dropall", memsim.FailDropAll}, {"adversarial", memsim.FailAdversarial}}

// TestBoundaryReplicaPowerCutAroundPostAckRound cuts a replica's power
// between its ack of a boundary batch and its round, and at every step of
// that round (the machine's durable state is frozen one NVRAM operation
// after the point; what the handler does afterwards is a ghost's work and
// is discarded). The acked batch is durable — frames and cursor — whatever
// the round got done: the rebooted replica says hello at the acked mark,
// resumes without a seed, and reads equal the model.
func TestBoundaryReplicaPowerCutAroundPostAckRound(t *testing.T) {
	const limit = 40
	points := append([]string{"after_ack"}, core.CheckpointSteps()...)
	for _, point := range points {
		for _, pol := range cutPolicies {
			t.Run(point+"/"+pol.name, func(t *testing.T) {
				c := newTestCluster(t, "n0", "n1")
				pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1})
				defer pn.Stop(false)
				node := c.Node("n1")

				// The cut is armed once, at point on the second boundary the
				// replica sees, and fires at the next NVRAM operation.
				var mu sync.Mutex
				boundaries, boundaryBatch, armed := 0, false, false
				armAt := func(at string) {
					mu.Lock()
					defer mu.Unlock()
					if at == point && boundaries == 2 && boundaryBatch && !armed {
						armed = true
						node.Plat.ArmCrash(1, pol.policy, 17)
					}
				}
				r, stop := startTappedReplica(t, c, "n1", func(conn netsim.Conn) netsim.Conn {
					return &tapConn{Conn: conn,
						afterRecv: func(msg []byte, _ time.Duration) {
							if b, ok := shippedBatch(msg); ok {
								mu.Lock()
								defer mu.Unlock()
								if boundaryBatch = b.Backfill == b.To; boundaryBatch {
									boundaries++
								}
							}
						},
						beforeSend: func(msg []byte) {
							if msg[0] == mtAck {
								armAt("after_ack")
							}
						},
					}
				})
				replicaLog(r).SetCrashHook(armAt)
				pn.Attach(c, "n1")

				model := kvModel{}
				for i := 0; !node.Plat.CrashTriggered(); i++ {
					if i > 6*limit {
						t.Fatalf("the cut at %s never fired in %d writes", point, i)
					}
					model.put(t, pn.Repl, i)
					// The post-ack round runs after the write returned; the
					// write that crossed the boundary is the last before the cut.
					waitFor(t, time.Second, func() bool {
						mu.Lock()
						defer mu.Unlock()
						return boundaries < 2 || node.Plat.CrashTriggered()
					})
				}
				acked := pn.Repl.Status().Mark
				seeds := pn.Node.M.Count(metrics.ReplReseeds)
				stop()
				cutPower(t, node, pol.policy, 17)

				back, _ := startTappedReplica(t, c, "n1", func(conn netsim.Conn) netsim.Conn { return conn })
				if !back.seeded.Load() || back.Applied() != acked {
					t.Fatalf("rebooted replica: seeded=%v applied=%d, want the acked mark %d", back.seeded.Load(), back.Applied(), acked)
				}
				model.verify(t, "rebooted replica, before resuming", back.Get)
				for i := 1000; i < 1000+2*limit; i++ {
					model.put(t, pn.Repl, i)
				}
				waitApplied(t, pn.Repl, back)
				if got := pn.Node.M.Count(metrics.ReplReseeds) - seeds; got != 0 {
					t.Fatalf("resuming after the cut cost %d seeds, want 0", got)
				}
				model.verify(t, "rebooted replica", back.Get)
				if back.Status().Degraded {
					t.Fatal("rebooted replica reports degraded")
				}
			})
		}
	}
}

// crashAt is the panic a primary's crash hook unwinds Apply with.
type crashAt struct{ step string }

// TestBoundaryPrimaryPowerCutAroundFrozenRound cuts the primary's power at
// every step of a boundary write's round: inside the freeze, between the
// freeze and the ship (ckpt_after_salt: the generation is frozen, nothing
// of this commit has left the machine), between the acks and a durable
// phase B (ckpt_after_pages: written back, not synced), and through phase C.
// Recovery completes the frozen round, every acknowledged write is on all
// three nodes, and the cluster carries on. Marks do not survive a primary's
// recovery (they restart at the recovered log), so the primary returns
// under a fresh epoch and each replica takes the one seed a new
// incarnation costs.
func TestBoundaryPrimaryPowerCutAroundFrozenRound(t *testing.T) {
	const limit = 40
	for _, step := range core.CheckpointSteps() {
		for _, pol := range cutPolicies {
			t.Run(step+"/"+pol.name, func(t *testing.T) {
				c := newTestCluster(t, "n0", "n1", "n2")
				pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 2})
				var nodes []*ReplicaNode
				var replicas []*Replica
				for _, name := range []string{"n1", "n2"} {
					rn, err := c.StartReplica(name, ReplicaOptions{Epoch: 1}, server.Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer rn.Stop()
					nodes, replicas = append(nodes, rn), append(replicas, rn.R)
					pn.Attach(c, name)
				}
				model := kvModel{}
				for i := 0; rounds(pn.Node) < 2; i++ { // CreateTable's is none: two boundaries of steady state
					model.put(t, pn.Repl, i)
				}
				pn.Repl.wal.SetCrashHook(func(s string) {
					if s == step {
						panic(crashAt{s})
					}
				})
				crashed := func(i int) (crashed bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(crashAt); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					model.put(t, pn.Repl, i)
					return false
				}
				i := 5000
				for ; !crashed(i); i++ {
					if i > 5000+3*limit {
						t.Fatalf("step %s never fired", step)
					}
				}
				// The interrupted write was durable before the round began,
				// but nobody acknowledged it: either outcome is legal.
				inFlight := fmt.Sprintf("k%03d", i%97)
				delete(model, inFlight)
				for _, rn := range nodes {
					model.verify(t, rn.Node.Name+" at the cut", rn.R.Get)
				}

				pn.Stop(true)
				cutPower(t, pn.Node, pol.policy, 23)
				opts := DefaultDBOptions()
				opts.CheckpointLimit = limit
				pn2, err := c.StartPrimary("n0", opts, PrimaryOptions{Epoch: 2, AckReplicas: 2}, server.Options{})
				if err != nil {
					t.Fatalf("primary recovery: %v", err)
				}
				defer pn2.Stop(false)
				if frames := pn2.DB.Journal().FramesSinceCheckpoint(); step != core.StepCkptAfterRecord && frames >= limit {
					t.Fatalf("recovery left %d frames unbackfilled: the frozen round was not completed", frames)
				}
				model.verify(t, "recovered primary", pn2.Repl.Get)
				if err := pn2.DB.Check(); err != nil {
					t.Fatal(err)
				}
				for _, name := range []string{"n1", "n2"} {
					pn2.Attach(c, name)
				}
				for j := 9000; j < 9000+2*limit; j++ {
					model.put(t, pn2.Repl, j)
				}
				delete(model, inFlight)
				waitApplied(t, pn2.Repl, replicas...)
				if got := pn2.Node.M.Count(metrics.ReplReseeds); got != 4 {
					t.Fatalf("%d seeds in all, want 4: two to set up, one per replica for the new incarnation", got)
				}
				for _, rn := range nodes {
					model.verify(t, rn.Node.Name, rn.R.Get)
				}
				model.verify(t, "primary", pn2.Repl.Get)
			})
		}
	}
}

// TestBoundaryMixedVersionPairs: FRAMES keeps its layout, so the two orders
// interoperate. An old primary announces nothing (its messages end after
// the frames, the existing decode-without-watermark case): a new replica
// behind it acks every batch first and checkpoints on its safety net
// alone. An old replica checkpoints before its ack: a new primary behind
// it waits out that round in its ack wait, as every primary did before,
// and stays correct — one replica round per boundary, reads equal the
// model.
func TestBoundaryMixedVersionPairs(t *testing.T) {
	const limit = 40
	t.Run("old-primary", func(t *testing.T) {
		c := newTestCluster(t, "n0", "n1")
		pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1})
		defer pn.Stop(false)
		rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer rn.Stop()
		dial := c.Dialer("n0")
		pn.Repl.AddReplica(ReplAddr("n1"), func(addr string) (netsim.Conn, error) {
			conn, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return stripWatermark{conn}, nil
		})
		model := kvModel{}
		model.put(t, pn.Repl, 0)
		waitApplied(t, pn.Repl, rn.R)
		before, startMark := rounds(rn.Node), pn.Repl.wal.Mark()
		for i := 1; pn.Repl.wal.Mark()-startMark < checkpointNet+limit; i++ {
			model.put(t, pn.Repl, i)
		}
		waitApplied(t, pn.Repl, rn.R)
		if got := rounds(rn.Node) - before; got != 1 {
			t.Fatalf("a replica that is announced nothing ran %d rounds over %d frames, want its safety net's 1",
				got, pn.Repl.wal.Mark()-startMark)
		}
		model.verify(t, "replica behind an old primary", rn.R.Get)
	})
	t.Run("old-replica", func(t *testing.T) {
		c := newTestCluster(t, "n0", "n1")
		pn := startBoundaryPrimary(t, c, limit, PrimaryOptions{Epoch: 1, AckReplicas: 1})
		defer pn.Stop(false)
		node := c.Node("n1")
		var r *Replica
		boundaryBatch := false // handler goroutine only
		r, _ = startTappedReplica(t, c, "n1", func(conn netsim.Conn) netsim.Conn {
			return &tapConn{Conn: conn,
				afterRecv: func(msg []byte, _ time.Duration) {
					if b, ok := shippedBatch(msg); ok {
						boundaryBatch = b.Backfill == b.To
					}
				},
				beforeSend: func(msg []byte) {
					if msg[0] == mtAck && boundaryBatch {
						r.checkpointAfterAck() // the old order: the round, then the ack
					}
				},
			}
		})
		pn.Attach(c, "n1")
		model := kvModel{}
		model.put(t, pn.Repl, 0)
		waitApplied(t, pn.Repl, r)
		primaryRounds, replicaRounds := rounds(pn.Node), rounds(node)
		for i := 1; rounds(pn.Node) < primaryRounds+3; i++ {
			model.put(t, pn.Repl, i)
		}
		model.put(t, pn.Repl, 1<<20)
		waitApplied(t, pn.Repl, r)
		if got, want := rounds(node)-replicaRounds, rounds(pn.Node)-primaryRounds; got != want {
			t.Fatalf("the old-order replica ran %d rounds for the primary's %d", got, want)
		}
		model.verify(t, "old-order replica", r.Get)
	})
}

// stripWatermark makes a sender look like one that predates the FRAMES
// watermark field: its messages end after the frames.
type stripWatermark struct{ netsim.Conn }

func (c stripWatermark) Send(msg []byte) error {
	if msg[0] == mtFrames {
		msg = msg[:len(msg)-8]
	}
	return c.Conn.Send(msg)
}

// TestShipStampIsAVirtualEvent: a batch leaves on a link when its last
// frame was committed or when the ack that freed the link was delivered,
// whichever is later — not at whatever the primary's shared lane reads
// when the sender goroutine gets to run. n2's link is busy (its ack is
// held) while write 2 commits; then the lane runs on by 50 ms, as it does
// through the checkpoint round that follows a quorum's ack; only then is
// the ack released and batch 2 shipped. Stamped off the lane, the batch
// would reach n2 50 ms "later", n2's own round after a boundary batch
// would end that much after the primary's, and the next read from n2
// would carry the difference into a client's clock.
func TestShipStampIsAVirtualEvent(t *testing.T) {
	c := newTestCluster(t, "n0", "n1", "n2")
	pn := startPrimaryWithTable(t, c, "n0", 1, 1)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Stop()
	var hold atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	slow, _ := startTappedReplica(t, c, "n2", func(conn netsim.Conn) netsim.Conn {
		return &tapConn{Conn: conn, beforeSend: func(msg []byte) {
			if msg[0] == mtAck && hold.Load() {
				held <- struct{}{}
				<-release
			}
		}}
	})
	pn.Attach(c, "n1")
	pn.Attach(c, "n2")
	model := kvModel{}
	model.put(t, pn.Repl, 0)
	waitApplied(t, pn.Repl, rn.R, slow)
	if !waitFor(t, time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
		t.Fatal("set-up acks never arrived")
	}

	hold.Store(true)
	model.put(t, pn.Repl, 1) // returns on n1's ack; n2 applies it and its ack is held: the link is busy
	model.put(t, pn.Repl, 2) // n2's backlog
	<-held                   // however late n2 gets to it, the hold is in place before time moves
	lane := pn.Node.Plat.Clock
	committed := lane.Now()
	const round = 50 * time.Millisecond
	lane.Advance(round)
	hold.Store(false)
	release <- struct{}{}
	waitApplied(t, pn.Repl, slow)
	if !waitFor(t, time.Second, func() bool { return pn.Repl.Status().Lag == 0 }) {
		t.Fatal("n2's ack for the second batch never arrived")
	}
	if n2 := c.Node("n2").Plat.Clock.Now(); n2 > committed+round/2 {
		t.Fatalf("n2's clock reads %v after a batch committed by %v: it was stamped off the primary's lane, %v further on", n2, committed, round)
	}
	for addr, ewma := range pn.Repl.AckLatencies() {
		if ewma > round/2 || ewma < 0 {
			t.Fatalf("link %s: send-to-ack estimate %v holds the primary's %v of other work", addr, ewma, round)
		}
	}
	model.verify(t, "n1", rn.R.Get)
	model.verify(t, "n2", slow.Get)
}
