// Seeds and the pages a batch may name: what a slow seed install costs
// the primary, and what a batch naming a page past the database does to
// the replica.
package repl

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// TestSlowSeedInstallCostsOneSeed: a replica whose install of a seed
// outlasts a frame batch's ack wait still costs the primary one seed. The
// tap holds the replica's rw read lock for 1.5 s as the seed arrives, so
// the install waits behind it; a primary that gave up on the ack meanwhile
// would redial, read a hello that still carries the unseeded position, and
// ship a second seed.
func TestSlowSeedInstallCostsOneSeed(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	m := kvModel{}
	for i := range 20 {
		m.put(t, pn.Repl, i)
	}
	var r *Replica
	var held atomic.Bool
	r, _ = startTappedReplica(t, c, "n1", func(conn netsim.Conn) netsim.Conn {
		return &tapConn{Conn: conn, afterRecv: func(msg []byte, _ time.Duration) {
			if msg[0] == mtSeed && held.CompareAndSwap(false, true) {
				r.rw.RLock()
				time.Sleep(1500 * time.Millisecond)
				r.rw.RUnlock()
			}
		}}
	})
	pn.Repl.AddReplica(ReplAddr("n1"), c.Dialer("n0"))
	waitApplied(t, pn.Repl, r)
	m.put(t, pn.Repl, 20)
	waitApplied(t, pn.Repl, r)
	if !held.Load() {
		t.Fatal("no seed reached the replica")
	}
	if n := pn.Node.M.Count(metrics.ReplReseeds); n != 1 {
		t.Fatalf("a seed installed in 1.5 s cost %d seeds, want 1", n)
	}
	m.verify(t, "replica", r.Get)
}

// TestFramePastPageCountNacked: a FRAMES batch whose chain is valid but
// which names a page past the database's page count is nacked, and
// nothing of it is applied. Applied, it would commit a page the database
// file cannot hold, which the replica's next round writes back. After
// the nack the replica takes the re-seed its primary answers a nack with,
// serves reads, and checkpoints.
func TestFramePastPageCountNacked(t *testing.T) {
	g := newCursorRig(t)
	bad := core.ExportBatch{From: cursorRigSeedMark, To: cursorRigSeedMark + 1, Frames: []core.ExportFrame{
		{Pgno: 1 << 31, Full: true, Payload: bytes.Repeat([]byte{0x5A}, 64)},
	}}
	if g.r.ApplyBatch(1, bad) {
		t.Fatal("a frame for page 1<<31 of a 4-page database was applied")
	}
	if g.r.Applied() != cursorRigSeedMark || !g.holds() {
		t.Fatalf("the nacked batch moved the replica: applied %d", g.r.Applied())
	}
	seed, model := g.lowerReseed()
	if a := g.r.applySeed(seed); !a.ok {
		t.Fatal("the re-seed after the nack was refused")
	}
	g.model = model
	if !g.holds() || g.r.Degraded() != nil {
		t.Fatalf("the re-seeded replica does not serve its seed (degraded %v)", g.r.Degraded())
	}
	g.r.rw.Lock()
	g.r.checkpoint()
	err := g.r.ckptErr
	g.r.rw.Unlock()
	if err != nil {
		t.Fatalf("the round after the re-seed: %v", err)
	}
}
