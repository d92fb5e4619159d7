// The persistent cursor record: what one update costs, and what a power
// cut at every point of an apply leaves behind.
package repl

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/server"
)

// cursorRig is a replica driven by hand: a seed of four pages, then
// batches of one differential frame each, with the page images every
// applied mark must show kept beside it.
type cursorRig struct {
	t     *testing.T
	plat  *platform.Platform
	r     *Replica
	model map[uint32][]byte
}

const cursorRigSeedMark = 10

func newCursorRig(t *testing.T) *cursorRig {
	t.Helper()
	node := newTestCluster(t, "n1").Node("n1")
	g := &cursorRig{t: t, plat: node.Plat, model: make(map[uint32][]byte)}
	g.reopen()
	seed := seedMsg{incarnation: 1, mark: cursorRigSeedMark, pageSize: 4096}
	g.model[1] = headerPage(4)
	for pgno := uint32(2); pgno <= 4; pgno++ {
		g.model[pgno] = bytes.Repeat([]byte{0xE0 + byte(pgno)}, 4096)
	}
	for pgno := uint32(1); pgno <= 4; pgno++ {
		seed.pages = append(seed.pages, seedPage{pgno: pgno, data: g.model[pgno]})
	}
	if a := g.r.applySeed(seed); !a.ok {
		t.Fatal("seed refused")
	}
	return g
}

func (g *cursorRig) reopen() {
	g.t.Helper()
	r, err := NewReplica(g.plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		g.t.Fatal(err)
	}
	g.r = r
}

// powerCut fails the machine's power, reboots it and reopens the replica.
func (g *cursorRig) powerCut(policy memsim.FailPolicy, seed int64) {
	g.t.Helper()
	g.plat.PowerFail(policy, seed)
	if err := g.plat.Reboot(); err != nil {
		g.t.Fatal(err)
	}
	g.reopen()
}

// batch is the k-th batch (k >= 1): one frame patching 40 bytes of a page
// at mark cursorRigSeedMark+k-1. boundary makes it announce a primary
// checkpoint, so the replica's round runs inside the apply.
func (g *cursorRig) batch(k int, boundary bool) core.ExportBatch {
	b := core.ExportBatch{From: cursorRigSeedMark + k - 1, To: cursorRigSeedMark + k}
	if boundary {
		b.Backfill = b.To
	}
	b.Frames = []core.ExportFrame{{Pgno: uint32(2 + k%3), Off: uint32(64 * k), Payload: bytes.Repeat([]byte{byte(k)}, 40)}}
	return b
}

// patch advances the model over a batch.
func (g *cursorRig) patch(b core.ExportBatch) {
	for _, fr := range b.Frames {
		img := bytes.Clone(g.model[fr.Pgno])
		copy(img[fr.Off:], fr.Payload)
		g.model[fr.Pgno] = img
	}
}

// holds reports whether the replica's journal state equals the model.
func (g *cursorRig) holds() bool {
	g.t.Helper()
	snap, err := g.r.db.ExportPages()
	if err != nil {
		g.t.Fatal(err)
	}
	for pgno, want := range g.model {
		if !bytes.Equal(snap.Pages[pgno-1].Data, want) {
			return false
		}
	}
	return true
}

func (g *cursorRig) apply(b core.ExportBatch) {
	g.t.Helper()
	if !g.r.ApplyBatch(1, b) {
		g.t.Fatalf("batch [%d,%d) refused at applied %d", b.From, b.To, g.r.Applied())
	}
	g.patch(b)
}

// TestCursorUpdateIsOneFlushOneBarrier pins the record's cost: one store,
// one flush behind one kernel crossing, one persist barrier — and nothing
// from the heap manager, whose root table the cursor no longer touches.
func TestCursorUpdateIsOneFlushOneBarrier(t *testing.T) {
	g := newCursorRig(t)
	g.apply(g.batch(1, false))
	m := g.plat.Metrics
	before := m.Snapshot()
	g.r.saveCursor(false)
	d := m.Snapshot().Sub(before)
	for name, want := range map[string]int64{
		metrics.PersistBarrier: 1,
		metrics.CacheLineFlush: 1,
		metrics.Syscall:        1,
		metrics.MemoryBarrier:  2,
		metrics.HeapAlloc:      0,
	} {
		if got := d.Count(name); got != want {
			t.Errorf("%s = %d per cursor update, want %d", name, got, want)
		}
	}
}

// TestCursorPowerCutAtEveryOp cuts the power at every NVRAM operation of
// one apply — the journal append, the cursor store, its flush, its
// barrier and, on a boundary batch, the checkpoint round behind it —
// under drop-all and under adversarial (torn, spontaneously evicted)
// line survival. Whatever survives: the replica is seeded, its cursor is
// the batch's start or its end, a cursor at the end is never ahead of
// the journal's frames, and a stale-low cursor re-applies the batch
// idempotently whether or not the journal already held it.
func TestCursorPowerCutAtEveryOp(t *testing.T) {
	for _, boundary := range []bool{false, true} {
		// Measure the window once, on a rig that is then discarded.
		probe := newCursorRig(t)
		probe.apply(probe.batch(1, false))
		probe.apply(probe.batch(2, false))
		ops := probe.plat.OpCount()
		probe.apply(probe.batch(3, boundary))
		window := probe.plat.OpCount() - ops
		if window < 10 {
			t.Fatalf("one apply is %d NVRAM operations: too few to be the append and the cursor", window)
		}
		low, high := 0, 0
		for _, policy := range []memsim.FailPolicy{memsim.FailDropAll, memsim.FailAdversarial} {
			for at := int64(1); at <= window; at++ {
				name := fmt.Sprintf("boundary=%v/policy=%d/op=%d", boundary, policy, at)
				g := newCursorRig(t)
				g.apply(g.batch(1, false))
				g.apply(g.batch(2, false))
				before := maps.Clone(g.model) // patch replaces images, never writes into them
				b := g.batch(3, boundary)
				g.plat.ArmCrash(at, policy, at)
				g.r.ApplyBatch(1, b) // a ghost past the trigger: its ack means nothing
				g.powerCut(policy, at)

				if !g.r.seeded.Load() {
					t.Fatalf("%s: one cut left no valid cursor slot", name)
				}
				switch g.r.Applied() {
				case b.To:
					high++
					g.patch(b)
					if !g.holds() {
						t.Fatalf("%s: cursor at %d is ahead of the journal's frames", name, b.To)
					}
				case b.From:
					low++
					g.model = before
					if held := g.holds(); !held {
						// The frames were durable, only the cursor was not.
						g.patch(b)
						if !g.holds() {
							t.Fatalf("%s: journal holds neither the batch's start nor its end", name)
						}
					}
					g.model = before
					g.apply(b)
					if !g.holds() {
						t.Fatalf("%s: re-applying from a stale-low cursor diverged", name)
					}
				default:
					t.Fatalf("%s: cursor at %d, want %d or %d", name, g.r.Applied(), b.From, b.To)
				}
			}
		}
		if low == 0 || high == 0 {
			t.Fatalf("boundary=%v: %d stale-low and %d advanced recoveries: the sweep missed a side of the cursor store", boundary, low, high)
		}
	}
}

// TestCursorTornRecordFallsBackToStaleSlot: a record that reached NVRAM
// only in part fails its checksum, the other slot — one batch stale —
// is the cursor, and the batch re-applies. Two bad slots read as
// unseeded, which only a seed heals.
func TestCursorTornRecordFallsBackToStaleSlot(t *testing.T) {
	g := newCursorRig(t)
	g.apply(g.batch(1, false))
	g.apply(g.batch(2, false))
	dev := g.plat.Heap.Device()
	tear := func(slot int) {
		// The applied mark and half the chain of a newer record over the
		// old one's incarnation and checksum.
		addr := g.r.cursorAddr + uint64(slot*g.r.cursorStride())
		dev.Write(addr+8, []byte{0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0xAB, 0xCD})
		dev.Flush(addr, addr+cursorRecSize)
		dev.PersistBarrier()
	}
	newest := g.r.cursorSlot
	tear(newest)
	g.powerCut(memsim.FailDropAll, 1)
	if !g.r.seeded.Load() || g.r.Applied() != cursorRigSeedMark+1 || g.r.cursorSlot == newest {
		t.Fatalf("after a torn newest slot: seeded=%v applied=%d slot=%d; want the stale slot's %d",
			g.r.seeded.Load(), g.r.Applied(), g.r.cursorSlot, cursorRigSeedMark+1)
	}
	if !g.holds() { // the journal is ahead of the cursor, never behind
		t.Fatal("journal lost the second batch")
	}
	if !g.r.ApplyBatch(1, g.batch(2, false)) || !g.holds() {
		t.Fatal("re-applying the batch the stale slot predates diverged")
	}

	tear(0)
	tear(1)
	g.powerCut(memsim.FailDropAll, 2)
	if g.r.seeded.Load() || !g.r.Status().Degraded {
		t.Fatal("two bad slots must read as unseeded")
	}
	if g.r.ApplyBatch(1, g.batch(3, false)) {
		t.Fatal("an unseeded replica accepted frames")
	}
	seed := seedMsg{incarnation: 2, mark: 4, pageSize: 4096, pages: []seedPage{{pgno: 1, data: g.model[1]}}}
	if a := g.r.applySeed(seed); !a.ok {
		t.Fatal("healing seed refused")
	}
	// The seed's mark is below the old slots': it must still win the load.
	g.powerCut(memsim.FailDropAll, 3)
	if !g.r.seeded.Load() || g.r.Applied() != 4 || g.r.incarnation != 2 {
		t.Fatalf("after the healing seed: seeded=%v applied=%d incarnation=%d", g.r.seeded.Load(), g.r.Applied(), g.r.incarnation)
	}
}

// TestCursorBlockFreedByPromote: promotion deletes the cursor and gives
// its block back to the heap.
func TestCursorBlockFreedByPromote(t *testing.T) {
	c := newTestCluster(t, "n0", "n1")
	pn := startPrimaryWithTable(t, c, "n0", 1, 0)
	defer pn.Stop(false)
	rn, err := c.StartReplica("n1", ReplicaOptions{Epoch: 1}, server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pn.Attach(c, "n1")
	if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 5*time.Second) {
		t.Fatal("replica never seeded")
	}
	rn.Stop()
	h, addr := rn.Node.Plat.Heap, rn.R.cursorAddr
	if st, err := h.StateOf(addr); err != nil || st != heapo.StateInUse {
		t.Fatalf("seeded replica's cursor block at %#x: state %d err %v", addr, st, err)
	}
	d, err := rn.R.Promote(DefaultDBOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, ok := h.GetRoot(rootCursor); ok {
		t.Fatal("cursor root survived promotion")
	}
	if st, err := h.StateOf(addr); err != nil || st != heapo.StateFree {
		t.Fatalf("cursor block after promotion: state %d err %v, want free", st, err)
	}
}
