// The replica's position under the commit mark: what an applied batch
// costs, what a power cut at every point of an apply or a promotion
// leaves behind.
package repl

import (
	"bytes"
	"fmt"
	"maps"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/platform"
)

// cursorRig is a replica driven by hand: a seed of four pages, then
// batches of one differential frame each, with the page images every
// applied mark must show kept beside it.
type cursorRig struct {
	t     *testing.T
	c     *Cluster
	plat  *platform.Platform
	r     *Replica
	model map[uint32][]byte
}

const cursorRigSeedMark = 10

func newCursorRig(t *testing.T) *cursorRig {
	t.Helper()
	c := newTestCluster(t, "n1")
	g := &cursorRig{t: t, c: c, plat: c.Node("n1").Plat, model: make(map[uint32][]byte)}
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

// holds reports whether the replica's journal state equals the model,
// page 1's position bytes aside: the model's shipped header leaves them
// zero, the replica's own holds its position there.
func (g *cursorRig) holds() bool {
	g.t.Helper()
	snap, err := g.r.db.ExportPages()
	if err != nil {
		g.t.Fatal(err)
	}
	const posEnd = pager.HeaderPositionOff + 20
	for pgno, want := range g.model {
		got := snap.Pages[pgno-1].Data
		if pgno == 1 {
			if !bytes.Equal(got[:pager.HeaderPositionOff], want[:pager.HeaderPositionOff]) || !bytes.Equal(got[posEnd:], want[posEnd:]) {
				return false
			}
		} else if !bytes.Equal(got, want) {
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

// lowerReseed is a seed of incarnation 2 at a mark below every mark of
// the rig's incarnation 1, and the model it leaves: its data pages differ
// from the model's in 40 bytes each, so that its commit logs little.
func (g *cursorRig) lowerReseed() (seedMsg, map[uint32][]byte) {
	seed := seedMsg{incarnation: 2, mark: 4, pageSize: 4096}
	model := map[uint32][]byte{1: headerPage(4)}
	for pgno := uint32(2); pgno <= 4; pgno++ {
		model[pgno] = bytes.Clone(g.model[pgno])
		copy(model[pgno][512:], bytes.Repeat([]byte{0xA0 + byte(pgno)}, 40))
	}
	for pgno := uint32(1); pgno <= 4; pgno++ {
		seed.pages = append(seed.pages, seedPage{pgno: pgno, data: model[pgno]})
	}
	return seed, model
}

// TestCursorApplyCostsItsImport pins what an applied batch costs: exactly
// the ImportFrames commit of its frames, which logs the batch's page and
// page 1's header — nothing beside it on the device, nothing from the
// heap manager.
func TestCursorApplyCostsItsImport(t *testing.T) {
	var deltas [2]metrics.Snapshot
	for i, viaReplica := range []bool{true, false} {
		g := newCursorRig(t)
		g.apply(g.batch(1, false))
		g.apply(g.batch(2, false))
		b := g.batch(3, false)
		pos := db.Position{Incarnation: 1, Applied: b.To, Chain: core.ChainExport(g.r.pos.Chain, b)}
		before := g.plat.Metrics.Snapshot()
		if viaReplica {
			if !g.r.ApplyBatch(1, b) {
				t.Fatal("batch refused")
			}
		} else if err := g.r.db.ImportFrames(b.Frames, pos); err != nil {
			t.Fatal(err)
		}
		deltas[i] = g.plat.Metrics.Snapshot().Sub(before)
		if got, err := g.r.db.ImportedPosition(); err != nil || got != pos {
			t.Fatalf("committed position %+v (err %v), want %+v", got, err, pos)
		}
	}
	apply, imp := deltas[0], deltas[1]
	if n := apply.Count(metrics.ReplBatchesApplied); n != 1 {
		t.Fatalf("%s = %d per batch", metrics.ReplBatchesApplied, n)
	}
	delete(apply.Counts, metrics.ReplBatchesApplied)
	if !maps.Equal(apply.Counts, imp.Counts) || !maps.Equal(apply.Times, imp.Times) {
		t.Fatalf("an applied batch costs more than its import:\napply  %v\nimport %v", apply, imp)
	}
	if n := apply.Count(metrics.WALFrames); n != 2 {
		t.Errorf("%s = %d per batch, want 2: the batch's page and page 1", metrics.WALFrames, n)
	}
	if n := apply.Count(metrics.HeapAlloc); n != 0 {
		t.Errorf("%s = %d per batch, want 0", metrics.HeapAlloc, n)
	}
}

// TestCursorPowerCutAtEveryOp cuts the power at every NVRAM operation of
// one apply — a batch, a batch that announces a boundary (so the round
// behind it is in the window), and a re-seed of a new incarnation at a
// lower mark — under drop-all and under adversarial (torn, spontaneously
// evicted) line survival. Whatever survives, the recovered position and
// the recovered pages agree: the apply's start with the old pages, or its
// end with the new ones. Never one without the other.
func TestCursorPowerCutAtEveryOp(t *testing.T) {
	// step applies one input to a rig after its first two batches and
	// returns the state it leaves.
	for _, in := range []struct {
		name string
		step func(g *cursorRig) rigState
	}{
		{"batch", func(g *cursorRig) rigState { return g.stepBatch(false) }},
		{"boundary", func(g *cursorRig) rigState { return g.stepBatch(true) }},
		{"lower-reseed", func(g *cursorRig) rigState {
			seed, model := g.lowerReseed()
			g.r.applySeed(seed)
			return rigState{db.Position{Incarnation: 2, Applied: seed.mark, Chain: core.ExportChainSeed(seed.mark)}, model}
		}},
	} {
		// Measure the window once, on a rig that is then discarded.
		probe := newCursorRig(t)
		probe.apply(probe.batch(1, false))
		probe.apply(probe.batch(2, false))
		ops := probe.plat.OpCount()
		in.step(probe)
		window := probe.plat.OpCount() - ops
		if window < 10 {
			t.Fatalf("%s: one apply is %d NVRAM operations: too few to be a commit", in.name, window)
		}
		start, end := 0, 0
		for _, policy := range []memsim.FailPolicy{memsim.FailDropAll, memsim.FailAdversarial} {
			for at := int64(1); at <= window; at = nextCut(at, window) {
				name := fmt.Sprintf("%s/policy=%d/op=%d", in.name, policy, at)
				g := newCursorRig(t)
				g.apply(g.batch(1, false))
				g.apply(g.batch(2, false))
				from := rigState{g.r.pos, g.model}
				g.plat.ArmCrash(at, policy, at)
				to := in.step(g) // a ghost past the trigger: its ack means nothing
				g.powerCut(policy, at)

				if !g.r.seeded.Load() {
					t.Fatalf("%s: the cut left the replica unseeded", name)
				}
				switch g.r.pos {
				case from.pos:
					start++
					g.model = from.model
				case to.pos:
					end++
					g.model = to.model
				default:
					t.Fatalf("%s: position %+v, want %+v or %+v", name, g.r.pos, from.pos, to.pos)
				}
				if !g.holds() {
					t.Fatalf("%s: position %+v recovered without its pages", name, g.r.pos)
				}
			}
		}
		if start == 0 || end == 0 {
			t.Fatalf("%s: %d recoveries at the start and %d at the end: the sweep missed a side of the commit", in.name, start, end)
		}
	}
}

// nextCut steps a power-cut sweep over a window of NVRAM operations:
// every op in the plain run; under the race detector, where the full
// sweeps are the package's longest tests, every fourth op and the last.
// Op 1 and the last op still land on both sides of the commit.
func nextCut(at, window int64) int64 {
	if !raceEnabled || at == window {
		return at + 1
	}
	return min(at+4, window)
}

// rigState is a position and the pages that must come with it.
type rigState struct {
	pos   db.Position
	model map[uint32][]byte
}

// stepBatch applies the rig's third batch and returns the state it
// leaves; the rig's own model stays at the batch's start.
func (g *cursorRig) stepBatch(boundary bool) rigState {
	b := g.batch(3, boundary)
	pos := db.Position{Incarnation: 1, Applied: b.To, Chain: core.ChainExport(g.r.pos.Chain, b)}
	g.r.ApplyBatch(1, b)
	start := g.model
	g.model = maps.Clone(start) // patch replaces images, never writes into them
	g.patch(b)
	end := g.model
	g.model = start
	return rigState{pos, end}
}

// TestCursorClearedByPromote: promotion's first commit clears the
// position, so the node reopened as a replica is unseeded and its HELLO
// asks for a seed. A power cut at every NVRAM operation of Promote leaves
// the old seeded replica, pages and position together, or an unseeded
// one.
func TestCursorClearedByPromote(t *testing.T) {
	promote := func(g *cursorRig) {
		if d, err := g.r.Promote(DefaultDBOptions()); err == nil {
			d.Abandon()
		}
	}
	g := newCursorRig(t)
	g.apply(g.batch(1, false))
	d, err := g.r.Promote(DefaultDBOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pos, err := d.ImportedPosition(); err != nil || pos != (db.Position{}) {
		t.Fatalf("promoted database holds position %+v (err %v)", pos, err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	g.reopen()
	if g.r.seeded.Load() {
		t.Fatal("a replica reopened after its promotion is seeded")
	}
	l, err := g.c.Net.Listen(ReplAddr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	go g.r.Serve(l)
	defer g.r.Close()
	conn, err := g.c.Net.Dial("probe", ReplAddr("n1"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg, err := conn.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := decodeHello(msg); err != nil || !h.needSeed {
		t.Fatalf("HELLO after promotion = %+v (err %v), want a seed request", h, err)
	}

	probe := newCursorRig(t)
	probe.apply(probe.batch(1, false))
	ops := probe.plat.OpCount()
	promote(probe)
	window := probe.plat.OpCount() - ops
	seeded, unseeded := 0, 0
	for _, policy := range []memsim.FailPolicy{memsim.FailDropAll, memsim.FailAdversarial} {
		for at := int64(1); at <= window; at = nextCut(at, window) {
			name := fmt.Sprintf("policy=%d/op=%d", policy, at)
			g := newCursorRig(t)
			g.apply(g.batch(1, false))
			want := g.r.pos
			g.plat.ArmCrash(at, policy, at)
			promote(g)
			g.powerCut(policy, at)
			if !g.r.seeded.Load() {
				unseeded++
				continue
			}
			seeded++
			if g.r.pos != want || !g.holds() {
				t.Fatalf("%s: seeded at %+v, want the old replica at %+v with its pages", name, g.r.pos, want)
			}
		}
	}
	if seeded == 0 || unseeded == 0 {
		t.Fatalf("%d seeded and %d unseeded recoveries over %d operations: the sweep missed a side of the clearing commit", seeded, unseeded, window)
	}
}
