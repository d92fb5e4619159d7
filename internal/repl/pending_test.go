package repl

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/memsim"
)

// TestReplicaAppliesOverRecoveredPendingPages: a replica reopened after a
// power cut holds its recovered pages pending. A batch that patches one
// builds it from the replica's database file and applies on top; a batch
// that touches one whose file block went bad is refused — nacked, the
// applied mark unchanged — instead of being applied over zeros or a stale
// image, and reads of that page report the device error.
func TestReplicaAppliesOverRecoveredPendingPages(t *testing.T) {
	c := newTestCluster(t, "n1")
	node := c.Node("n1")
	r, err := NewReplica(node.Plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint32][]byte)
	var seed []seedPage
	for pgno := uint32(1); pgno <= 3; pgno++ {
		model[pgno] = bytes.Repeat([]byte{byte(0x10 * pgno)}, 4096)
		if pgno == 1 {
			model[pgno] = headerPage(3)
		}
		seed = append(seed, seedPage{pgno: pgno, data: model[pgno]})
	}
	if a := r.applySeed(seedMsg{incarnation: 1, mark: 3, pageSize: 4096, pages: seed}); !a.ok {
		t.Fatal("seed refused")
	}
	// apply ships one frame patching pgno at off and reports the ack.
	apply := func(r *Replica, pgno uint32, off int, fill byte) bool {
		fr := core.ExportFrame{Pgno: pgno, Off: uint32(off), Payload: bytes.Repeat([]byte{fill}, 40)}
		b := core.ExportBatch{From: r.Applied(), To: r.Applied() + 1, Frames: []core.ExportFrame{fr}}
		a, _ := r.applyFrames(framesMsg{incarnation: 1, batch: b, endChain: core.ChainExport(r.pos.Chain, b)})
		if a.ok {
			model[pgno] = bytes.Clone(model[pgno])
			copy(model[pgno][off:], fr.Payload)
		}
		return a.ok
	}
	// The seed's round backfilled every page: these frames are the pages'
	// first unbackfilled ones, differential over the file.
	if !apply(r, 2, 100, 0xA2) || !apply(r, 3, 200, 0xA3) {
		t.Fatal("batch refused before the power cut")
	}

	node.Plat.PowerFail(memsim.FailDropAll, 7)
	if err := node.Plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	f, err := node.Plat.FS.Open("n1.db")
	if err != nil {
		t.Fatal(err)
	}
	node.Plat.Flash.MarkBad(f.Extents()[3-1])
	r2, err := NewReplica(node.Plat, "n1.db", ReplicaOptions{Epoch: 1})
	if err != nil {
		t.Fatalf("reopen over a pending page with a bad base: %v", err)
	}
	if r2.Applied() != r.Applied() {
		t.Fatalf("replica resumed at %d, want %d", r2.Applied(), r.Applied())
	}

	if !apply(r2, 2, 300, 0xB2) {
		t.Fatal("batch over a pending page refused")
	}
	log := replicaLog(r2)
	if got, _, err := log.PageImageAt(2, log.Mark()); err != nil || !bytes.Equal(got, model[2]) {
		t.Fatalf("page 2 after the apply: err %v, equal %v", err, bytes.Equal(got, model[2]))
	}
	applied := r2.Applied()
	if apply(r2, 3, 400, 0xB3) {
		t.Fatal("batch applied over a page whose base is unreadable")
	}
	if r2.Applied() != applied {
		t.Fatalf("a refused batch moved the applied mark %d -> %d", applied, r2.Applied())
	}
	if _, _, err := log.PageImageAt(3, log.Mark()); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("read of the unreadable page = %v, want the device error", err)
	}
}
