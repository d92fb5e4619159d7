package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memsim"
	"repro/internal/pager"
)

// resolverFor returns a PreparedResolver that commits exactly the ids
// in decided.
func resolverFor(decided ...uint64) func(uint64) bool {
	set := make(map[uint64]bool, len(decided))
	for _, g := range decided {
		set[g] = true
	}
	return func(g uint64) bool { return set[g] }
}

func prepareOne(t *testing.T, w *NVWAL, pgno uint32, fill byte, gtx uint64) {
	t.Helper()
	if err := w.PrepareTransaction([]pager.Frame{{Pgno: pgno, Data: fullPage(fill)}}, gtx); err != nil {
		t.Fatalf("PrepareTransaction(gtx=%d): %v", gtx, err)
	}
}

func TestPrepareCompletePublishes(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.Cfg.Label(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, v.Cfg)
			commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
			prepareOne(t, w, 3, 0x22, 7)
			// Prepared but undecided: nothing is visible yet.
			if _, ok := w.PageVersion(3); ok {
				t.Fatal("prepared frames visible before CompletePrepared")
			}
			if got := w.PreparedGtx(); got != 7 {
				t.Fatalf("PreparedGtx = %d, want 7", got)
			}
			txnsBefore := e.m.Count("transactions")
			if err := w.CompletePrepared(7); err != nil {
				t.Fatal(err)
			}
			got, ok := w.PageVersion(3)
			if !ok || !bytes.Equal(got, fullPage(0x22)) {
				t.Fatalf("PageVersion(3) after complete wrong (ok=%v)", ok)
			}
			if w.PreparedGtx() != 0 {
				t.Fatal("PreparedGtx nonzero after complete")
			}
			if d := e.m.Count("transactions") - txnsBefore; d != 1 {
				t.Fatalf("complete counted %d transactions, want 1", d)
			}
			// The engine accepts ordinary commits again.
			commitPages(t, w, map[uint32][]byte{4: fullPage(0x33)})
		})
	}
}

func TestPrepareAbortUnwinds(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
	blocksBefore := w.Blocks()
	prepareOne(t, w, 3, 0x22, 9)
	if err := w.AbortPrepared(9); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.PageVersion(3); ok {
		t.Fatal("aborted prepared frames visible")
	}
	if got := w.Blocks(); got != blocksBefore {
		t.Fatalf("abort leaked blocks: %d, want %d", got, blocksBefore)
	}
	// The log is intact: commits proceed and survive a reboot.
	commitPages(t, w, map[uint32][]byte{4: fullPage(0x33)})
	w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 1)
	if got, ok := w2.PageVersion(4); !ok || !bytes.Equal(got, fullPage(0x33)) {
		t.Fatalf("post-abort commit lost across reboot (ok=%v)", ok)
	}
	if got, ok := w2.PageVersion(2); !ok || !bytes.Equal(got, fullPage(0x11)) {
		t.Fatalf("pre-abort commit lost across reboot (ok=%v)", ok)
	}
}

func TestPrepareBlocksOtherWork(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
	prepareOne(t, w, 3, 0x22, 5)
	if err := w.CommitTransaction([]pager.Frame{{Pgno: 4, Data: fullPage(0x44)}}); !errors.Is(err, ErrPreparedPending) {
		t.Fatalf("commit during pending prepare: %v, want ErrPreparedPending", err)
	}
	if err := w.PrepareTransaction([]pager.Frame{{Pgno: 5, Data: fullPage(0x55)}}, 6); !errors.Is(err, ErrPreparedPending) {
		t.Fatalf("second prepare: %v, want ErrPreparedPending", err)
	}
	if err := w.Checkpoint(); !errors.Is(err, pager.ErrCheckpointPending) {
		t.Fatalf("checkpoint during pending prepare: %v, want ErrCheckpointPending", err)
	}
	if err := w.CompletePrepared(99); !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("complete of wrong gtx: %v, want ErrNoPrepared", err)
	}
	if err := w.CompletePrepared(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after complete: %v", err)
	}
	if err := w.AbortPrepared(5); !errors.Is(err, ErrNoPrepared) {
		t.Fatalf("abort with nothing pending: %v, want ErrNoPrepared", err)
	}
}

func TestPrepareRejectsBadGtx(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	if err := w.PrepareTransaction(nil, 0); err == nil {
		t.Fatal("gtx 0 accepted")
	}
	if err := w.PrepareTransaction(nil, 1<<63); err == nil {
		t.Fatal("gtx with top bit accepted")
	}
}

func TestEmptyPrepareIsTriviallyAtomic(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	if err := w.PrepareTransaction(nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := w.CompletePrepared(3); err != nil {
		t.Fatal(err)
	}
	// And the abort flavor.
	if err := w.PrepareTransaction(nil, 4); err != nil {
		t.Fatal(err)
	}
	if err := w.AbortPrepared(4); err != nil {
		t.Fatal(err)
	}
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
}

// TestInDoubtRecovery is the heart of cross-shard crash atomicity: a
// crash after prepare leaves the decision to the resolver at recovery.
func TestInDoubtRecovery(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.Cfg.Label(), func(t *testing.T) {
			for _, decided := range []bool{true, false} {
				e := newEnv(t)
				w := e.open(t, v.Cfg)
				commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
				prepareOne(t, w, 3, 0x22, 42)
				_ = w
				cfg := v.Cfg
				if decided {
					cfg.PreparedResolver = resolverFor(42)
				} else {
					cfg.PreparedResolver = resolverFor() // coordinator never decided
				}
				w2 := e.reopen(t, cfg, memsim.FailDropAll, 7)
				got, ok := w2.PageVersion(3)
				if decided {
					if v.Cfg.Sync == SyncChecksum {
						// Async commit may legally lose the un-flushed frames;
						// all-or-nothing still holds if they vanished.
						if ok && !bytes.Equal(got, fullPage(0x22)) {
							t.Fatalf("[%s decided] partial prepared state survived", v.Name)
						}
					} else if !ok || !bytes.Equal(got, fullPage(0x22)) {
						t.Fatalf("[%s] decided in-doubt transaction lost (ok=%v)", v.Name, ok)
					}
				} else if ok {
					t.Fatalf("[%s] undecided in-doubt transaction survived", v.Name)
				}
				// Async commit (SyncChecksum) may legally lose unflushed
				// committed frames at a power cut; every other scheme
				// guarantees the earlier commit survives.
				if v.Cfg.Sync != SyncChecksum {
					if got, ok := w2.PageVersion(2); !ok || !bytes.Equal(got, fullPage(0x11)) {
						t.Fatalf("[%s] earlier committed transaction lost (ok=%v)", v.Name, ok)
					}
				}
				// The recovered log keeps working either way.
				commitPages(t, w2, map[uint32][]byte{4: fullPage(0x44)})
				w3 := e.reopen(t, cfg, memsim.FailDropAll, 8)
				if v.Cfg.Sync != SyncChecksum {
					if got, ok := w3.PageVersion(4); !ok || !bytes.Equal(got, fullPage(0x44)) {
						t.Fatalf("[%s] commit after in-doubt recovery lost (ok=%v)", v.Name, ok)
					}
				}
			}
		})
	}
}

// TestInDoubtResolvedThenCheckpoint: a flipped in-doubt transaction is a
// first-class committed transaction — checkpointing and reopening after
// it must preserve it.
func TestInDoubtResolvedThenCheckpoint(t *testing.T) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
	prepareOne(t, w, 3, 0x22, 42)
	cfg.PreparedResolver = resolverFor(42)
	w2 := e.reopen(t, cfg, memsim.FailDropAll, 3)
	if got, ok := w2.PageVersion(3); !ok || !bytes.Equal(got, fullPage(0x22)) {
		t.Fatalf("resolved transaction not visible after recovery (ok=%v)", ok)
	}
	if err := w2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = e.reopen(t, cfg, memsim.FailDropAll, 4)
	// The checkpoint backfilled the resolved transaction into the
	// database file; the log is empty, so read the page from the file.
	img := make([]byte, 4096)
	if err := e.db.ReadPage(3, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, fullPage(0x22)) {
		t.Fatal("resolved transaction lost after checkpoint+reboot")
	}
}

// TestRecycledBlockCannotResurrectPrepared pins down a resurrection
// found by the sharded fuzzer (seed 99, step 160): a prepared-but-
// undecided transaction is truncated at recovery and its block freed;
// the next append recycles that block and re-links it at the very
// chain position it was cut from; power fails before any new frame
// persists. The stale prepared frames are chain-valid again in the
// durable image, and once later transactions advance the coordinator's
// high-water mark, a subsequent recovery would flip them committed —
// resurrecting an aborted transaction. appendBlock's first-slot scrub
// must make that impossible.
func TestRecycledBlockCannotResurrectPrepared(t *testing.T) {
	e := newEnv(t)
	cfg := VariantE() // kernel heap: one block per frame group, so the
	// prepared transaction lands at the head of its own block
	w := e.open(t, cfg)
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11)})
	prepareOne(t, w, 3, 0x22, 5)

	// Crash in doubt; the coordinator never decided, so recovery
	// truncates the prepared transaction and frees its block.
	undecided := cfg
	undecided.PreparedResolver = resolverFor()
	w2 := e.reopen(t, undecided, memsim.FailDropAll, 1)
	if _, ok := w2.PageVersion(3); ok {
		t.Fatal("undecided prepared transaction survived first recovery")
	}

	// A new commit recycles the freed block and persists the link to
	// it, then power fails before any frame lands in it.
	crashed, err := runUntil(w2, StepAfterLinkPersist, func() error {
		return w2.CommitTransaction([]pager.Frame{{Pgno: 4, Data: fullPage(0x33)}})
	})
	if !crashed {
		t.Fatalf("link-persist crash never fired (err=%v)", err)
	}

	// By now the coordinator has decided LATER transactions, so its
	// high-water mark covers gtx 5. The aborted transaction must not
	// come back.
	decided := cfg
	decided.PreparedResolver = func(gtx uint64) bool { return gtx <= 9 }
	w3 := e.reopen(t, decided, memsim.FailDropAll, 2)
	if _, ok := w3.PageVersion(3); ok {
		t.Fatal("aborted prepared transaction resurrected from a recycled block")
	}
	if got, ok := w3.PageVersion(2); !ok || !bytes.Equal(got, fullPage(0x11)) {
		t.Fatalf("earlier committed transaction lost (ok=%v)", ok)
	}
	commitPages(t, w3, map[uint32][]byte{4: fullPage(0x44)})
}
