package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/pager"
)

// crashSignal aborts the operation in progress, standing in for the
// instant the power fails.
type crashSignal struct{ step string }

// runUntil executes fn with a hook that panics the first time step is
// reached. It reports whether the step fired (false: the operation
// completed without hitting it).
func runUntil(w *NVWAL, step string, fn func() error) (crashed bool, err error) {
	fired := false
	w.hook = func(s string) {
		if s == step && !fired {
			fired = true
			panic(crashSignal{step: s})
		}
	}
	defer func() {
		w.hook = nil
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	err = fn()
	return false, err
}

// writeSteps are the Algorithm 1 crash points (§4.3).
var writeSteps = []string{
	StepAfterPreMalloc,
	StepAfterLinkWrite,
	StepAfterLinkPersist,
	StepAfterSetUsed,
	StepAfterMemcpy,
	StepAfterLogFlush,
	StepAfterCommitWrite,
	StepAfterCommitFlush,
}

// crashPages is the write crash matrix's transaction 2: pages 2 and 3
// rewritten from their transaction-1 images, page 4 added.
type crashPages struct {
	t1p2, t1p3       []byte
	t2p2, t2p3, t2p4 []byte
}

// crashEntries are the commit entry points the write crash matrix
// drives; each commits transaction 2 its own way. The prepare entries
// crash inside the prepare (every step fires there first) and reopen
// under a coordinator that decided commit, or never decided — in which
// case a crashed prepare must vanish; the complete entry crashes inside
// the in-place mark flip, which only has the two mark steps.
var crashEntries = []struct {
	name      string
	commit    func(w *NVWAL, p crashPages) error
	steps     []string // nil: every write step
	prepared  bool
	undecided bool
}{
	{name: "transaction", commit: func(w *NVWAL, p crashPages) error {
		return w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: p.t2p2}, {Pgno: 3, Data: p.t2p3}, {Pgno: 4, Data: p.t2p4}})
	}},
	{name: "group", commit: func(w *NVWAL, p crashPages) error {
		// Two member streams sharing page 2, staged as full frames: only
		// the later member's image is logged.
		sets := [][]pager.Frame{
			{{Pgno: 2, Data: patchedPage(p.t1p2, 900, 30, 0xBB)}, {Pgno: 3, Data: p.t2p3}},
			{{Pgno: 2, Data: p.t2p2}, {Pgno: 4, Data: p.t2p4}},
		}
		streams := make([]*Stream, len(sets))
		for i, frames := range sets {
			streams[i] = w.NewStream()
			for _, fr := range frames {
				if _, err := streams[i].StagePage(fr.Pgno, fr.Data, nil); err != nil {
					return err
				}
			}
		}
		return w.CommitStreams(streams, len(streams))
	}},
	{name: "streams", commit: func(w *NVWAL, p crashPages) error {
		// Two streams, the first staged differentially by its writer.
		s1, s2 := w.NewStream(), w.NewStream()
		if _, err := s1.StagePage(2, p.t2p2, p.t1p2); err != nil {
			return err
		}
		for _, fr := range []pager.Frame{{Pgno: 3, Data: p.t2p3}, {Pgno: 4, Data: p.t2p4}} {
			if _, err := s2.StagePage(fr.Pgno, fr.Data, nil); err != nil {
				return err
			}
		}
		return w.CommitStreams([]*Stream{s1, s2}, 2)
	}},
	{name: "prepare", prepared: true, commit: func(w *NVWAL, p crashPages) error { return commitPrepared(w, p, func() {}) }},
	{name: "prepare-undecided", prepared: true, undecided: true,
		commit: func(w *NVWAL, p crashPages) error { return commitPrepared(w, p, func() {}) }},
	{name: "complete", prepared: true, steps: []string{StepAfterCommitWrite, StepAfterCommitFlush},
		commit: func(w *NVWAL, p crashPages) error {
			hook := w.hook
			w.hook = nil
			return commitPrepared(w, p, func() { w.hook = hook })
		}},
}

const crashGtx = 42

// commitPrepared runs transaction 2 through 2PC; decided runs between
// the prepare and the complete, where the coordinator's record lands.
func commitPrepared(w *NVWAL, p crashPages, decided func()) error {
	frames := []pager.Frame{{Pgno: 2, Data: p.t2p2}, {Pgno: 3, Data: p.t2p3}, {Pgno: 4, Data: p.t2p4}}
	if err := w.PrepareTransaction(frames, crashGtx); err != nil {
		return err
	}
	decided()
	return w.CompletePrepared(crashGtx)
}

// TestCrashMatrixWriteFrames injects a power failure at every step of
// Algorithm 1, through every commit entry point, under every sync
// scheme and both conservative and adversarial line-survival policies,
// and verifies transaction atomicity: recovery yields either the
// complete second transaction or none of it, with the first
// transaction always intact.
func TestCrashMatrixWriteFrames(t *testing.T) {
	policies := []struct {
		name   string
		policy memsim.FailPolicy
	}{
		{"dropall", memsim.FailDropAll},
		{"adversarial", memsim.FailAdversarial},
	}
	for entry := range crashEntries {
		steps := crashEntries[entry].steps
		if steps == nil {
			steps = writeSteps
		}
		for _, v := range allVariants() {
			for _, step := range steps {
				for _, pol := range policies {
					for _, seed := range []int64{1, 7, 42} {
						name := fmt.Sprintf("%s/%s/%s/%s/seed%d", crashEntries[entry].name, v.Cfg.Label(), step, pol.name, seed)
						t.Run(name, func(t *testing.T) {
							runWriteCrashCase(t, entry, v.Cfg, step, pol.policy, seed)
						})
					}
				}
			}
		}
	}
}

func runWriteCrashCase(t *testing.T, entry int, cfg Config, step string, policy memsim.FailPolicy, seed int64) {
	en := crashEntries[entry]
	e := newTinyEnv(t, 128)
	w := e.open(t, cfg)

	// Transaction 1: establish pages 2 and 3.
	t1p2 := fullPage(0xA1)
	t1p3 := fullPage(0xA2)
	commitPages(t, w, map[uint32][]byte{2: t1p2, 3: t1p3})

	// Transaction 2: modify both and add page 4, crashing at the step.
	t2p2 := patchedPage(t1p2, 100, 50, 0xB1)
	t2p3 := patchedPage(t1p3, 2000, 50, 0xB2)
	t2p4 := fullPage(0xB3)
	crashed, err := runUntil(w, step, func() error {
		return en.commit(w, crashPages{t1p2: t1p2, t1p3: t1p3, t2p2: t2p2, t2p3: t2p3, t2p4: t2p4})
	})
	if !crashed {
		t.Fatalf("step %s never fired (err=%v)", step, err)
	}

	if en.prepared && !en.undecided {
		cfg.PreparedResolver = resolverFor(crashGtx)
	}
	w2 := e.reopen(t, cfg, policy, seed)

	v2, ok2 := w2.PageVersion(2)
	v3, ok3 := w2.PageVersion(3)
	v4, ok4 := w2.PageVersion(4)

	txn2 := ok4 && bytes.Equal(v4, t2p4)
	if txn2 {
		if !ok2 || !bytes.Equal(v2, t2p2) || !ok3 || !bytes.Equal(v3, t2p3) {
			t.Fatal("transaction 2 partially visible (page 4 committed, 2/3 stale)")
		}
		if en.undecided {
			t.Fatal("undecided prepared transaction survived")
		}
	} else {
		if ok4 {
			t.Fatal("transaction 2 partially visible (page 4 present but wrong)")
		}
		// Checksum-async mode may legitimately lose even transaction 1
		// under a crash (its log entries are never explicitly flushed).
		// Every other scheme guarantees durability of committed work.
		if cfg.Sync != SyncChecksum {
			if !ok2 || !bytes.Equal(v2, t1p2) || !ok3 || !bytes.Equal(v3, t1p3) {
				t.Fatal("transaction 1 lost or corrupted")
			}
		} else if ok2 && !bytes.Equal(v2, t1p2) || ok3 && !bytes.Equal(v3, t1p3) {
			t.Fatal("checksum mode surfaced a corrupted page instead of dropping it")
		}
	}
	if step == StepAfterCommitFlush && cfg.Sync != SyncChecksum && !en.undecided && !txn2 {
		// The mark was durable when the power failed (for a prepare, the
		// provisional one the coordinator's decision covers).
		t.Fatal("transaction 2 lost after its mark persisted")
	}

	// The log must remain writable after recovery.
	t3 := fullPage(0xC1)
	commitPages(t, w2, map[uint32][]byte{5: t3})
	w3 := e.reopen(t, cfg, memsim.FailDropAll, seed+100)
	if cfg.Sync != SyncChecksum {
		if v5, ok := w3.PageVersion(5); !ok || !bytes.Equal(v5, t3) {
			t.Fatal("post-recovery commit lost")
		}
	}
}

// TestCrashReusedStreamAtEveryStep commits two transactions through one
// stream, the way a DB's recycled session state does: transaction 1's
// frames are still live in the log when the stream is Reset and stages
// transaction 2 under the same tag, differentially against transaction
// 1's images. A power failure at every step of the second commit must
// recover exactly one of the two states. Checksum mode is left out: it
// may lose transaction 1 itself (TestCrashMatrixWriteFrames covers that).
func TestCrashReusedStreamAtEveryStep(t *testing.T) {
	for _, v := range allVariants() {
		if v.Cfg.Sync == SyncChecksum {
			continue
		}
		for _, step := range writeSteps {
			for _, pol := range []struct {
				name   string
				policy memsim.FailPolicy
			}{{"dropall", memsim.FailDropAll}, {"adversarial", memsim.FailAdversarial}} {
				for _, seed := range []int64{1, 7} {
					t.Run(fmt.Sprintf("%s/%s/%s/seed%d", v.Cfg.Label(), step, pol.name, seed), func(t *testing.T) {
						runReusedStreamCrashCase(t, v.Cfg, step, pol.policy, seed)
					})
				}
			}
		}
	}
}

func runReusedStreamCrashCase(t *testing.T, cfg Config, step string, policy memsim.FailPolicy, seed int64) {
	e := newTinyEnv(t, 128)
	w := e.open(t, cfg)
	s := w.NewStream()
	tag := s.ID()
	stage := func(pgno uint32, img, base []byte) {
		t.Helper()
		if ok, err := s.StagePage(pgno, img, base); err != nil || !ok {
			t.Fatalf("stage page %d: staged=%v err=%v", pgno, ok, err)
		}
	}

	t1 := map[uint32][]byte{2: fullPage(0xA1), 3: fullPage(0xA2)}
	stage(2, t1[2], nil)
	stage(3, t1[3], nil)
	if err := w.CommitStreams([]*Stream{s}, 1); err != nil {
		t.Fatal(err)
	}

	s.Reset()
	t2 := map[uint32][]byte{
		2: patchedPage(t1[2], 100, 50, 0xB1),
		3: patchedPage(t1[3], 2000, 50, 0xB2),
		4: fullPage(0xB3),
	}
	stage(2, t2[2], t1[2])
	stage(3, t2[3], t1[3])
	stage(4, t2[4], nil)
	if s.ID() != tag {
		t.Fatalf("Reset changed the stream's tag %d to %d", tag, s.ID())
	}
	crashed, err := runUntil(w, step, func() error { return w.CommitStreams([]*Stream{s}, 1) })
	if !crashed {
		t.Fatalf("step %s never fired (err=%v)", step, err)
	}

	w2 := e.reopen(t, cfg, policy, seed)
	matches := func(want map[uint32][]byte) bool {
		for pgno := uint32(2); pgno <= 4; pgno++ {
			got, ok := w2.PageVersion(pgno)
			if img, in := want[pgno]; ok != in || in && !bytes.Equal(got, img) {
				return false
			}
		}
		return true
	}
	txn2 := matches(t2)
	if !txn2 && !matches(t1) {
		t.Fatal("recovered state is neither transaction 1 nor transaction 2")
	}
	if step == StepAfterCommitFlush && !txn2 {
		t.Fatal("transaction 2 lost after its mark persisted")
	}
}

// TestCrashDuringCommitMarkPersistIsAtomic drives the §4.1 claim: the
// commit mark's 8-byte write either fully persists or not, so recovery
// never sees a half-committed transaction, across many adversarial
// seeds.
func TestCrashDuringCommitMarkPersistIsAtomic(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		e := newEnv(t)
		w := e.open(t, VariantUHLSDiff())
		base := fullPage(0xD0)
		commitPages(t, w, map[uint32][]byte{2: base})
		next := patchedPage(base, 500, 100, 0xD1)
		crashed, _ := runUntil(w, StepAfterCommitWrite, func() error {
			return w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: next}})
		})
		if !crashed {
			t.Fatal("commit-write step never fired")
		}
		w2 := e.reopen(t, VariantUHLSDiff(), memsim.FailAdversarial, seed)
		v, ok := w2.PageVersion(2)
		if !ok {
			t.Fatalf("seed %d: transaction 1 lost", seed)
		}
		if !bytes.Equal(v, base) && !bytes.Equal(v, next) {
			t.Fatalf("seed %d: page 2 is neither pre- nor post-transaction image", seed)
		}
	}
}

// checkpointSteps are the §4.3 checkpoint crash points, in protocol
// order across the incremental pipeline's three phases.
var checkpointSteps = []string{
	StepCkptAfterRecord,
	StepCkptAfterSalt,
	StepCkptAfterPages,
	StepCkptAfterSync,
	StepCkptAfterState,
	StepCkptMidFree,
	StepCkptAfterFree,
}

// TestCrashMatrixCheckpoint injects failures throughout checkpointing
// and verifies no committed data is ever lost: every page is readable
// from the log or the database file with its last committed content.
func TestCrashMatrixCheckpoint(t *testing.T) {
	for _, step := range checkpointSteps {
		t.Run(step, func(t *testing.T) {
			e := newEnv(t)
			cfg := VariantUHLSDiff()
			w := e.open(t, cfg)

			expect := make(map[uint32][]byte)
			for i := 0; i < 6; i++ {
				pgno := uint32(2 + i)
				img := fullPage(byte(0x10 + i))
				commitPages(t, w, map[uint32][]byte{pgno: img})
				expect[pgno] = img
			}
			crashed, err := runUntil(w, step, func() error { return w.Checkpoint() })
			if !crashed && err != nil {
				t.Fatalf("checkpoint failed: %v", err)
			}
			if !crashed {
				t.Fatalf("step %s never fired", step)
			}
			w2 := e.reopen(t, cfg, memsim.FailDropAll, 5)
			for pgno, img := range expect {
				got, ok := w2.PageVersion(pgno)
				if !ok {
					got = make([]byte, 4096)
					if err := e.db.ReadPage(pgno, got); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, img) {
					t.Fatalf("page %d lost after checkpoint crash at %s", pgno, step)
				}
			}
			// Replay the checkpoint and keep going (§4.3: "simply replay
			// the checkpointing process").
			if w2.FramesSinceCheckpoint() > 0 {
				if err := w2.Checkpoint(); err != nil {
					t.Fatalf("checkpoint replay: %v", err)
				}
			}
			commitPages(t, w2, map[uint32][]byte{9: fullPage(0xEE)})
			if v, ok := w2.PageVersion(9); !ok || v[0] != 0xEE {
				t.Fatal("log unusable after checkpoint crash recovery")
			}
		})
	}
}

// TestCrashCheckpointWithConcurrentWriter exercises the incremental
// pipeline's defining property: commits proceed into the new generation
// while phase B's writeback runs outside the lock. At each lock-free
// step the crash hook injects a fresh commit before the power fails,
// and recovery must surface both the frozen generation's pages (via the
// backfilled database file or the ckpt record replay) and the injected
// commit (carried over past the in-flight round's watermark).
func TestCrashCheckpointWithConcurrentWriter(t *testing.T) {
	// Only phase B steps run without w.mu; injecting a commit from the
	// hook at a phase A/C step would self-deadlock rather than model a
	// concurrent writer.
	lockFree := []string{StepCkptAfterPages, StepCkptAfterSync}
	policies := []struct {
		name   string
		policy memsim.FailPolicy
	}{
		{"dropall", memsim.FailDropAll},
		{"adversarial", memsim.FailAdversarial},
	}
	for _, step := range lockFree {
		for _, pol := range policies {
			for _, seed := range []int64{3, 11} {
				name := fmt.Sprintf("%s/%s/seed%d", step, pol.name, seed)
				t.Run(name, func(t *testing.T) {
					runCkptWriterCrashCase(t, step, pol.policy, seed)
				})
			}
		}
	}
}

func runCkptWriterCrashCase(t *testing.T, step string, policy memsim.FailPolicy, seed int64) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)

	expect := make(map[uint32][]byte)
	for i := 0; i < 5; i++ {
		pgno := uint32(2 + i)
		img := fullPage(byte(0x20 + i))
		commitPages(t, w, map[uint32][]byte{pgno: img})
		expect[pgno] = img
	}
	// The injected transaction: a diff on page 2 plus a brand-new page,
	// committed mid-checkpoint into the new generation.
	injected2 := patchedPage(expect[2], 300, 64, 0x77)
	injected8 := fullPage(0x78)
	var commitErr error
	fired := false
	w.hook = func(s string) {
		if s != step || fired {
			return
		}
		fired = true
		commitErr = w.CommitTransaction([]pager.Frame{
			{Pgno: 2, Data: injected2},
			{Pgno: 8, Data: injected8},
		})
		panic(crashSignal{step: s})
	}
	func() {
		defer func() {
			w.hook = nil
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); !ok {
					panic(r)
				}
			}
		}()
		if err := w.Checkpoint(); err != nil {
			t.Errorf("checkpoint failed before crash: %v", err)
		}
	}()
	if !fired {
		t.Fatalf("step %s never fired", step)
	}
	if commitErr != nil {
		t.Fatalf("mid-checkpoint commit failed: %v", commitErr)
	}
	expect[2] = injected2
	expect[8] = injected8

	w2 := e.reopen(t, cfg, policy, seed)
	for pgno, img := range expect {
		got, ok := w2.PageVersion(pgno)
		if !ok {
			got = make([]byte, 4096)
			if err := e.db.ReadPage(pgno, got); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("page %d wrong after crash at %s with concurrent commit", pgno, step)
		}
	}
	// The recovered log keeps accepting work.
	commitPages(t, w2, map[uint32][]byte{9: fullPage(0xEF)})
	if v, ok := w2.PageVersion(9); !ok || v[0] != 0xEF {
		t.Fatal("log unusable after concurrent-writer checkpoint crash")
	}
}

// TestPendingBlockReclaimedNotLeaked verifies the §3.3 leak-prevention
// story end to end: a crash right after nv_pre_malloc leaves a pending
// block that ReclaimPending returns to the free pool.
func TestPendingBlockReclaimedNotLeaked(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	crashed, _ := runUntil(w, StepAfterPreMalloc, func() error {
		return w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: fullPage(1)}})
	})
	if !crashed {
		t.Fatal("pre-malloc step never fired")
	}
	e.dev.PowerFail(memsim.FailDropAll, 1)
	e.dev.Recover()
	h, err := heapo.Attach(e.dev)
	if err != nil {
		t.Fatal(err)
	}
	before := h.FreePages()
	if n := h.ReclaimPending(); n != 1 {
		t.Fatalf("reclaimed %d pending blocks, want 1", n)
	}
	if h.FreePages() != before+2 {
		t.Fatalf("free pages %d -> %d, want +2 (one 8 KB block)", before, h.FreePages())
	}
}

// TestDanglingLinkCleared covers the crash window between persisting the
// block reference and marking the block in-use: recovery must clear the
// dangling pointer and continue (§4.3 case 2).
func TestDanglingLinkCleared(t *testing.T) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x31)})
	// Fill the 8 KB block so the next commit allocates a second one and
	// crashes between link-persist and set-used.
	img := fullPage(0x31)
	for i := 0; i < 3; i++ {
		img = patchedPage(img, i*1000, 900, byte(0x40+i))
		commitPages(t, w, map[uint32][]byte{2: img})
	}
	crashed := false
	for i := 3; i < 40 && !crashed; i++ {
		img2 := patchedPage(img, (i*700)%3000, 900, byte(i))
		c, err := runUntil(w, StepAfterLinkPersist, func() error {
			return w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: img2}})
		})
		if err != nil {
			t.Fatal(err)
		}
		if c {
			crashed = true
		} else {
			img = img2
		}
	}
	if !crashed {
		t.Skip("workload never allocated a second block")
	}
	w2 := e.reopen(t, cfg, memsim.FailDropAll, 9)
	v, ok := w2.PageVersion(2)
	if !ok || !bytes.Equal(v, img) {
		t.Fatal("last committed image lost after dangling-link crash")
	}
	// The cleared link lets the log grow again.
	commitPages(t, w2, map[uint32][]byte{3: fullPage(0x99)})
	if _, ok := w2.PageVersion(3); !ok {
		t.Fatal("log unusable after dangling-link recovery")
	}
}

// commitStream commits frames the way a session does: pre-staged into a
// stream of its own, first touches as full pages.
func commitStream(w *NVWAL, frames []pager.Frame) error {
	s := w.NewStream()
	for _, fr := range frames {
		if _, err := s.StagePage(fr.Pgno, fr.Data, nil); err != nil {
			return err
		}
	}
	return w.CommitStreams([]*Stream{s}, 1)
}

// readBack is pgno's committed content wherever recovery left it: the log,
// or the database file once a completed round moved it there.
func readBack(t *testing.T, e *testEnv, w *NVWAL, pgno uint32) []byte {
	t.Helper()
	if v, ok := w.PageVersion(pgno); ok {
		return v
	}
	buf := make([]byte, 4096)
	if err := e.db.ReadPage(pgno, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCrashMatrixBoundaryFrozenRound covers the window FreezeCheckpoint
// opens: phase A has run, the caller is busy acknowledging, phases B + C
// come later. Commits by two entry points land in that window — a rewrite
// of a frozen page and a page the frozen generation never saw — and the
// power fails (a) at every Algorithm 1 step of the second of them, and
// (b) at every later step of the round once Checkpoint resumes
// it. Whatever survives: every page committed before the freeze and every
// commit acknowledged after it reads back, the interrupted commit is
// atomic, recovery leaves no round in flight, and the log takes new work
// and a full checkpoint.
func TestCrashMatrixBoundaryFrozenRound(t *testing.T) {
	type crashAt struct {
		step    string
		inWrite bool
	}
	var points []crashAt
	for _, s := range writeSteps {
		points = append(points, crashAt{s, true})
	}
	for _, s := range checkpointSteps[2:] { // phases B and C; A ran in the freeze
		points = append(points, crashAt{s, false})
	}
	for _, v := range []NamedConfig{{"UH+LS+Diff", VariantUHLSDiff()}, {"E", VariantE()}} {
		for _, pt := range points {
			for _, pol := range []struct {
				name   string
				policy memsim.FailPolicy
			}{{"dropall", memsim.FailDropAll}, {"adversarial", memsim.FailAdversarial}} {
				name := fmt.Sprintf("%s/%s/%s", v.Name, pt.step, pol.name)
				t.Run(name, func(t *testing.T) {
					e := newTinyEnv(t, 128)
					w := e.open(t, v.Cfg)
					expect := make(map[uint32][]byte)
					for i := 0; i < 4; i++ {
						expect[uint32(2+i)] = fullPage(byte(0x30 + i))
						commitPages(t, w, map[uint32][]byte{uint32(2 + i): expect[uint32(2+i)]})
					}
					if err := w.FreezeCheckpoint(); err != nil {
						t.Fatal(err)
					}
					frozenAt := w.Mark()
					if b, _ := w.ExportSince(frozenAt, w.Mark(), nil); b.Backfill != frozenAt {
						t.Fatalf("a frozen round announces watermark %d, want %d", b.Backfill, frozenAt)
					}
					if err := w.FreezeCheckpoint(); err != nil || w.FramesSinceCheckpoint() != 4 {
						t.Fatalf("a second freeze must change nothing: err=%v, %d frames", err, w.FramesSinceCheckpoint())
					}

					// The legacy entry point rewrites a frozen page; a session's
					// stream adds three pages, enough to need a block of its own.
					rewrite := patchedPage(expect[2], 700, 90, 0x3A)
					if err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: rewrite}}); err != nil {
						t.Fatal(err)
					}
					expect[2] = rewrite
					added := []pager.Frame{{Pgno: 8, Data: fullPage(0x3B)}, {Pgno: 10, Data: fullPage(0x3D)}, {Pgno: 11, Data: fullPage(0x3E)}}
					commit2 := func() error { return commitStream(w, added) }
					var crashed bool
					var err error
					if pt.inWrite {
						crashed, err = runUntil(w, pt.step, commit2)
					} else {
						if err := commit2(); err != nil {
							t.Fatal(err)
						}
						for _, fr := range added {
							expect[fr.Pgno] = fr.Data
						}
						crashed, err = runUntil(w, pt.step, func() error { return w.Checkpoint() })
					}
					if !crashed {
						t.Fatalf("step %s never fired (err=%v)", pt.step, err)
					}

					w2 := e.reopen(t, v.Cfg, pol.policy, 13)
					if w2.ckpt != nil {
						t.Fatal("recovery left a round in flight")
					}
					for pgno, want := range expect {
						if !bytes.Equal(readBack(t, e, w2, pgno), want) {
							t.Fatalf("page %d lost or stale after the crash", pgno)
						}
					}
					if pt.inWrite {
						visible := 0
						for _, fr := range added {
							if got, ok := w2.PageVersion(fr.Pgno); ok && bytes.Equal(got, fr.Data) {
								visible++
							} else if ok {
								t.Fatalf("page %d of the interrupted commit is corrupt", fr.Pgno)
							}
						}
						if visible != 0 && visible != len(added) {
							t.Fatalf("the interrupted commit is partially visible (%d of %d pages)", visible, len(added))
						}
						if pt.step == StepAfterCommitFlush && visible == 0 {
							t.Fatal("the interrupted commit was lost after its mark persisted")
						}
					}
					commitPages(t, w2, map[uint32][]byte{9: fullPage(0x3C)})
					expect[9] = fullPage(0x3C)
					if err := w2.Checkpoint(); err != nil {
						t.Fatalf("checkpoint after recovery: %v", err)
					}
					for pgno, want := range expect {
						if !bytes.Equal(readBack(t, e, w2, pgno), want) {
							t.Fatalf("page %d wrong after the post-recovery checkpoint", pgno)
						}
					}
				})
			}
		}
	}
}
