package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/dbfile"
	"repro/internal/ext4"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/simclock"
	"repro/internal/trace"
)

type env struct {
	fs  *ext4.FS
	db  pager.DBFile
	m   *metrics.Counters
	rec *trace.Recorder
}

func newEnv(t testing.TB) *env {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	dev := blockdev.New(blockdev.Config{Pages: 1 << 16}, clock, m)
	rec := dev.StartTrace()
	fs := ext4.New(dev)
	f, err := fs.Create("test.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	return &env{fs: fs, db: dbfile.New(f, 4096), m: m, rec: rec}
}

func (e *env) open(t testing.TB, mode Mode) *WAL {
	t.Helper()
	w, err := Open(e.fs, "test.db-wal", e.db, Options{Mode: mode}, e.m)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// mkPage builds a page image whose tail 24 bytes stay zero (compatible
// with both modes) and whose body carries a recognizable fill.
func mkPage(fill byte) []byte {
	p := make([]byte, 4096)
	for i := 0; i < 4096-24; i++ {
		p[i] = fill
	}
	return p
}

func commit(t testing.TB, w *WAL, pages map[uint32]byte) {
	t.Helper()
	var frames []pager.Frame
	for pgno, fill := range pages {
		frames = append(frames, pager.Frame{Pgno: pgno, Data: mkPage(fill)})
	}
	if err := w.CommitTransaction(frames); err != nil {
		t.Fatal(err)
	}
}

func TestCommitAndPageVersion(t *testing.T) {
	for _, mode := range []Mode{ModeStock, ModeOptimized} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, mode)
			commit(t, w, map[uint32]byte{2: 0xAA})
			v, ok := w.PageVersion(2)
			if !ok || !bytes.Equal(v, mkPage(0xAA)) {
				t.Fatalf("PageVersion(2) ok=%v", ok)
			}
			if _, ok := w.PageVersion(3); ok {
				t.Fatal("PageVersion returned a page never logged")
			}
			if got := w.FramesSinceCheckpoint(); got != 1 {
				t.Fatalf("FramesSinceCheckpoint = %d", got)
			}
		})
	}
}

func TestLatestVersionWins(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	commit(t, w, map[uint32]byte{2: 0x01})
	commit(t, w, map[uint32]byte{2: 0x02})
	v, _ := w.PageVersion(2)
	if v[0] != 0x02 {
		t.Fatalf("PageVersion returned stale frame: %x", v[0])
	}
}

func TestRecoveryKeepsCommittedFrames(t *testing.T) {
	for _, mode := range []Mode{ModeStock, ModeOptimized} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, mode)
			commit(t, w, map[uint32]byte{2: 0x11, 3: 0x22})
			commit(t, w, map[uint32]byte{4: 0x33})
			// Reopen (fresh in-memory state, same files).
			w2 := e.open(t, mode)
			if got := w2.FramesSinceCheckpoint(); got != 3 {
				t.Fatalf("recovered %d frames, want 3", got)
			}
			for pgno, fill := range map[uint32]byte{2: 0x11, 3: 0x22, 4: 0x33} {
				v, ok := w2.PageVersion(pgno)
				if !ok || v[0] != fill {
					t.Fatalf("page %d lost across reopen", pgno)
				}
			}
		})
	}
}

func TestRecoveryDiscardsTornTransaction(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeStock)
	commit(t, w, map[uint32]byte{2: 0x11})
	// Simulate a torn transaction: write a frame without a commit flag
	// directly (as if the crash hit between frame writes and fsync).
	buf, _, err := w.encodeFrame(9, mkPage(0x99), false, w.chain)
	if err != nil {
		t.Fatal(err)
	}
	w.file.WriteAt(buf, w.frameSlot(1))
	w.file.Fsync()

	w2 := e.open(t, ModeStock)
	if got := w2.FramesSinceCheckpoint(); got != 1 {
		t.Fatalf("recovered %d frames, want 1 (torn txn must be dropped)", got)
	}
	if _, ok := w2.PageVersion(9); ok {
		t.Fatal("uncommitted frame visible after recovery")
	}
}

func TestRecoveryAfterDevicePowerFail(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	commit(t, w, map[uint32]byte{2: 0x11})
	commit(t, w, map[uint32]byte{3: 0x22})
	e.fs.PowerFail()
	w2 := e.open(t, ModeOptimized)
	if got := w2.FramesSinceCheckpoint(); got != 2 {
		t.Fatalf("recovered %d frames after power fail, want 2", got)
	}
}

func TestCheckpointWritesBackAndTruncates(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	commit(t, w, map[uint32]byte{2: 0xAB, 3: 0xCD})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if w.FramesSinceCheckpoint() != 0 {
		t.Fatal("frames remain after checkpoint")
	}
	if _, ok := w.PageVersion(2); ok {
		t.Fatal("PageVersion served from a truncated log")
	}
	// With no frames logged a checkpoint writes, syncs and counts nothing.
	before := e.m.Snapshot()
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d := e.m.Snapshot().Sub(before); len(d.Counts)+len(d.Times) != 0 {
		t.Fatalf("checkpoint of an empty log moved counters %v %v", d.Counts, d.Times)
	}
	buf := make([]byte, 4096)
	if err := e.db.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, mkPage(0xAB)) {
		t.Fatal("checkpoint did not materialize page 2 in the db file")
	}
	// Frames after a checkpoint use the new salt and recover cleanly.
	commit(t, w, map[uint32]byte{5: 0x55})
	w2 := e.open(t, ModeOptimized)
	if got := w2.FramesSinceCheckpoint(); got != 1 {
		t.Fatalf("post-checkpoint recovery found %d frames, want 1", got)
	}
}

func TestStaleFramesFencedAfterCheckpoint(t *testing.T) {
	// A crash immediately after checkpoint must not resurrect old
	// frames: the salt changed.
	e := newEnv(t)
	w := e.open(t, ModeStock)
	commit(t, w, map[uint32]byte{2: 0x11, 3: 0x22, 4: 0x33})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w2 := e.open(t, ModeStock)
	if got := w2.FramesSinceCheckpoint(); got != 0 {
		t.Fatalf("stale frames resurrected: %d", got)
	}
}

// TestCheckpointRacesCommitsAndReads: Checkpoint is one blocking round
// under the log's lock, so commits and PageVersion reads racing it see
// the log either before the round or after its reset. A read that finds
// a page finds a committed image no older than the last one it found,
// and the final checkpoint leaves every page's last commit in the
// database file.
func TestCheckpointRacesCommitsAndReads(t *testing.T) {
	for _, mode := range []Mode{ModeStock, ModeOptimized} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEnv(t)
			w := e.open(t, mode)
			const writers, commits = 2, 60
			errs := make(chan error, writers+2)
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(pgno uint32) {
					defer wg.Done()
					for i := 1; i <= commits; i++ {
						if err := w.CommitTransaction([]pager.Frame{{Pgno: pgno, Data: mkPage(byte(i))}}); err != nil {
							errs <- err
							return
						}
					}
				}(uint32(2 + g))
			}
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(2)
			go func() {
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := w.Checkpoint(); err != nil {
						errs <- err
						return
					}
				}
			}()
			go func() {
				defer bg.Done()
				seen := make(map[uint32]byte)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for pgno := uint32(2); pgno < 2+writers; pgno++ {
						v, ok := w.PageVersion(pgno)
						if !ok {
							continue
						}
						if !bytes.Equal(v, mkPage(v[0])) || v[0] < seen[pgno] {
							errs <- fmt.Errorf("page %d read %#x after %#x", pgno, v[0], seen[pgno])
							return
						}
						seen[pgno] = v[0]
					}
				}
			}()
			wg.Wait()
			close(stop)
			bg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if n := w.FramesSinceCheckpoint(); n != 0 {
				t.Fatalf("%d frames left after the final checkpoint", n)
			}
			buf := make([]byte, 4096)
			for pgno := uint32(2); pgno < 2+writers; pgno++ {
				if err := e.db.ReadPage(pgno, buf); err != nil || !bytes.Equal(buf, mkPage(commits)) {
					t.Fatalf("page %d in the database file = %#x (%v), want %#x", pgno, buf[0], err, commits)
				}
			}
		})
	}
}

func TestEmptyCommitIsNoop(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeStock)
	if err := w.CommitTransaction(nil); err != nil {
		t.Fatal(err)
	}
	if w.FramesSinceCheckpoint() != 0 {
		t.Fatal("empty commit logged frames")
	}
}

func TestOptimizedRejectsNonZeroTail(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	bad := make([]byte, 4096)
	bad[4095] = 1
	err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: bad}})
	if err == nil {
		t.Fatal("optimized mode accepted a page with a non-zero tail")
	}
}

func TestStockFrameMisalignmentDoublesDataWrites(t *testing.T) {
	// §5.4: a stock single-frame commit touches two device blocks; the
	// optimized layout touches one.
	dataBlocks := func(mode Mode) int {
		e := newEnv(t)
		w := e.open(t, mode)
		e.rec.Reset()
		commit(t, w, map[uint32]byte{2: 0xEE})
		n := 0
		for _, ev := range e.rec.Events() {
			if ev.Tag == TagWAL {
				n++
			}
		}
		return n
	}
	stock, opt := dataBlocks(ModeStock), dataBlocks(ModeOptimized)
	if stock < 2 {
		t.Fatalf("stock commit wrote %d wal blocks, want >= 2 (misaligned frame)", stock)
	}
	if opt != 1 {
		t.Fatalf("optimized commit wrote %d wal blocks, want 1", opt)
	}
}

func TestOptimizedJournalTrafficLower(t *testing.T) {
	journalBytes := func(mode Mode) int {
		e := newEnv(t)
		w := e.open(t, mode)
		e.rec.Reset()
		for i := 0; i < 10; i++ {
			commit(t, w, map[uint32]byte{uint32(2 + i): byte(i + 1)})
		}
		return e.rec.BytesByTag()[ext4.TagJournal]
	}
	stock, opt := journalBytes(ModeStock), journalBytes(ModeOptimized)
	if opt >= stock {
		t.Fatalf("optimized journal traffic %d not below stock %d", opt, stock)
	}
	red := 1 - float64(opt)/float64(stock)
	if red < 0.2 {
		t.Fatalf("journal reduction %.0f%%, expected substantial (paper ~40%%)", red*100)
	}
}

func TestMetricsCounts(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	commit(t, w, map[uint32]byte{2: 1, 3: 2})
	if got := e.m.Count(metrics.WALFrames); got != 2 {
		t.Fatalf("WALFrames = %d", got)
	}
	if got := e.m.Count(metrics.Transactions); got != 1 {
		t.Fatalf("Transactions = %d", got)
	}
	w.Checkpoint()
	if got := e.m.Count(metrics.Checkpoints); got != 1 {
		t.Fatalf("Checkpoints = %d", got)
	}
}

// Property: after random committed transactions and a crash at an
// arbitrary point (possibly mid-write), recovery yields exactly the
// durably committed prefix, for both modes.
func TestPropertyCrashRecoveryYieldsCommittedPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := ModeStock
		if seed%2 == 0 {
			mode = ModeOptimized
		}
		e := newEnv(t)
		w, err := Open(e.fs, "test.db-wal", e.db, Options{Mode: mode}, e.m)
		if err != nil {
			return false
		}
		// Model of committed page contents.
		model := map[uint32]byte{}
		txns := 3 + rng.Intn(12)
		for i := 0; i < txns; i++ {
			var frames []pager.Frame
			n := 1 + rng.Intn(3)
			tx := map[uint32]byte{}
			for j := 0; j < n; j++ {
				pgno := uint32(2 + rng.Intn(8))
				fill := byte(1 + rng.Intn(255))
				tx[pgno] = fill
			}
			for pgno, fill := range tx {
				frames = append(frames, pager.Frame{Pgno: pgno, Data: mkPage(fill)})
			}
			if err := w.CommitTransaction(frames); err != nil {
				return false
			}
			for pgno, fill := range tx {
				model[pgno] = fill
			}
		}
		// Possibly leave torn bytes: write garbage at the next frame slot
		// without fsync, then crash.
		if rng.Intn(2) == 0 {
			garbage := make([]byte, w.frameBytes())
			rng.Read(garbage)
			w.file.WriteAt(garbage, w.frameSlot(len(w.frames)))
		}
		e.fs.PowerFail()

		w2, err := Open(e.fs, "test.db-wal", e.db, Options{Mode: mode}, e.m)
		if err != nil {
			return false
		}
		for pgno, fill := range model {
			v, ok := w2.PageVersion(pgno)
			if !ok || v[0] != fill {
				return false
			}
		}
		return w2.FramesSinceCheckpoint() <= len(w.frames)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestManyTransactionsThenRecovery(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeOptimized)
	for i := 0; i < 200; i++ {
		commit(t, w, map[uint32]byte{uint32(2 + i%50): byte(i)})
	}
	w2 := e.open(t, ModeOptimized)
	if got := w2.FramesSinceCheckpoint(); got != 200 {
		t.Fatalf("recovered %d frames, want 200", got)
	}
	for i := 150; i < 200; i++ {
		pgno := uint32(2 + i%50)
		v, ok := w2.PageVersion(pgno)
		if !ok || v[0] != byte(i) {
			t.Fatalf("page %d: got fill %x, want %x", pgno, v[0], byte(i))
		}
	}
}
