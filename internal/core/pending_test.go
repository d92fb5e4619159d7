// Recovery leaves every recovered page pending and builds it on first use
// (version). These tests hold that against the eager replay recovery used
// to run at open, kept here as the reference: the same seeded scripts run
// through a log recovered lazily and one recovered eagerly, and every page
// at every mark a reader could hold must read the same on both after every
// step; the database-file reads open no longer makes happen at first use,
// once per page, and add up to the same count; a base that cannot be read
// is an error, never the file's image.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// eagerRecover is recovery as it was before recovered pages were left
// pending, kept as the reference: right after Open, replay every recovered
// frame still pending into the page images, reading a page's
// database-file base when its first frame is differential. After a frozen
// round's recovery the pages that round wrote back are built already;
// the ones only the live generation touched are built here.
func eagerRecover(w *NVWAL) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range w.history {
		e := &w.pages[f.pgno]
		if !e.pending {
			continue
		}
		img := e.version
		if img == nil {
			img = make([]byte, w.pageSize)
			if !f.full {
				if err := w.db.ReadPage(f.pgno, img); err != nil {
					return err
				}
				e.base = slices.Clone(img)
			}
			e.version = img
		}
		if f.full {
			clear(img)
		}
		applyExtent(img, f.off, f.payload)
	}
	for i := range w.pages {
		w.pages[i].pending = false
	}
	w.pending = 0
	return nil
}

// countingDB counts database-file reads per page; fail, when set, is
// consulted with the page and its read count so far and may fail the read.
type countingDB struct {
	pager.DBFile
	mu    sync.Mutex
	reads map[uint32]int
	fail  func(pgno uint32, n int) error
}

func newCountingDB(db pager.DBFile) *countingDB {
	return &countingDB{DBFile: db, reads: make(map[uint32]int)}
}

func (c *countingDB) ReadPage(pgno uint32, buf []byte) error {
	c.mu.Lock()
	c.reads[pgno]++
	n := c.reads[pgno]
	fail := c.fail
	c.mu.Unlock()
	if fail != nil {
		if err := fail(pgno, n); err != nil {
			return err
		}
	}
	return c.DBFile.ReadPage(pgno, buf)
}

func (c *countingDB) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.reads {
		n += k
	}
	return n
}

// pendingSide is one of the two logs a pendingRun drives.
type pendingSide struct {
	e     *testEnv
	w     *NVWAL
	guard imageGuard
}

// pendingRun drives one seeded script through a log whose recovered pages
// stay pending (lazy) and, step for step with the same images, through one
// recovered eagerly (ref).
type pendingRun struct {
	t         *testing.T
	cfg       Config
	rng       *rand.Rand
	lazy, ref pendingSide
	cur       map[uint32][]byte // committed image of every page written so far
	lo        int               // lowest mark a reader may still hold
	gtx       uint64
	cuts      int
	// met counts, per step kind, the steps that began with pending pages.
	met map[string]int
}

func newPendingRun(t *testing.T, cfg Config, seed int64) *pendingRun {
	r := &pendingRun{t: t, cfg: cfg, rng: rand.New(rand.NewSource(seed)), cur: make(map[uint32][]byte), met: make(map[string]int)}
	for _, s := range r.sides() {
		s.e = newEnv(t)
		s.w = s.e.open(t, cfg)
	}
	return r
}

func (r *pendingRun) sides() []*pendingSide { return []*pendingSide{&r.lazy, &r.ref} }

func (r *pendingRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// both runs fn on each side.
func (r *pendingRun) both(fn func(w *NVWAL) error) {
	r.t.Helper()
	for _, s := range r.sides() {
		r.must(fn(s.w))
	}
}

// check compares the two logs for the given pages at every valid mark —
// the read view's image, PageVersionAt's answer — and their database
// files, then runs both immutability guards.
func (r *pendingRun) check(step string, pages []uint32) {
	r.t.Helper()
	lw, rw := r.lazy.w, r.ref.w
	if lw.Mark() != rw.Mark() || lw.FramesSinceCheckpoint() != rw.FramesSinceCheckpoint() {
		r.t.Fatalf("%s: marks %d/%d, frames %d/%d", step, lw.Mark(), rw.Mark(), lw.FramesSinceCheckpoint(), rw.FramesSinceCheckpoint())
	}
	lv, rv := pager.NewReadView(lw, r.lazy.e.db), pager.NewReadView(rw, r.ref.e.db)
	for _, pgno := range pages {
		for mark := r.lo; mark <= rw.Mark(); mark++ {
			want, _, err := rv.PageAt(pgno, mark)
			r.must(err)
			got, _, err := lv.PageAt(pgno, mark)
			r.must(err)
			if !bytes.Equal(got, want) {
				r.t.Fatalf("%s: page %d at mark %d (valid %d..%d) differs from the eager reference", step, pgno, mark, r.lo, rw.Mark())
			}
			wantV, wantOK := rw.PageVersionAt(pgno, mark)
			gotV, gotOK := lw.PageVersionAt(pgno, mark)
			if gotOK != wantOK || !bytes.Equal(gotV, wantV) {
				r.t.Fatalf("%s: PageVersionAt(%d, %d) ok=%v, reference ok=%v", step, pgno, mark, gotOK, wantOK)
			}
		}
	}
	got, want := make([]byte, 4096), make([]byte, 4096)
	for pgno := uint32(1); pgno <= rvPages+2; pgno++ {
		r.must(errors.Join(r.lazy.e.db.ReadPage(pgno, got), r.ref.e.db.ReadPage(pgno, want)))
		if !bytes.Equal(got, want) {
			r.t.Fatalf("%s: database-file page %d differs from the eager reference's", step, pgno)
		}
	}
	for _, s := range r.sides() {
		r.must(s.guard.observe(s.w, step))
	}
}

func (r *pendingRun) allPages() []uint32 {
	var pages []uint32
	for pgno := uint32(1); pgno <= rvPages+2; pgno++ {
		pages = append(pages, pgno)
	}
	return pages
}

func (r *pendingRun) next(base []byte) []byte { return nextImage(r.rng, base) }

func (r *pendingRun) pick(n int) []uint32 { return pickPages(r.rng, n) }

func (r *pendingRun) frames(n int) []pager.Frame {
	var frames []pager.Frame
	for _, pgno := range r.pick(n) {
		frames = append(frames, pager.Frame{Pgno: pgno, Data: r.next(r.cur[pgno])})
	}
	return frames
}

// owned returns the images a step hands side w: the lazy side takes them
// as they are, the reference its own copies — a log owns what it is
// handed, and recycles an image once a round retires it (recycle.go).
func (r *pendingRun) owned(w *NVWAL, img []byte) []byte {
	if w == r.lazy.w {
		return img
	}
	return slices.Clone(img)
}

func (r *pendingRun) ownedFrames(w *NVWAL, frames []pager.Frame) []pager.Frame {
	out := make([]pager.Frame, len(frames))
	for i, fr := range frames {
		out[i] = pager.Frame{Pgno: fr.Pgno, Data: r.owned(w, fr.Data)}
	}
	return out
}

func (r *pendingRun) solo() {
	frames := r.frames(1 + r.rng.Intn(3))
	r.both(func(w *NVWAL) error { return w.CommitTransaction(r.ownedFrames(w, frames)) })
	for _, fr := range frames {
		r.cur[fr.Pgno] = fr.Data
	}
}

// group commits two or three streams, each page staged against the image
// before it — a later member's against an earlier member's.
func (r *pendingRun) group() {
	type member struct{ frames, bases []pager.Frame }
	var members []member
	for g := 2 + r.rng.Intn(2); g > 0; g-- {
		var m member
		m.frames = r.frames(1 + r.rng.Intn(2))
		for _, fr := range m.frames {
			m.bases = append(m.bases, pager.Frame{Pgno: fr.Pgno, Data: r.cur[fr.Pgno]})
			r.cur[fr.Pgno] = fr.Data
		}
		members = append(members, m)
	}
	r.both(func(w *NVWAL) error {
		streams := make([]*Stream, len(members))
		for i, m := range members {
			streams[i] = w.NewStream()
			for j, fr := range m.frames {
				if _, err := streams[i].StagePage(fr.Pgno, r.owned(w, fr.Data), m.bases[j].Data); err != nil {
					return err
				}
			}
		}
		return w.CommitStreams(streams, len(streams))
	})
}

// session is an MVCC session's commit: each page's base is what the read
// view resolves at the session's snapshot mark, and the new image is
// staged against it.
func (r *pendingRun) session() {
	pages := r.pick(1 + r.rng.Intn(3))
	imgs := make(map[uint32][]byte)
	for _, s := range r.sides() {
		view := pager.NewReadView(s.w, s.e.db)
		mark := s.w.Mark()
		st := s.w.NewStream()
		for _, pgno := range pages {
			base, _, err := view.PageAt(pgno, mark)
			r.must(err)
			if imgs[pgno] == nil {
				imgs[pgno] = r.next(base)
			}
			_, err = st.StagePage(pgno, r.owned(s.w, imgs[pgno]), base)
			r.must(err)
		}
		r.must(s.w.CommitStreams([]*Stream{st}, 1))
	}
	for pgno, img := range imgs {
		r.cur[pgno] = img
	}
}

// apply is a replica applying a shipped batch (repl.Replica.applyFrames):
// each touched page opens from the read view's latest image — cloned
// and logged against it when the log shares it — the frames patch it in
// order, and the pages commit through one stream.
func (r *pendingRun) apply() {
	var batch []ExportFrame
	for _, pgno := range r.pick(1 + r.rng.Intn(3)) {
		for k := 1 + r.rng.Intn(2); k > 0; k-- {
			fr := ExportFrame{Pgno: pgno, Full: r.rng.Intn(4) == 0}
			if !fr.Full {
				fr.Off = uint32(r.rng.Intn(4000))
			}
			fr.Payload = make([]byte, 1+r.rng.Intn(96))
			r.rng.Read(fr.Payload)
			batch = append(batch, fr)
		}
	}
	for _, s := range r.sides() {
		view := pager.NewReadView(s.w, s.e.db)
		type page struct{ img, base []byte }
		pages := make(map[uint32]*page)
		var order []uint32
		for _, fr := range batch {
			p := pages[fr.Pgno]
			if p == nil {
				img, shared, err := view.PageAt(fr.Pgno, s.w.Mark())
				r.must(err)
				p = &page{img: img}
				if shared {
					p.img, p.base = slices.Clone(img), img
				}
				pages[fr.Pgno] = p
				order = append(order, fr.Pgno)
			}
			if fr.Full {
				clear(p.img)
			}
			copy(p.img[fr.Off:], fr.Payload)
		}
		st := s.w.NewStream()
		for _, pgno := range order {
			_, err := st.StagePage(pgno, pages[pgno].img, pages[pgno].base)
			r.must(err)
			if s == &r.lazy {
				r.cur[pgno] = pages[pgno].img
			}
		}
		r.must(s.w.CommitStreams([]*Stream{st}, 1))
	}
}

func (r *pendingRun) prepare() {
	frames := r.frames(1 + r.rng.Intn(2))
	r.gtx++
	r.both(func(w *NVWAL) error { return w.PrepareTransaction(r.ownedFrames(w, frames), r.gtx) })
	r.check("prepared, undecided", r.allPages())
	if r.rng.Intn(2) == 0 {
		r.both(func(w *NVWAL) error { return w.AbortPrepared(r.gtx) })
		return
	}
	r.both(func(w *NVWAL) error { return w.CompletePrepared(r.gtx) })
	for _, fr := range frames {
		r.cur[fr.Pgno] = fr.Data
	}
}

func (r *pendingRun) checkpoint() {
	r.both(func(w *NVWAL) error { return w.Checkpoint() })
	r.lo = r.lazy.w.Mark()
}

// powerCut reopens both logs from the same durable state; the reference
// then runs the eager replay. Only a random half of the pages is checked,
// so the rest reach the next step still pending.
func (r *pendingRun) powerCut() {
	seed := r.rng.Int63()
	for _, s := range r.sides() {
		r.must(s.guard.observe(s.w, "before power cut"))
		s.w = s.e.reopen(r.t, r.cfg, memsim.FailDropAll, seed)
		s.guard = imageGuard{}
	}
	r.must(eagerRecover(r.ref.w))
	r.lo = r.lazy.w.Mark()
	r.cuts++
	pages := r.allPages()
	r.rng.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	r.check(fmt.Sprintf("power cut %d", r.cuts), pages[:len(pages)/2])
}

// frozenCut cuts power mid-checkpoint, after phase A froze the
// generation and one commit landed in the next: recovery then completes
// the round on both sides, and the reference builds the rest eagerly.
func (r *pendingRun) frozenCut() {
	if r.lazy.w.FramesSinceCheckpoint() > 0 {
		r.both(func(w *NVWAL) error {
			runUntilStep(w, StepCkptAfterSalt, w.Checkpoint)
			return nil
		})
		r.solo()
	}
	r.powerCut()
}

var pendingSteps = []struct {
	name string
	run  func(*pendingRun)
}{
	{"solo", (*pendingRun).solo},
	{"group", (*pendingRun).group},
	{"session", (*pendingRun).session},
	{"apply", (*pendingRun).apply},
	{"prepare", (*pendingRun).prepare},
	{"checkpoint", (*pendingRun).checkpoint},
	{"frozen power cut", (*pendingRun).frozenCut},
}

func (r *pendingRun) step(i int, name string, fn func(*pendingRun)) {
	if r.lazy.w.pending > 0 {
		r.met[name]++
	}
	fn(r)
	r.check(fmt.Sprintf("step %d (%s)", i, name), r.allPages())
}

// run drives the script: every eighth step cuts power and the next takes
// the step kinds in turn, so each kind meets pending pages; the others are
// drawn at random.
func (r *pendingRun) run(steps int) {
	turn := 0
	for i := 0; i < steps; i++ {
		if i%8 == 7 {
			r.powerCut()
			s := pendingSteps[turn%len(pendingSteps)]
			turn++
			i++
			r.step(i, s.name, s.run)
			continue
		}
		if r.lazy.w.Mark()-r.lo > 60 {
			r.step(i, "checkpoint", (*pendingRun).checkpoint)
			continue
		}
		s := pendingSteps[r.rng.Intn(len(pendingSteps))]
		r.step(i, s.name, s.run)
	}
}

// TestPendingPagesMatchEagerReference is the equivalence property over
// full-frame (LS, UH+LS) and differential (LS+Diff, UH+LS+Diff) variants:
// commits by every entry point, sessions, replica applies, prepares,
// checkpoints and power cuts with and without a frozen round, with every
// page at every valid mark and the database file compared after each.
func TestPendingPagesMatchEagerReference(t *testing.T) {
	steps, seeds := 120, int64(3)
	short := testing.Short() || raceEnabled
	if short {
		steps, seeds = 60, 1
	}
	for _, v := range []NamedConfig{
		{"LS", VariantLS()}, {"UH+LS", VariantUHLS()},
		{"LS+Diff", VariantLSDiff()}, {"UH+LS+Diff", VariantUHLSDiff()},
	} {
		met := make(map[string]int)
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", v.Name, seed), func(t *testing.T) {
				r := newPendingRun(t, v.Cfg, seed)
				r.run(steps)
				for k, n := range r.met {
					met[k] += n
				}
			})
		}
		t.Logf("%s: steps that began with pages pending: %v", v.Name, met)
		for _, s := range pendingSteps {
			if met[s.name] == 0 && !short {
				t.Errorf("%s: no %s step met a pending page", v.Name, s.name)
			}
		}
	}
}

// pendingFixture builds a log over a checkpointed database: pages 2..9
// backfilled, then rewrites of 2..5 in place (their first unbackfilled
// frames are differential under Diff logging) and of 6 as a whole, and
// first writes of 10 and 11 — then cuts power. reads counts the database
// file reads of the reopened log.
func pendingFixture(t *testing.T, cfg Config) (e *testEnv, w *NVWAL, reads *countingDB) {
	e = newEnv(t)
	w = e.open(t, cfg)
	pages := make(map[uint32][]byte)
	for pgno := uint32(2); pgno <= 9; pgno++ {
		pages[pgno] = fullPage(byte(pgno))
	}
	commitPages(t, w, pages)
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		next := make(map[uint32][]byte)
		for pgno := uint32(2); pgno <= 5; pgno++ {
			pages[pgno] = patchedPage(pages[pgno], 64+round*512+int(pgno)*8, 40, byte(0x40+round))
			next[pgno] = pages[pgno]
		}
		commitPages(t, w, next)
	}
	commitPages(t, w, map[uint32][]byte{6: fullPage(0x66), 10: fullPage(0x10), 11: fullPage(0x11)})
	e.wrap = func(db pager.DBFile) pager.DBFile {
		reads = newCountingDB(db)
		return reads
	}
	w = e.reopen(t, cfg, memsim.FailDropAll, 1)
	return e, w, reads
}

// TestPendingCostMovedNotHidden: opening a log reads nothing from the
// database file; the first use of every recovered page reads each page's
// base at most once, and open plus those first uses issue exactly the
// block reads the eager reference's open did.
func TestPendingCostMovedNotHidden(t *testing.T) {
	for _, v := range []NamedConfig{
		{"LS", VariantLS()}, {"UH+LS+Diff", VariantUHLSDiff()}, {"LS+Diff", VariantLSDiff()},
	} {
		t.Run(v.Name, func(t *testing.T) {
			lazyEnv, lazy, lazyReads := pendingFixture(t, v.Cfg)
			if n := lazyReads.total(); n != 0 {
				t.Fatalf("Open read the database file %d times", n)
			}
			refEnv, ref, refReads := pendingFixture(t, v.Cfg)
			refBlocks := refEnv.m.Count(metrics.BlockRead)
			if err := eagerRecover(ref); err != nil {
				t.Fatal(err)
			}
			refBlocks = refEnv.m.Count(metrics.BlockRead) - refBlocks
			if v.Cfg.Differential && refReads.total() == 0 {
				t.Fatal("the reference's open read no base: the fixture leaves nothing pending to build")
			}

			lazyBlocks := lazyEnv.m.Count(metrics.BlockRead)
			for pass := 0; pass < 2; pass++ {
				for pgno := uint32(1); pgno <= 12; pgno++ {
					for mark := 0; mark <= lazy.Mark(); mark++ {
						if _, _, err := lazy.PageImageAt(pgno, mark); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			lazyBlocks = lazyEnv.m.Count(metrics.BlockRead) - lazyBlocks
			if lazyReads.total() != refReads.total() || lazyBlocks != refBlocks {
				t.Fatalf("open + first reads: %d file reads, %d block reads; eager open: %d, %d",
					lazyReads.total(), lazyBlocks, refReads.total(), refBlocks)
			}
			for pgno, n := range lazyReads.reads {
				if n > 1 {
					t.Fatalf("page %d's base read %d times", pgno, n)
				}
			}
			if lazy.pending != 0 {
				t.Fatalf("%d pages still pending after every page was read", lazy.pending)
			}
		})
	}
}

var errBadBase = errors.New("injected database-file read failure")

// TestPendingBuildFailureIsAnError: a recovered page whose base cannot be
// read stays pending, and every way to it — a read at any mark, a commit,
// a stream, a checkpoint — returns the error instead of an image; the log
// is left as it was, and the page builds once the file reads again.
func TestPendingBuildFailureIsAnError(t *testing.T) {
	e, w, reads := pendingFixture(t, VariantUHLSDiff())
	const bad = 3
	broken := true
	reads.fail = func(pgno uint32, _ int) error {
		if pgno == bad && broken {
			return errBadBase
		}
		return nil
	}
	view := pager.NewReadView(w, e.db)
	for mark := 0; mark <= w.Mark(); mark++ {
		if img, _, err := view.PageAt(bad, mark); !errors.Is(err, errBadBase) || img != nil {
			t.Fatalf("read at mark %d = (%d bytes, %v), want the base read's error", mark, len(img), err)
		}
		if img, ok := w.PageVersionAt(bad, mark); !ok || img != nil {
			t.Fatalf("PageVersionAt at mark %d = (%d bytes, %v), want ok with no image", mark, len(img), ok)
		}
	}
	if img, ok := w.PageVersion(bad); !ok || img != nil {
		t.Fatalf("PageVersion = (%d bytes, %v), want ok with no image", len(img), ok)
	}
	mark := w.Mark()
	if err := w.CommitTransaction([]pager.Frame{{Pgno: bad, Data: fullPage(0x99)}}); !errors.Is(err, errBadBase) {
		t.Fatalf("commit = %v", err)
	}
	st := w.NewStream()
	if _, err := st.StagePage(bad, fullPage(0x98), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.CommitStreams([]*Stream{st}, 1); !errors.Is(err, errBadBase) {
		t.Fatalf("stream commit = %v", err)
	}
	if err := w.Checkpoint(); !errors.Is(err, errBadBase) {
		t.Fatalf("checkpoint = %v", err)
	}
	if w.Mark() != mark || w.ckpt != nil {
		t.Fatal("a failed build moved the log")
	}
	if !indexed(w, bad).pending {
		t.Fatal("the page left pending without an image")
	}

	broken = false
	if img, _, err := view.PageAt(bad, w.Mark()); err != nil || img[64+2*512+bad*8] != 0x42 {
		t.Fatalf("page after the file recovered: err %v", err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverFrozenRoundUnreadableBaseKeepsRoundPending: a frozen round's
// page whose base read fails once at open keeps its frames and stays
// pending, the round stays pending, nothing reaches the database file and
// the report flags it. A later read retries the base, and at no mark does
// the page read as the file plus a subset of its frames. The next
// recovery, with the file readable, completes the round: the file holds
// the page's image at the round's watermark.
func TestRecoverFrozenRoundUnreadableBaseKeepsRoundPending(t *testing.T) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)
	v0 := fullPage(0x10)
	commitPages(t, w, map[uint32][]byte{2: v0, 3: fullPage(0x30)})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v1 := patchedPage(v0, 100, 40, 0x11)
	commitPages(t, w, map[uint32][]byte{2: v1})
	v2 := patchedPage(v1, 2000, 40, 0x22)
	commitPages(t, w, map[uint32][]byte{2: v2, 3: fullPage(0x33)})
	runUntilStep(w, StepCkptAfterSalt, w.Checkpoint)
	v3 := patchedPage(v2, 3000, 40, 0x33)
	commitPages(t, w, map[uint32][]byte{2: v3})
	// The file plus every frame but the first.
	partial := patchedPage(patchedPage(v0, 2000, 40, 0x22), 3000, 40, 0x33)

	e.wrap = func(db pager.DBFile) pager.DBFile {
		c := newCountingDB(db)
		c.fail = func(pgno uint32, n int) error {
			if pgno == 2 && n == 1 {
				return errBadBase
			}
			return nil
		}
		return c
	}
	w2 := e.reopen(t, cfg, memsim.FailDropAll, 1)
	rep := w2.Salvage()
	if rep == nil || !rep.DBFileDamaged {
		t.Fatalf("unreadable base did not flag the database file: %s", rep)
	}
	view := pager.NewReadView(w2, e.db)
	for mark := 0; mark <= w2.Mark(); mark++ {
		img, _, err := view.PageAt(2, mark)
		if err == nil && bytes.Equal(img, partial) {
			t.Fatalf("page 2 at mark %d reads as the file plus a subset of its frames", mark)
		}
	}
	if got, ok := w2.PageVersion(3); !ok || !bytes.Equal(got, fullPage(0x33)) {
		t.Fatal("a page with a readable base lost its frames")
	}
	onFile := make([]byte, 4096)
	if err := e.db.ReadPage(2, onFile); err != nil || !bytes.Equal(onFile, v0) {
		t.Fatalf("database file page 2 rewritten (err %v)", err)
	}

	e.wrap = nil
	w3 := e.reopen(t, cfg, memsim.FailDropAll, 2)
	if rep := w3.Salvage(); rep.DBFileDamaged || rep.FramesDropped != 0 {
		t.Fatalf("the round was not left pending for a clean retry: %s", rep)
	}
	if got, ok := w3.PageVersion(2); !ok || !bytes.Equal(got, v3) {
		t.Fatal("page 2 not replayed whole once its base was readable")
	}
	if err := e.db.ReadPage(2, onFile); err != nil || !bytes.Equal(onFile, v2) {
		t.Fatalf("the retried round did not backfill page 2 (err %v)", err)
	}
}

// TestRecoveredRoundWritesWhatTheRoundWrites: power fails in a checkpoint
// round after its freeze, once the new generation holds a rewrite of a
// frozen page (2) and a differential frame over a file base for a page no
// frozen frame touches (4). The recovered round must leave the database
// file as the same script with an uninterrupted round leaves it — each
// frozen page at its image at the watermark — and open must read nothing
// of page 4.
func TestRecoveredRoundWritesWhatTheRoundWrites(t *testing.T) {
	cfg := VariantUHLSDiff()
	v2 := fullPage(0x20)
	v3 := fullPage(0x30)
	v4 := fullPage(0x40)
	v2b := patchedPage(v2, 100, 40, 0x21)
	v3b := patchedPage(v3, 200, 40, 0x31)
	v2c := patchedPage(v2b, 3000, 40, 0x22)
	v4b := patchedPage(v4, 500, 40, 0x41)
	// script runs everything up to the freeze, freeze committing the
	// generation, then the new generation's commits.
	script := func(t *testing.T, freeze func(w *NVWAL)) (*testEnv, *NVWAL) {
		e := newEnv(t)
		w := e.open(t, cfg)
		commitPages(t, w, map[uint32][]byte{2: v2, 3: v3, 4: v4})
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		commitPages(t, w, map[uint32][]byte{2: v2b, 3: v3b})
		freeze(w)
		commitPages(t, w, map[uint32][]byte{2: v2c})
		commitPages(t, w, map[uint32][]byte{4: v4b})
		return e, w
	}
	twinEnv, twin := script(t, func(w *NVWAL) {
		if err := w.FreezeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	})
	if err := twin.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	for _, step := range []string{StepCkptAfterSalt, StepCkptAfterPages, StepCkptAfterSync} {
		t.Run(step, func(t *testing.T) {
			e, w := script(t, func(w *NVWAL) { runUntilStep(w, StepCkptAfterSalt, w.Checkpoint) })
			if step != StepCkptAfterSalt {
				runUntilStep(w, step, w.Checkpoint)
			}
			var reads *countingDB
			e.wrap = func(db pager.DBFile) pager.DBFile {
				reads = newCountingDB(db)
				return reads
			}
			w = e.reopen(t, cfg, memsim.FailDropAll, 1)
			if n := reads.reads[4]; n != 0 {
				t.Errorf("open read page 4, which only the live generation touched, %d times", n)
			}
			// Marks restart at recovery: the round's watermark is its two
			// frozen frames, and the two live frames follow it.
			if w.ckpt != nil || w.Mark() != 4 || w.FramesSinceCheckpoint() != twin.FramesSinceCheckpoint() {
				t.Errorf("round pending %v, mark %d, %d frames to backfill; want done, 4, %d (%s)",
					w.ckpt != nil, w.Mark(), w.FramesSinceCheckpoint(), twin.FramesSinceCheckpoint(), w.Salvage())
			}
			got, want := make([]byte, 4096), make([]byte, 4096)
			for pgno := uint32(1); pgno <= 8; pgno++ {
				if err := e.db.ReadPage(pgno, got); err != nil {
					t.Fatal(err)
				}
				if err := twinEnv.db.ReadPage(pgno, want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("database-file page %d differs from the uninterrupted round's", pgno)
				}
			}
			for pgno, want := range map[uint32][]byte{2: v2c, 3: v3b, 4: v4b} {
				if img, ok := w.PageVersion(pgno); !ok || !bytes.Equal(img, want) {
					t.Errorf("page %d does not read as its last commit", pgno)
				}
			}
		})
	}
}
