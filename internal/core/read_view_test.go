// The read view (imageAt: PageVersionAt / PageImageAt) against the read
// path it replaced, and the immutability it relies on. Seeded scripts
// drive every commit entry point, checkpoints (completed, and parked in
// phase B with commits landing behind them) and power cuts; after every
// step, every page at every mark a reader could still hold must read
// byte-identical to the allocate-and-replay reference, and no image the
// log ever installed may have changed.
package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/memsim"
	"repro/internal/pager"
)

// referencePageAt is the read path the shared read view replaced, kept
// as the reference: allocate a page, replay pgno's whole chain below the
// mark from its base, or read the database file when no frame lies
// below it. below reports which.
func referencePageAt(w *NVWAL, pgno uint32, mark int) (img []byte, below bool, err error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	img = make([]byte, w.pageSize)
	idxs := w.byPage[pgno]
	n := sort.SearchInts(idxs, mark)
	if n == 0 {
		return img, false, w.db.ReadPage(pgno, img)
	}
	copy(img, w.base[pgno])
	for _, abs := range idxs[:n] {
		f := w.history[abs-w.histBase]
		if f.full {
			for i := range img {
				img[i] = 0
			}
		}
		applyExtent(img, f.off, f.payload)
	}
	return img, true, nil
}

// imageGuard checks the ownership rule behind image sharing: an image
// the log installed (a version, a replay base, a checkpoint round's
// page) is never written again until a round releases it (recycle.go),
// and then the log no longer reaches it. It records a CRC of every image
// the first time it is reachable — the observation after the step whose
// publish / completeCheckpoint / recovery installed it — and re-verifies
// every image it has seen and the log has not released, replaced ones
// included, once per observation and once more as the round releases it.
type imageGuard struct {
	mu   sync.Mutex
	seen map[*byte]guardedImage
	// spare holds the images released and not taken since; err is the
	// first violation the release hook saw.
	spare map[*byte]bool
	err   error
}

// hook is the log's spareHook: a released image must not be in the
// spare list already and must still hold the bytes it was installed
// with; from then on the guard forgets it.
func (g *imageGuard) hook(img []byte, in bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := &img[0]
	if !in {
		delete(g.spare, p)
		return
	}
	if gi, ok := g.seen[p]; ok && crc32.ChecksumIEEE(img) != gi.sum && g.err == nil {
		g.err = fmt.Errorf("image installed as %s was modified in place before its release", gi.where)
	}
	if g.spare[p] && g.err == nil {
		g.err = fmt.Errorf("image %p released twice", p)
	}
	delete(g.seen, p)
	if g.spare == nil {
		g.spare = make(map[*byte]bool)
	}
	g.spare[p] = true
}

type guardedImage struct {
	img   []byte
	sum   uint32
	where string
}

func (g *imageGuard) observe(w *NVWAL, step string) (err error) {
	w.mu.Lock()
	w.spareHook = g.hook
	w.mu.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return fmt.Errorf("%s: %w", step, g.err)
	}
	if g.seen == nil {
		g.seen = make(map[*byte]guardedImage)
	}
	for _, gi := range g.seen {
		if crc32.ChecksumIEEE(gi.img) != gi.sum {
			return fmt.Errorf("%s: image installed as %s was modified in place", step, gi.where)
		}
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	note := func(kind string, pgno uint32, img []byte) {
		if g.spare[&img[0]] && err == nil {
			err = fmt.Errorf("%s: %s[%d] is an image the log released", step, kind, pgno)
		}
		if _, ok := g.seen[&img[0]]; !ok {
			g.seen[&img[0]] = guardedImage{img, crc32.ChecksumIEEE(img), fmt.Sprintf("%s[%d] after %s", kind, pgno, step)}
		}
	}
	for pgno, img := range w.versions {
		note("versions", pgno, img)
	}
	for pgno, img := range w.base {
		note("base", pgno, img)
	}
	if w.ckpt != nil {
		for pgno, img := range w.ckpt.pages {
			note("ckpt.pages", pgno, img)
		}
	}
	return err
}

const rvPages = 9 // pages 2..rvPages+1 get written; rvPages+2 never does

// readViewRun drives one seeded script.
type readViewRun struct {
	t     *testing.T
	e     *testEnv
	cfg   Config
	w     *NVWAL
	rng   *rand.Rand
	cur   map[uint32][]byte // committed image of every page written so far
	lo    int               // lowest mark a reader may still hold
	guard imageGuard
	gtx   uint64
}

func (r *readViewRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

// check compares the read view with the reference for every page at
// every valid mark, then runs the immutability guard.
func (r *readViewRun) check(step string) {
	r.t.Helper()
	view := pager.NewReadView(r.w, r.e.db)
	for pgno := uint32(1); pgno <= rvPages+2; pgno++ {
		for mark := r.lo; mark <= r.w.Mark(); mark++ {
			want, below, err := referencePageAt(r.w, pgno, mark)
			r.must(err)
			got, _, err := view.PageAt(pgno, mark)
			r.must(err)
			if !bytes.Equal(got, want) {
				r.t.Fatalf("%s: page %d at mark %d (valid %d..%d) differs from the reference", step, pgno, mark, r.lo, r.w.Mark())
			}
			img, ok := r.w.PageVersionAt(pgno, mark)
			if ok != below || (ok && !bytes.Equal(img, want)) {
				r.t.Fatalf("%s: PageVersionAt(%d, %d) ok=%v, reference has a frame below the mark: %v", step, pgno, mark, ok, below)
			}
		}
	}
	r.must(r.guard.observe(r.w, step))
}

// nextImage returns a new image for a page: a fresh one (random prefix,
// clean tail, so full frames truncate) or base with a few extents
// rewritten. It never modifies an existing image.
func nextImage(rng *rand.Rand, base []byte) []byte {
	img := make([]byte, 4096)
	if base == nil || rng.Intn(6) == 0 {
		rng.Read(img[:1+rng.Intn(4096)])
		return img
	}
	copy(img, base)
	for k := 1 + rng.Intn(3); k > 0; k-- {
		off := rng.Intn(4096)
		rng.Read(img[off:min(4096, off+1+rng.Intn(300))])
	}
	return img
}

// pickPages returns n distinct written-range page numbers.
func pickPages(rng *rand.Rand, n int) []uint32 {
	var out []uint32
	for _, i := range rng.Perm(rvPages)[:n] {
		out = append(out, uint32(2+i))
	}
	return out
}

func (r *readViewRun) next(base []byte) []byte { return nextImage(r.rng, base) }

func (r *readViewRun) pick(n int) []uint32 { return pickPages(r.rng, n) }

func (r *readViewRun) frames(n int) []pager.Frame {
	var frames []pager.Frame
	for _, pgno := range r.pick(n) {
		frames = append(frames, pager.Frame{Pgno: pgno, Data: r.next(r.cur[pgno])})
	}
	return frames
}

func (r *readViewRun) adopt(frames []pager.Frame) {
	for _, fr := range frames {
		r.cur[fr.Pgno] = fr.Data
	}
}

func (r *readViewRun) solo() {
	frames := r.frames(1 + r.rng.Intn(3))
	if r.rng.Intn(8) == 0 && r.cur[frames[0].Pgno] != nil {
		frames[0].Data = r.cur[frames[0].Pgno] // identical rewrite: logs nothing
	}
	r.must(r.w.CommitTransaction(frames))
	r.adopt(frames)
}

// group commits two or three streams, a later one staging a page on top
// of an earlier one's image when they share it.
func (r *readViewRun) group() {
	var streams []*Stream
	staged := make(map[uint32][]byte)
	for g := 2 + r.rng.Intn(2); g > 0; g-- {
		s := r.w.NewStream()
		for _, pgno := range r.pick(1 + r.rng.Intn(2)) {
			base, ok := staged[pgno]
			if !ok {
				base = r.cur[pgno]
			}
			staged[pgno] = r.next(base)
			if _, err := s.StagePage(pgno, staged[pgno], base); err != nil {
				r.t.Fatal(err)
			}
		}
		streams = append(streams, s)
	}
	r.must(r.w.CommitStreams(streams, len(streams)))
	for pgno, img := range staged {
		r.cur[pgno] = img
	}
}

// streams commits two per-writer streams that share a page: the second
// stages it on top of the first's image.
func (r *readViewRun) streams() {
	pg := r.pick(3)
	s1, s2 := r.w.NewStream(), r.w.NewStream()
	stage := func(s *Stream, pgno uint32, base []byte) []byte {
		img := r.next(base)
		if _, err := s.StagePage(pgno, img, base); err != nil {
			r.t.Fatal(err)
		}
		r.cur[pgno] = img
		return img
	}
	shared := stage(s1, pg[0], r.cur[pg[0]])
	stage(s1, pg[1], r.cur[pg[1]])
	stage(s2, pg[0], shared)
	stage(s2, pg[2], r.cur[pg[2]])
	r.must(r.w.CommitStreams([]*Stream{s1, s2}, 2))
}

func (r *readViewRun) prepare() {
	frames := r.frames(1 + r.rng.Intn(2))
	r.gtx++
	r.must(r.w.PrepareTransaction(frames, r.gtx))
	r.check("prepared, undecided")
	if r.rng.Intn(2) == 0 {
		r.must(r.w.AbortPrepared(r.gtx))
		return
	}
	r.must(r.w.CompletePrepared(r.gtx))
	r.adopt(frames)
}

func (r *readViewRun) checkpoint() {
	r.must(r.w.Checkpoint())
	r.lo = r.w.Mark() // the round retired every frame below its watermark
}

// parkedCheckpoint parks a round in phase B — pages written, not synced,
// no lock held — lands commits behind it, checks the view mid-round and
// then lets it complete.
func (r *readViewRun) parkedCheckpoint() {
	if r.w.FramesSinceCheckpoint() == 0 {
		return
	}
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	r.w.SetCrashHook(func(s string) {
		if s == StepCkptAfterPages {
			close(entered)
			<-release
		}
	})
	go func() { done <- r.w.Checkpoint() }()
	<-entered
	r.lo = r.w.Mark() // a reader pinned now is at or above the frozen watermark
	r.check("checkpoint parked in phase B")
	for k := 1 + r.rng.Intn(3); k > 0; k-- {
		if r.rng.Intn(2) == 0 {
			r.solo()
		} else {
			r.streams()
		}
		r.check("commit behind a parked checkpoint")
	}
	close(release)
	r.must(<-done)
	r.w.SetCrashHook(nil)
}

// powerCut fails power with everything unflushed dropped and reopens.
// Recovery replays frames into its images in place; it has returned
// before any reader can exist, so the guard starts over on the new
// instance and every image recovery installed must hold still from here.
func (r *readViewRun) powerCut() {
	r.must(r.guard.observe(r.w, "before power cut"))
	r.w = r.e.reopen(r.t, r.cfg, memsim.FailDropAll, r.rng.Int63())
	r.guard = imageGuard{}
	r.lo = r.w.Mark()
	for pgno, want := range r.cur {
		if got, ok := r.w.PageVersion(pgno); ok && !bytes.Equal(got, want) {
			r.t.Fatalf("page %d recovered wrong", pgno)
		}
	}
}

func (r *readViewRun) run(steps int) {
	for i := 0; i < steps; i++ {
		var step string
		switch n := r.rng.Intn(100); {
		case r.w.Mark()-r.lo > 60:
			step = "checkpoint (forced)"
			r.checkpoint()
		case n < 30:
			step = "solo"
			r.solo()
		case n < 45:
			step = "group"
			r.group()
		case n < 67:
			step = "streams"
			r.streams()
		case n < 77:
			step = "prepare"
			r.prepare()
		case n < 86:
			step = "checkpoint"
			r.checkpoint()
		case n < 94:
			step = "parked checkpoint"
			r.parkedCheckpoint()
		default:
			step = "power cut"
			r.powerCut()
		}
		r.check(fmt.Sprintf("step %d (%s)", i, step))
	}
}

func newReadViewRun(t *testing.T, cfg Config, seed int64) *readViewRun {
	e := newEnv(t)
	return &readViewRun{t: t, e: e, cfg: cfg, w: e.open(t, cfg), rng: rand.New(rand.NewSource(seed)), cur: make(map[uint32][]byte)}
}

// raceEnabled is set by race_test.go when the race detector is on: the
// long equivalence properties then run at their -short size.
var raceEnabled bool

// TestReadViewMatchesReference is the reference-equivalence property
// over full-frame (LS, UH+LS) and differential (LS+Diff, UH+LS+Diff)
// variants.
func TestReadViewMatchesReference(t *testing.T) {
	steps, seeds := 120, int64(3)
	if testing.Short() || raceEnabled {
		steps, seeds = 60, 1
	}
	for _, v := range []NamedConfig{
		{"LS", VariantLS()}, {"UH+LS", VariantUHLS()},
		{"LS+Diff", VariantLSDiff()}, {"UH+LS+Diff", VariantUHLSDiff()},
	} {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", v.Name, seed), func(t *testing.T) {
				newReadViewRun(t, v.Cfg, seed).run(steps)
			})
		}
	}
}

// TestReadViewGuardCatchesInPlacePatch shows the immutability guard is
// not vacuous: patching one byte of an installed image in place — what
// no code path may do — fails the next observation, for a current
// version, a replay base and a replaced version alike.
func TestReadViewGuardCatchesInPlacePatch(t *testing.T) {
	for _, victim := range []string{"version", "base", "replaced"} {
		r := newReadViewRun(t, VariantUHLSDiff(), 7)
		r.run(20)
		r.checkpoint()
		r.must(r.w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: r.next(r.cur[2])}}))
		r.must(r.guard.observe(r.w, "setup"))
		var img []byte
		switch victim {
		case "version":
			img = r.w.versions[2]
		case "base":
			img = r.w.base[2]
		case "replaced":
			// Replaced, and not yet released: no round has retired the
			// commit that replaced it.
			img = r.w.versions[2]
			r.must(r.w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: r.next(img)}}))
		}
		img[100] ^= 0x40
		if err := r.guard.observe(r.w, "patched"); err == nil {
			t.Fatalf("guard missed an in-place patch of a %s image", victim)
		}
	}
}

// TestReadViewSharesInstalledImages pins the allocation contract: a page
// unchanged since the mark, a page whose frames are all backfilled and a
// page whose frames are all above the mark resolve to the very image the
// log holds, with no allocation; only a page rewritten after the mark
// replays into a fresh buffer.
func TestReadViewSharesInstalledImages(t *testing.T) {
	// Full-frame logging too: the base is recorded whatever the shape of
	// the page's first unbackfilled frame.
	for _, cfg := range []Config{VariantUHLSDiff(), VariantUHLS()} {
		t.Run(cfg.Label(), func(t *testing.T) { testSharesInstalledImages(t, cfg) })
	}
}

func testSharesInstalledImages(t *testing.T, cfg Config) {
	e := newEnv(t)
	w := e.open(t, cfg)
	v1 := fullPage(0x11)
	commitPages(t, w, map[uint32][]byte{2: v1, 3: fullPage(0x33)})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	backfilled := w.Mark()
	v2 := patchedPage(v1, 100, 50, 0x22)
	commitPages(t, w, map[uint32][]byte{2: v2})
	mid := w.Mark()
	v3 := patchedPage(v2, 900, 50, 0x44)
	commitPages(t, w, map[uint32][]byte{2: v3})

	same := func(a, b []byte) bool { return &a[0] == &b[0] }
	cases := []struct {
		name   string
		pgno   uint32
		mark   int
		shared []byte
		want   []byte
	}{
		{"fully backfilled", 3, w.Mark(), w.versions[3], fullPage(0x33)},
		{"all frames above the mark", 2, backfilled, w.base[2], v1},
		{"unchanged since the mark", 2, w.Mark(), w.versions[2], v3},
		{"rewritten after the mark", 2, mid, nil, v2},
	}
	for _, c := range cases {
		got, shared, err := w.PageImageAt(c.pgno, c.mark)
		if err != nil || !bytes.Equal(got, c.want) {
			t.Fatalf("%s: wrong image (%v)", c.name, err)
		}
		if shared != (c.shared != nil) {
			t.Fatalf("%s: reported shared=%v", c.name, shared)
		}
		allocs := testing.AllocsPerRun(20, func() { w.PageImageAt(c.pgno, c.mark) })
		if c.shared != nil && (!same(got, c.shared) || allocs != 0) {
			t.Fatalf("%s: shared=%v allocs=%v, want the log's own image and 0", c.name, same(got, c.shared), allocs)
		}
		if c.shared == nil && allocs != 1 {
			t.Fatalf("%s: %v allocs, want exactly the replay buffer", c.name, allocs)
		}
	}
	if img, _, _ := w.PageImageAt(9, w.Mark()); img != nil {
		t.Fatal("a never-logged page must resolve to the database file (nil)")
	}
}
