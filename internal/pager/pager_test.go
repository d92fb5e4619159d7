package pager

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

// fakeJournal is an in-memory Journal recording commits. Like NVWAL it
// keeps the images a successful commit hands it as the pages' versions,
// by pointer: a pager that wrote a buffer after handing it over would
// change a committed version.
type fakeJournal struct {
	versions map[uint32][]byte
	commits  int
	failNext bool
}

func newFakeJournal() *fakeJournal {
	return &fakeJournal{versions: make(map[uint32][]byte)}
}

func (j *fakeJournal) CommitTransaction(frames []Frame) error {
	if j.failNext {
		j.failNext = false
		return errors.New("injected commit failure")
	}
	for _, fr := range frames {
		j.versions[fr.Pgno] = fr.Data
	}
	j.commits++
	return nil
}

func (j *fakeJournal) PageVersion(pgno uint32) ([]byte, bool) {
	v, ok := j.versions[pgno]
	return v, ok
}

func (j *fakeJournal) FramesSinceCheckpoint() int { return len(j.versions) }

func (j *fakeJournal) Checkpoint() error { return nil }

// fakeDBFile is an in-memory DBFile.
type fakeDBFile struct {
	pages map[uint32][]byte
}

func newFakeDBFile() *fakeDBFile { return &fakeDBFile{pages: make(map[uint32][]byte)} }

func (f *fakeDBFile) PageSize() int { return 4096 }

func (f *fakeDBFile) ReadPage(pgno uint32, buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	if p, ok := f.pages[pgno]; ok {
		copy(buf, p)
	}
	return nil
}

func (f *fakeDBFile) WritePage(pgno uint32, data []byte) error {
	img := make([]byte, len(data))
	copy(img, data)
	f.pages[pgno] = img
	return nil
}

func (f *fakeDBFile) Sync() error { return nil }

func newPager(t testing.TB) (*Pager, *fakeJournal, *fakeDBFile) {
	t.Helper()
	j, f := newFakeJournal(), newFakeDBFile()
	p, err := Open(f, j)
	if err != nil {
		t.Fatal(err)
	}
	return p, j, f
}

func TestOpenInitializesHeader(t *testing.T) {
	p, j, _ := newPager(t)
	n, err := p.PageCount()
	if err != nil || n != 1 {
		t.Fatalf("PageCount = (%d,%v), want 1", n, err)
	}
	if j.commits != 1 {
		t.Fatalf("header initialization committed %d times, want 1", j.commits)
	}
}

func TestOpenExistingHeader(t *testing.T) {
	j, f := newFakeJournal(), newFakeDBFile()
	p1, err := Open(f, j)
	if err != nil {
		t.Fatal(err)
	}
	p1.Begin()
	if _, _, err := p1.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Commit(); err != nil {
		t.Fatal(err)
	}
	p2, err := Open(f, j)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p2.PageCount(); n != 2 {
		t.Fatalf("PageCount after reopen = %d, want 2", n)
	}
}

func TestOpenRejectsGarbagePage1(t *testing.T) {
	j, f := newFakeJournal(), newFakeDBFile()
	f.pages[1] = bytes.Repeat([]byte{0xFF}, 4096)
	if _, err := Open(f, j); err == nil {
		t.Fatal("garbage page 1 accepted as a database")
	}
}

func TestAllocateExtendsPageCount(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	pgno, buf, err := p.Allocate()
	if err != nil || pgno != 2 || len(buf) != 4096 {
		t.Fatalf("Allocate = (%d, %d bytes, %v)", pgno, len(buf), err)
	}
	if n, _ := p.PageCount(); n != 2 {
		t.Fatalf("PageCount = %d", n)
	}
	p.Commit()
}

func TestAllocateOutsideTxnFails(t *testing.T) {
	p, _, _ := newPager(t)
	if _, _, err := p.Allocate(); err == nil {
		t.Fatal("Allocate outside txn succeeded")
	}
}

func TestCommitSendsDirtyFrames(t *testing.T) {
	p, j, _ := newPager(t)
	p.Begin()
	_, buf, _ := p.Allocate()
	copy(buf, "hello")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	v, ok := j.PageVersion(2)
	if !ok || !bytes.Equal(v[:5], []byte("hello")) {
		t.Fatal("dirty page did not reach the journal")
	}
	// Header page committed too (page count changed).
	if _, ok := j.PageVersion(1); !ok {
		t.Fatal("header page not committed")
	}
}

// TestRollbackRestoresPreImages pins the copy-on-write contract: Get
// hands out the committed image, MarkDirty a private copy while the
// committed image is kept by pointer (not copied again) as the rollback
// image, and Rollback re-points the cache at it — so the committed image
// is never written, and a reader holding it keeps seeing it throughout.
func TestRollbackRestoresPreImages(t *testing.T) {
	p, j, _ := newPager(t)
	p.Begin()
	_, buf, _ := p.Allocate()
	copy(buf, "committed")
	p.Commit()

	p.Begin()
	committed, _ := p.Get(2)
	if &committed[0] != &j.versions[2][0] {
		t.Fatal("the cache does not share the journal's committed image")
	}
	own := p.MarkDirty(2)
	if &own[0] == &committed[0] {
		t.Fatal("MarkDirty handed out the committed image for writing")
	}
	if &p.pages[2].orig[0] != &committed[0] {
		t.Fatal("the rollback image is a copy, not the committed image")
	}
	if again := p.MarkDirty(2); &again[0] != &own[0] {
		t.Fatal("a second MarkDirty made a second copy")
	}
	if got, _ := p.Get(2); &got[0] != &own[0] {
		t.Fatal("Get inside the transaction does not see its own copy")
	}
	copy(own, "scribbled")
	if !bytes.Equal(committed[:9], []byte("committed")) {
		t.Fatalf("writing the private copy changed the committed image: %q", committed[:9])
	}
	p.Rollback()
	got, _ := p.Get(2)
	if &got[0] != &committed[0] || !bytes.Equal(got[:9], []byte("committed")) {
		t.Fatalf("rollback left %q", got[:9])
	}
	if n, _ := p.PageCount(); n != 2 {
		t.Fatalf("PageCount after rollback = %d", n)
	}
}

// imageGuard CRCs every committed image the pager or the journal holds —
// cache entries outside the open transaction's dirty set, rollback
// images, journal versions — the first time it sees one, and re-verifies
// all of them, replaced ones included, on every check.
type imageGuard struct {
	crcs map[*byte]imageCRC
}

type imageCRC struct {
	img []byte
	crc uint32
}

func (g *imageGuard) record(img []byte) {
	if len(img) == 0 {
		return
	}
	if g.crcs == nil {
		g.crcs = make(map[*byte]imageCRC)
	}
	if _, ok := g.crcs[&img[0]]; !ok {
		g.crcs[&img[0]] = imageCRC{img, crc32.ChecksumIEEE(img)}
	}
}

// check verifies every recorded image, then records the ones now held.
func (g *imageGuard) check(t *testing.T, step string, p *Pager, j *fakeJournal) {
	t.Helper()
	for _, c := range g.crcs {
		if crc32.ChecksumIEEE(c.img) != c.crc {
			t.Fatalf("%s: a committed image was written in place", step)
		}
	}
	for _, s := range p.pages {
		if !s.dirty {
			g.record(s.img)
		}
		g.record(s.orig)
	}
	for _, img := range j.versions {
		g.record(img)
	}
}

// TestOwnershipCommittedImagesNeverWritten drives the pager through every
// way the database layer ends a transaction — commit, rollback, a solo
// commit that fails and is retried with the same frames (the ErrLogFull
// path) — plus two transactions that dirtied the same page one after the
// other and reach the journal only after both finished, and requires that
// no committed image, in the cache or in the journal, ever changes.
func TestOwnershipCommittedImagesNeverWritten(t *testing.T) {
	p, j, _ := newPager(t)
	var g imageGuard
	g.check(t, "open", p, j)
	write := func(pgno uint32, s string) {
		t.Helper()
		if _, err := p.Get(pgno); err != nil {
			t.Fatal(err)
		}
		copy(p.MarkDirty(pgno)[8:], s)
	}

	p.Begin()
	for i := 0; i < 4; i++ {
		if _, _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	write(2, "first")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	g.check(t, "commit", p, j)

	p.Begin()
	write(2, "rolled back")
	write(3, "rolled back")
	if err := p.Free(4); err != nil {
		t.Fatal(err)
	}
	g.check(t, "dirty", p, j)
	p.Rollback()
	g.check(t, "rollback", p, j)

	p.Begin()
	write(2, "retried")
	write(5, "retried")
	frames, _ := p.PrepareCommit()
	j.failNext = true
	if err := p.Journal().CommitTransaction(frames); err == nil {
		t.Fatal("the injected failure did not fail the commit")
	}
	g.check(t, "failed attempt", p, j)
	if err := p.Journal().CommitTransaction(frames); err != nil {
		t.Fatal(err)
	}
	p.FinishCommit()
	g.check(t, "retry", p, j)

	var queued [][]Frame
	for _, s := range []string{"group member A", "group member B"} {
		p.Begin()
		write(2, s)
		write(3, s)
		frames, _ := p.PrepareCommit()
		queued = append(queued, slices.Clone(frames))
		p.FinishCommit()
		g.check(t, "queued "+s, p, j)
	}
	for _, frames := range queued {
		if err := j.CommitTransaction(frames); err != nil {
			t.Fatal(err)
		}
	}
	g.check(t, "late commits", p, j)
	for _, pgno := range []uint32{2, 3} {
		if got, _ := p.Get(pgno); !bytes.Equal(got[8:22], []byte("group member B")) || &got[0] != &j.versions[pgno][0] {
			t.Fatalf("page %d after the late commits: cache %q, not the journal's last image", pgno, got[8:22])
		}
	}
	if len(g.crcs) < 8 {
		t.Fatalf("guard saw only %d images", len(g.crcs))
	}
}

func TestRollbackDropsFreshPages(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	p.Allocate()
	p.Rollback()
	if n, _ := p.PageCount(); n != 1 {
		t.Fatalf("PageCount after rollback = %d, want 1", n)
	}
	// Re-allocation reuses the page number.
	p.Begin()
	pgno, _, _ := p.Allocate()
	if pgno != 2 {
		t.Fatalf("re-allocation got page %d, want 2", pgno)
	}
	p.Rollback()
}

func TestGetReadsThroughJournalThenFile(t *testing.T) {
	p, j, f := newPager(t)
	img := make([]byte, 4096)
	copy(img, "from-journal")
	j.versions[7] = img
	img2 := make([]byte, 4096)
	copy(img2, "from-file")
	f.pages[8] = img2
	// Pages 7 and 8 exist: the header counts them.
	p.Begin()
	SetHeaderPageCount(p.MarkDirty(1), 8)
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	got, _ := p.Get(7)
	if !bytes.Equal(got[:12], []byte("from-journal")) {
		t.Fatal("journal version not preferred")
	}
	got, _ = p.Get(8)
	if !bytes.Equal(got[:9], []byte("from-file")) {
		t.Fatal("file fallback broken")
	}
}

// TestGetPastPageCount: a page past the header's page count is
// ErrPageRange, even where the database file holds bytes for it, and the
// page table does not grow for it; inside a transaction the count is the
// transaction's own, so an allocation brings the next page into range and
// its rollback takes it out again.
func TestGetPastPageCount(t *testing.T) {
	p, _, f := newPager(t)
	p.Begin()
	for range 2 {
		if _, _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	n, _ := p.PageCount()
	f.pages[n+1] = bytes.Repeat([]byte{0xF1}, 4096)
	before := len(p.pages)
	for _, pgno := range []uint32{n + 1, 1 << 31} {
		if img, err := p.Get(pgno); !errors.Is(err, ErrPageRange) || img != nil {
			t.Fatalf("Get(%d) of a %d-page database = (%d bytes, %v), want ErrPageRange", pgno, n, len(img), err)
		}
		if len(p.pages) != before {
			t.Fatalf("Get(%d) grew the page table from %d to %d slots", pgno, before, len(p.pages))
		}
	}
	p.Begin()
	if pgno, _, err := p.Allocate(); err != nil || pgno != n+1 {
		t.Fatalf("Allocate = (%d, %v), want page %d", pgno, err, n+1)
	}
	if _, err := p.Get(n + 1); err != nil {
		t.Fatalf("Get of the page the transaction allocated: %v", err)
	}
	if _, err := p.Get(n + 2); !errors.Is(err, ErrPageRange) {
		t.Fatalf("Get(%d) inside the transaction = %v, want ErrPageRange", n+2, err)
	}
	p.Rollback()
	if _, err := p.Get(n + 1); !errors.Is(err, ErrPageRange) {
		t.Fatalf("Get(%d) after the allocation rolled back = %v, want ErrPageRange", n+1, err)
	}
}

var sinkImage []byte

// BenchmarkPagerGet is a cache hit on a 4 096-page database, pages
// visited scattered: the page table's lookup. 0 allocs/op.
func BenchmarkPagerGet(b *testing.B) {
	const pages = 4096
	p, _, _ := newPager(b)
	p.Begin()
	for range pages - 1 {
		if _, _, err := p.Allocate(); err != nil {
			b.Fatal(err)
		}
	}
	if err := p.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := p.Get(1 + uint32(i)*2654435761>>20) // 1..4096
		if err != nil {
			b.Fatal(err)
		}
		sinkImage = img
	}
}

func TestGetPageZeroRejected(t *testing.T) {
	p, _, _ := newPager(t)
	if _, err := p.Get(0); err == nil {
		t.Fatal("page 0 accepted")
	}
}

func TestCommitFailureRollsBack(t *testing.T) {
	p, j, _ := newPager(t)
	p.Begin()
	_, buf, _ := p.Allocate()
	copy(buf, "x")
	j.failNext = true
	if err := p.Commit(); err == nil {
		t.Fatal("commit did not propagate journal failure")
	}
	// The failed transaction was rolled back: it is closed, its dirty
	// set is empty, and its page allocation was undone — nothing can
	// leak into the next transaction.
	if p.InTransaction() {
		t.Fatal("failed commit left the transaction open")
	}
	if n := p.DirtyPages(); n != 0 {
		t.Fatalf("DirtyPages = %d after failed commit, want 0", n)
	}
	if n, _ := p.PageCount(); n != 1 {
		t.Fatalf("PageCount = %d after failed-commit rollback", n)
	}
	// The next transaction starts clean and commits nothing extra.
	p.Begin()
	if err := p.Commit(); err != nil {
		t.Fatalf("empty follow-up commit: %v", err)
	}
	if j.commits != 1 {
		t.Fatalf("journal saw %d commits, want only the initial header commit", j.commits)
	}
}

func TestMarkDirtyOutsideTxnPanics(t *testing.T) {
	p, _, _ := newPager(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MarkDirty outside txn did not panic")
		}
	}()
	p.MarkDirty(1)
}

func TestNestedBeginPanics(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
		p.Rollback()
	}()
	p.Begin()
}

func TestDropCacheRereadsCommittedState(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	_, buf, _ := p.Allocate()
	copy(buf, "persisted")
	p.Commit()
	p.DropCache()
	got, _ := p.Get(2)
	if !bytes.Equal(got[:9], []byte("persisted")) {
		t.Fatal("cold read lost committed data")
	}
}

func TestDirtyPagesCount(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	p.Allocate()
	p.Allocate()
	// Header + two fresh pages.
	if got := p.DirtyPages(); got != 3 {
		t.Fatalf("DirtyPages = %d, want 3", got)
	}
	p.Rollback()
	if got := p.DirtyPages(); got != 0 {
		t.Fatalf("DirtyPages after rollback = %d", got)
	}
}

func TestFreelistRecyclesPages(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	pg2, _, _ := p.Allocate()
	pg3, _, _ := p.Allocate()
	p.Commit()

	p.Begin()
	if err := p.Free(pg2); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.FreePageCount(); n != 1 {
		t.Fatalf("FreePageCount = %d", n)
	}
	p.Commit()

	p.Begin()
	got, buf, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got != pg2 {
		t.Fatalf("allocation returned page %d, want recycled %d", got, pg2)
	}
	if !bytes.Equal(buf, make([]byte, 4096)) {
		t.Fatal("recycled page not zeroed")
	}
	if n, _ := p.FreePageCount(); n != 0 {
		t.Fatalf("FreePageCount after reuse = %d", n)
	}
	// Page count did not grow while recycling.
	if n, _ := p.PageCount(); n != pg3 {
		t.Fatalf("PageCount = %d, want %d", n, pg3)
	}
	p.Commit()
}

func TestFreelistChainOrder(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	var pages []uint32
	for i := 0; i < 5; i++ {
		pg, _, _ := p.Allocate()
		pages = append(pages, pg)
	}
	for _, pg := range pages {
		if err := p.Free(pg); err != nil {
			t.Fatal(err)
		}
	}
	// LIFO: the last freed page comes back first.
	for i := len(pages) - 1; i >= 0; i-- {
		pg, _, err := p.Allocate()
		if err != nil || pg != pages[i] {
			t.Fatalf("pop %d = page %d, want %d", len(pages)-1-i, pg, pages[i])
		}
	}
	p.Commit()
}

func TestFreeRollsBack(t *testing.T) {
	p, _, _ := newPager(t)
	p.Begin()
	pg, buf, _ := p.Allocate()
	copy(buf, "payload")
	p.Commit()

	p.Begin()
	p.Free(pg)
	p.Rollback()
	if n, _ := p.FreePageCount(); n != 0 {
		t.Fatalf("rolled-back free left %d freelist entries", n)
	}
	got, _ := p.Get(pg)
	if !bytes.Equal(got[:7], []byte("payload")) {
		t.Fatal("rolled-back free corrupted page content")
	}
}

func TestFreeInvalidPages(t *testing.T) {
	p, _, _ := newPager(t)
	if err := p.Free(2); err == nil {
		t.Fatal("Free outside txn accepted")
	}
	p.Begin()
	if err := p.Free(1); err == nil {
		t.Fatal("freeing the header page accepted")
	}
	p.Rollback()
}

func TestFreelistSurvivesReopen(t *testing.T) {
	j, f := newFakeJournal(), newFakeDBFile()
	p1, _ := Open(f, j)
	p1.Begin()
	pg, _, _ := p1.Allocate()
	p1.Commit()
	p1.Begin()
	p1.Free(pg)
	p1.Commit()

	p2, err := Open(f, j)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := p2.FreePageCount(); n != 1 {
		t.Fatalf("freelist lost across reopen: %d", n)
	}
	p2.Begin()
	got, _, _ := p2.Allocate()
	if got != pg {
		t.Fatalf("reopened pager allocated %d, want %d", got, pg)
	}
	p2.Commit()
}

func TestFrameOrderDeterministic(t *testing.T) {
	frames := []Frame{{Pgno: 9}, {Pgno: 2}, {Pgno: 5}}
	sortFrames(frames)
	if frames[0].Pgno != 2 || frames[1].Pgno != 5 || frames[2].Pgno != 9 {
		t.Fatalf("sortFrames = %v", frames)
	}
}

// imagerJournal adds the read view's interface to fakeJournal: every
// mark sees the current versions, handed out shared like NVWAL does.
type imagerJournal struct{ *fakeJournal }

func (j imagerJournal) Mark() int { return j.commits }

func (j imagerJournal) PageImageAt(pgno uint32, _ int) ([]byte, bool, error) {
	return j.versions[pgno], true, nil
}

// copyingJournal serves every image as a private copy, the way NVWAL
// serves a page it has to build for the call.
type copyingJournal struct{ *fakeJournal }

func (j copyingJournal) Mark() int { return j.commits }

func (j copyingJournal) PageImageAt(pgno uint32, _ int) ([]byte, bool, error) {
	return bytes.Clone(j.versions[pgno]), false, nil
}

// versionedJournal is a fake both the pager and a read view accept.
type versionedJournal interface {
	Journal
	PageImager
	Mark() int
}

// unbuiltJournal holds page unbuilt but cannot build its image:
// PageImageAt reports err, PageVersion ok with a nil image.
type unbuiltJournal struct {
	versionedJournal
	err error
}

const unbuilt = 3

var errUnbuilt = errors.New("injected base read failure")

func (j unbuiltJournal) PageImageAt(pgno uint32, mark int) ([]byte, bool, error) {
	if pgno == unbuilt {
		return nil, false, j.err
	}
	return j.versionedJournal.PageImageAt(pgno, mark)
}

func (j unbuiltJournal) PageVersion(pgno uint32) ([]byte, bool) {
	if pgno == unbuilt {
		return nil, true
	}
	return j.versionedJournal.PageVersion(pgno)
}

// plainJournal hides every capability but Journal: the pager's cache miss
// then goes through PageVersion.
type plainJournal struct{ Journal }

// TestUnbuiltPageNeverReadsTheFile: a page the journal holds but cannot
// build is an error for the pager and the read view, through PageImageAt
// (shared or copying) and through PageVersion alike — never the database
// file's image.
func TestUnbuiltPageNeverReadsTheFile(t *testing.T) {
	f := newFakeDBFile()
	_ = f.WritePage(unbuilt, bytes.Repeat([]byte{0xF2}, 4096))
	// A database whose header counts the unbuilt page.
	hdr := make([]byte, 4096)
	copy(hdr, headerMagic)
	SetHeaderPageCount(hdr, unbuilt)
	_ = f.WritePage(1, hdr)
	for _, c := range []struct {
		name string
		jrn  unbuiltJournal
		want error
	}{
		{"imager", unbuiltJournal{imagerJournal{newFakeJournal()}, errUnbuilt}, errUnbuilt},
		{"copying", unbuiltJournal{copyingJournal{newFakeJournal()}, fmt.Errorf("%w: page %d", ErrNoImage, unbuilt)}, ErrNoImage},
	} {
		for _, pj := range []struct {
			name string
			jrn  Journal
			want error
		}{{"PageImageAt", c.jrn, c.want}, {"PageVersion", plainJournal{c.jrn}, ErrNoImage}} {
			p, err := Open(f, pj.jrn)
			if err != nil {
				t.Fatal(err)
			}
			if img, err := p.Get(unbuilt); !errors.Is(err, pj.want) || img != nil {
				t.Fatalf("%s: Get through %s = (%d bytes, %v), want %v", c.name, pj.name, len(img), err, pj.want)
			}
		}
		v := NewReadView(c.jrn, f)
		if img, _, err := v.PageAt(unbuilt, c.jrn.Mark()); !errors.Is(err, c.want) || img != nil {
			t.Fatalf("%s: PageAt = (%d bytes, %v), want %v", c.name, len(img), err, c.want)
		}
	}
}

type failingDBFile struct{ *fakeDBFile }

func (failingDBFile) ReadPage(uint32, []byte) error { return errors.New("injected read failure") }

// TestReadViewSnapshotResolution covers the one helper every versioned
// reader calls: a shared image is returned as is (no copy) and reported
// shared; a copy the log built for the call is returned as not shared; a
// page the log does not hold comes from the file in a private buffer; a
// file error surfaces.
func TestReadViewSnapshotResolution(t *testing.T) {
	f := newFakeDBFile()
	logged, onFile := bytes.Repeat([]byte{0xA1}, 4096), bytes.Repeat([]byte{0xF2}, 4096)
	_ = f.WritePage(3, onFile)
	fj := newFakeJournal()
	_ = fj.CommitTransaction([]Frame{{Pgno: 2, Data: logged}})

	log := imagerJournal{fj}
	shared := NewReadView(log, f)
	if got, isShared, err := shared.PageAt(2, log.Mark()); err != nil || !isShared || &got[0] != &fj.versions[2][0] {
		t.Fatalf("a shared image not handed out as is (shared=%v err=%v)", isShared, err)
	}
	copied := NewReadView(copyingJournal{fj}, f)
	if got, isShared, err := copied.PageAt(2, log.Mark()); err != nil || isShared || !bytes.Equal(got, logged) || &got[0] == &fj.versions[2][0] {
		t.Fatalf("a copy the log built must be served as not shared (shared=%v err=%v)", isShared, err)
	}
	for _, v := range []*ReadView{shared, copied} {
		got, isShared, err := v.PageAt(3, log.Mark())
		if err != nil || isShared || !bytes.Equal(got, onFile) || &got[0] == &f.pages[3][0] {
			t.Fatalf("unlogged page must come from the file in a private buffer (shared=%v err=%v)", isShared, err)
		}
		if v.PageSize() != 4096 {
			t.Fatal("PageSize")
		}
	}
	if _, _, err := NewReadView(copyingJournal{fj}, failingDBFile{f}).PageAt(3, 0); err == nil {
		t.Fatal("file read error swallowed")
	}
}
