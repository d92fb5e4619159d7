package ext4

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/trace"
)

func newFS(t testing.TB) (*FS, *trace.Recorder, *metrics.Counters, *simclock.Clock) {
	t.Helper()
	clock := simclock.New()
	m := &metrics.Counters{}
	dev := blockdev.New(blockdev.Config{Pages: 8192 + journalRegionPages}, clock, m)
	rec := dev.StartTrace()
	return New(dev), rec, m, clock
}

func TestCreateOpenRemove(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, err := fs.Create("a.db", "db")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a.db" {
		t.Fatalf("Name = %q", f.Name())
	}
	if _, err := fs.Create("a.db", "db"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := fs.Open("a.db"); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := fs.Remove("a.db"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a.db"); err == nil {
		t.Fatal("open of removed file succeeded")
	}
	if err := fs.Remove("a.db"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestOpenOrCreate(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f1, err := fs.OpenOrCreate("x", "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.WriteAt([]byte("hi"), 0); err != nil {
		t.Fatal(err)
	}
	f2, err := fs.OpenOrCreate("x", "db")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := f2.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("hi")) {
		t.Fatalf("second handle read %q", buf)
	}
}

func TestWriteReadAcrossPages(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("big", "db")
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := f.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10100 {
		t.Fatalf("Size = %d, want 10100", f.Size())
	}
	got := make([]byte, 10000)
	if _, err := f.ReadAt(got, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page read mismatch")
	}
}

func TestReadAtEOF(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("s", "db")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("ReadAt = (%d, %v), want (3, EOF)", n, err)
	}
	n, err = f.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Fatalf("ReadAt past EOF = (%d, %v)", n, err)
	}
}

func TestFsyncMakesDataDurable(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("d", "db")
	f.WriteAt([]byte("durable"), 0)
	f.Fsync()
	fs.PowerFail()
	f2, err := fs.Open("d")
	if err != nil {
		t.Fatalf("file lost after fsync+crash: %v", err)
	}
	buf := make([]byte, 7)
	f2.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("durable")) {
		t.Fatalf("post-crash content = %q", buf)
	}
}

func TestUnsyncedDataLostOnCrash(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("d", "db")
	f.WriteAt([]byte("first"), 0)
	f.Fsync()
	f.WriteAt([]byte("SECON"), 0)
	fs.PowerFail()
	f2, _ := fs.Open("d")
	buf := make([]byte, 5)
	f2.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte("first")) {
		t.Fatalf("post-crash content = %q, want %q", buf, "first")
	}
}

func TestUncommittedFileLostOnCrash(t *testing.T) {
	fs, _, _, _ := newFS(t)
	fs.Create("never-synced", "db")
	fs.PowerFail()
	if fs.Exists("never-synced") {
		t.Fatal("uncommitted file survived crash")
	}
}

func TestAppendJournalsAllocation(t *testing.T) {
	fs, rec, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.WriteAt(make([]byte, 4096), 0) // allocates a fresh page
	f.Fsync()
	by := rec.BytesByTag()
	// descriptor + inode + bitmap + group desc + commit = 5 pages = 20 KB,
	// the 16 KB + 4 KB pattern of Figure 8.
	want := (journalDescriptorPages + journalInodePages + journalAllocPages + journalCommitPages) * 4096
	if by[TagJournal] != want {
		t.Fatalf("journal bytes = %d, want %d", by[TagJournal], want)
	}
	if by["db-wal"] != 4096 {
		t.Fatalf("data bytes = %d, want 4096", by["db-wal"])
	}
}

func TestOverwriteJournalsOnlyInode(t *testing.T) {
	fs, rec, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.Preallocate(8)
	f.Fsync()
	rec.Reset()
	// Overwrite within the pre-allocated range: no block allocation, but
	// the inode (mtime) still commits.
	f.WriteAt(make([]byte, 4096), 0)
	f.Fsync()
	by := rec.BytesByTag()
	want := (journalDescriptorPages + journalInodePages + journalCommitPages) * 4096
	if by[TagJournal] != want {
		t.Fatalf("journal bytes after prealloc = %d, want %d", by[TagJournal], want)
	}
}

func TestPreallocationReducesJournalTraffic(t *testing.T) {
	// The §5.4 claim: pre-allocating log pages cuts EXT4 journal traffic
	// substantially (paper: ~40%).
	run := func(prealloc bool) int {
		fs, rec, _, _ := newFS(t)
		f, _ := fs.Create("w", "db-wal")
		if prealloc {
			f.Preallocate(16)
		}
		for i := 0; i < 10; i++ {
			f.WriteAt(make([]byte, 4096), int64(i*4096))
			f.Fsync()
		}
		return rec.BytesByTag()[TagJournal]
	}
	stock, opt := run(false), run(true)
	if opt >= stock {
		t.Fatalf("pre-allocation did not reduce journal traffic: %d vs %d", opt, stock)
	}
	reduction := 1 - float64(opt)/float64(stock)
	if reduction < 0.25 || reduction > 0.55 {
		t.Fatalf("journal reduction = %.0f%%, want roughly 40%%", reduction*100)
	}
}

func TestPreallocateExtendsSizeAndReadsZero(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.Preallocate(2)
	if f.Size() != 8192 {
		t.Fatalf("Size after prealloc = %d, want 8192", f.Size())
	}
	if f.AllocatedPages() != 2 {
		t.Fatalf("AllocatedPages = %d, want 2", f.AllocatedPages())
	}
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 4096); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("preallocated region = %x, want zeros", buf)
	}
}

func TestTruncateFreesPages(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.WriteAt(make([]byte, 8*4096), 0)
	f.Fsync()
	f.Truncate(0)
	f.Fsync()
	if f.Size() != 0 || f.AllocatedPages() != 0 {
		t.Fatalf("after truncate: size=%d pages=%d", f.Size(), f.AllocatedPages())
	}
	// Freed pages are recycled.
	g, _ := fs.Create("other", "db")
	g.WriteAt(make([]byte, 4096), 0)
	g.Fsync()
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != io.EOF {
		t.Fatalf("read from truncated file: %v", err)
	}
}

// TestFsyncWritesDirtyPagesInFileOrder: Fsync writes exactly the pages
// written since the last one, once each and in file-page order, whatever
// order they were written in — a page written twice or truncated away
// included — and a failed Fsync leaves them all for its retry.
func TestFsyncWritesDirtyPagesInFileOrder(t *testing.T) {
	fs, rec, _, _ := newFS(t)
	f, _ := fs.Create("w", "db")
	f.Preallocate(16)
	f.Fsync()
	page := make([]byte, 4096)
	for _, idx := range []int{9, 2, 12, 5, 2} {
		f.WriteAt(page, int64(idx)*4096)
	}
	f.Truncate(11 * 4096) // drops page 12
	f.WriteAt(page, 10*4096)
	want := []int{2, 5, 9, 10}
	fs.Device().FailNextWrites(1)
	if err := f.Fsync(); err == nil {
		t.Fatal("fsync over a failing write succeeded")
	}
	rec.Reset()
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	ext := f.Extents()
	var got []int
	for _, e := range rec.Events() {
		if e.Tag == "db" {
			for idx, pg := range ext {
				if pg == e.Block {
					got = append(got, idx)
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("fsync wrote file pages %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fsync wrote file pages %v, want %v", got, want)
		}
	}
}

func TestFsyncWithoutChangesIsCheap(t *testing.T) {
	fs, _, m, _ := newFS(t)
	f, _ := fs.Create("w", "db")
	f.WriteAt([]byte("x"), 0)
	f.Fsync()
	before := m.Count(metrics.Fsync)
	f.Fsync() // nothing dirty
	if got := m.Count(metrics.Fsync) - before; got != 0 {
		t.Fatalf("no-op fsync issued %d device syncs", got)
	}
}

func TestMisalignedFrameTouchesTwoPages(t *testing.T) {
	// Stock SQLite WAL frames are 24+4096 bytes, so a frame write
	// straddles two device pages (§5.4). Verify the device sees both.
	fs, rec, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.WriteAt(make([]byte, 24+4096), 32) // WAL header is 32 bytes in SQLite
	f.Fsync()
	if got := rec.BytesByTag()["db-wal"]; got != 2*4096 {
		t.Fatalf("misaligned frame wrote %d data bytes, want %d", got, 2*4096)
	}
}

func TestPreallocationSurvivesCrashAfterFsync(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.Preallocate(8)
	f.WriteAt([]byte("x"), 0)
	f.Fsync()
	fs.PowerFail()
	f2, err := fs.Open("w")
	if err != nil {
		t.Fatal(err)
	}
	if f2.AllocatedPages() != 8 {
		t.Fatalf("pre-allocation lost: %d pages", f2.AllocatedPages())
	}
	if f2.Size() != 8*4096 {
		t.Fatalf("pre-allocated size lost: %d", f2.Size())
	}
}

func TestPreallocationLostWithoutFsync(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.Fsync() // make the file itself durable, empty
	f.Preallocate(8)
	fs.PowerFail() // allocation metadata never journaled
	f2, err := fs.Open("w")
	if err != nil {
		t.Fatal(err)
	}
	if f2.AllocatedPages() != 0 {
		t.Fatalf("unjournaled pre-allocation survived: %d pages", f2.AllocatedPages())
	}
}

func TestTruncateSurvivesCrashAfterFsync(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("w", "db-wal")
	f.WriteAt(make([]byte, 5*4096), 0)
	f.Fsync()
	f.Truncate(4096)
	f.Fsync()
	fs.PowerFail()
	f2, _ := fs.Open("w")
	if f2.Size() != 4096 {
		t.Fatalf("truncate lost across crash: size %d", f2.Size())
	}
}

func TestFreedPagesNotSharedAcrossFiles(t *testing.T) {
	// Pages freed by one file and reused by another must not leak stale
	// content: allocation hands out unwritten extents that read as
	// zeros even though the device page still holds the old bytes.
	fs, _, _, _ := newFS(t)
	a, _ := fs.Create("a", "db")
	a.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), 0)
	a.Fsync()
	a.Truncate(0)
	a.Fsync()
	b, _ := fs.Create("b", "db")
	// Sparse write: bytes 5..4000 of the recycled page are never
	// written by b, yet become readable once the size covers them.
	b.WriteAt([]byte("fresh"), 0)
	b.WriteAt([]byte("tail"), 4000)
	buf := make([]byte, 64)
	if _, err := b.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatalf("recycled page leaked stale content: %x", buf[:8])
	}
	// And after a crash, the durable view also reads zeros there.
	b.Fsync()
	fs.PowerFail()
	b2, _ := fs.Open("b")
	if _, err := b2.ReadAt(buf, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatalf("stale content resurfaced after crash: %x", buf[:8])
	}
}

// Property: the file behaves like an in-memory byte slice under random
// WriteAt/ReadAt sequences.
func TestPropertyFileMatchesByteSliceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs, _, _, _ := newFS(t)
		file, _ := fs.Create("m", "db")
		model := make([]byte, 0)
		for op := 0; op < 60; op++ {
			off := rng.Intn(20000)
			n := 1 + rng.Intn(3000)
			p := make([]byte, n)
			rng.Read(p)
			file.WriteAt(p, int64(off))
			if off+n > len(model) {
				model = append(model, make([]byte, off+n-len(model))...)
			}
			copy(model[off:], p)
			if rng.Intn(4) == 0 {
				file.Fsync()
			}
		}
		if file.Size() != int64(len(model)) {
			return false
		}
		got := make([]byte, len(model))
		file.ReadAt(got, 0)
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
