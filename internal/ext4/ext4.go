// Package ext4 simulates the EXT4 ordered-mode journaling file system
// the paper's flash-based WAL baseline runs on. It reproduces the I/O
// amplification §1 and §5.4 measure:
//
//   - fsync of appended data writes the dirty data pages first (ordered
//     mode), then commits a journal transaction for the metadata update:
//     descriptor + inode blocks, a device flush, a commit block, and a
//     second device flush;
//   - growing a file (block allocation) additionally journals the block
//     bitmap and group descriptor — the 16 KB + 4 KB journal pattern of
//     Figure 8;
//   - fallocate-style pre-allocation (WALDIO, §5.4) extends the file
//     once so subsequent appends journal only the inode update.
//
// Metadata is made durable by the journal commit: a power failure
// reverts the file system to its last committed metadata snapshot and
// discards unsynced data pages, matching ordered-mode guarantees.
package ext4

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro/internal/blockdev"
)

// Journal page accounting per commit (in device pages).
const (
	journalDescriptorPages = 1 // journal descriptor block
	journalInodePages      = 1 // inode table block (mtime/size update)
	journalAllocPages      = 2 // block bitmap + group descriptor
	journalCommitPages     = 1 // commit record
	journalRegionPages     = 4096
)

// TagJournal labels journal traffic in block traces.
const TagJournal = "journal"

// Errors.
var (
	ErrExists   = errors.New("ext4: file exists")
	ErrNotExist = errors.New("ext4: file does not exist")
)

type inode struct {
	name    string
	tag     string
	size    int64
	extents []int // file page index -> device page
	// dirty lists the file pages written since their last write-out,
	// unordered and possibly repeated: Fsync's work list, so a sync costs
	// the pages it writes rather than the file's length. A durable copy
	// has none.
	dirty []int
}

// setFrom makes in a durable copy of live, in in's own extent array.
func (in *inode) setFrom(live *inode) {
	in.name, in.tag, in.size = live.name, live.tag, live.size
	in.extents = append(in.extents[:0], live.extents...)
	in.dirty = in.dirty[:0]
}

func (in *inode) clone() *inode {
	c := new(inode)
	c.setFrom(in)
	return c
}

// cloneFiles copies a file table, each inode its own copy.
func cloneFiles(files map[string]*inode) map[string]*inode {
	c := make(map[string]*inode, len(files))
	for name, in := range files {
		c[name] = in.clone()
	}
	return c
}

// FS is one mounted file system over a block device.
type FS struct {
	mu  sync.Mutex
	dev *blockdev.Device

	files map[string]*inode
	// Volatile page cache: dirty data pages not yet written to the
	// device, keyed by device page.
	cache map[int][]byte
	dirty map[int]string // device page -> trace tag
	// unwritten marks allocated-but-never-written pages (fallocate's
	// unwritten extents): they read as zeros and never expose a
	// previous owner's content.
	unwritten map[int]bool

	// allocator state
	nextDataPage int
	freePages    []int
	journalBase  int
	journalHead  int

	// durable metadata snapshot, updated in place at each journal commit
	durableFiles     map[string]*inode
	durableNextPage  int
	durableFree      []int
	durableUnwritten map[int]bool

	metaDirty  bool // inode update pending
	allocDirty bool // block allocation pending

	// frozen, when non-nil, is the durable state captured by Freeze; the
	// next PowerFail reverts to it instead of the latest journal commit.
	frozen *frozenMeta

	// slow-fault model (gray failures): seeded intermittent fsync
	// stalls on top of whatever the device itself injects.
	slow    SlowConfig
	slowRng *rand.Rand
}

// SlowConfig parameterizes file-system-level gray-failure injection:
// each Fsync independently stalls for FsyncStallDelay with probability
// FsyncStallRate — the journal thread blocked behind a slow flush, the
// writeback path wedged on a marginal block. Delays are charged to the
// device's virtual clock; the fsync still succeeds. Configured like the
// storage FaultConfigs so fuzz chains arm it deterministically.
type SlowConfig struct {
	Seed            int64
	FsyncStallRate  float64
	FsyncStallDelay time.Duration
}

func (c SlowConfig) enabled() bool {
	return c.FsyncStallRate > 0 && c.FsyncStallDelay > 0
}

// InjectSlowFaults installs (or, with a zero config, removes) the
// file-system slow-fault model.
func (fs *FS) InjectSlowFaults(cfg SlowConfig) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if !cfg.enabled() {
		fs.slow, fs.slowRng = SlowConfig{}, nil
		return
	}
	fs.slow = cfg
	fs.slowRng = rand.New(rand.NewSource(cfg.Seed))
}

// slowFsyncStallLocked samples one fsync-stall decision. Caller holds
// fs.mu; the delay is charged through the device so all injected
// stalls share one counter pair.
func (fs *FS) slowFsyncStallLocked() {
	if fs.slowRng == nil {
		return
	}
	if fs.slowRng.Float64() < fs.slow.FsyncStallRate {
		fs.dev.Stall(fs.slow.FsyncStallDelay)
	}
}

// frozenMeta is a copy of the durable metadata snapshot taken by Freeze:
// snapshotMeta updates the snapshot itself in place.
type frozenMeta struct {
	files     map[string]*inode
	nextPage  int
	free      []int
	unwritten map[int]bool
}

// New mounts a fresh file system on dev.
func New(dev *blockdev.Device) *FS {
	fs := &FS{
		dev:          dev,
		files:        make(map[string]*inode),
		cache:        make(map[int][]byte),
		dirty:        make(map[int]string),
		unwritten:    make(map[int]bool),
		nextDataPage: 1, // page 0 reserved (superblock)
		journalBase:  dev.Pages() - journalRegionPages,
	}
	fs.snapshotMeta()
	return fs
}

// Device returns the underlying block device.
func (fs *FS) Device() *blockdev.Device { return fs.dev }

// PageSize returns the file system block size.
func (fs *FS) PageSize() int { return fs.dev.PageSize() }

// Create creates a new empty file. tag labels its I/O in block traces.
func (fs *FS) Create(name, tag string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	in := &inode{name: name, tag: tag}
	fs.files[name] = in
	fs.metaDirty = true
	return &File{fs: fs, in: in}, nil
}

// Open opens an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return &File{fs: fs, in: in}, nil
}

// OpenOrCreate opens name, creating it when absent.
func (fs *FS) OpenOrCreate(name, tag string) (*File, error) {
	if f, err := fs.Open(name); err == nil {
		return f, nil
	}
	return fs.Create(name, tag)
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// Remove deletes a file, releasing its pages.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	for _, pg := range in.extents {
		delete(fs.cache, pg)
		delete(fs.dirty, pg)
		fs.freePages = append(fs.freePages, pg)
	}
	delete(fs.files, name)
	fs.metaDirty = true
	fs.allocDirty = true
	return nil
}

// allocPage hands out one device data page as an unwritten extent.
// Caller holds fs.mu.
func (fs *FS) allocPage() int {
	var pg int
	if n := len(fs.freePages); n > 0 {
		pg = fs.freePages[n-1]
		fs.freePages = fs.freePages[:n-1]
	} else {
		pg = fs.nextDataPage
		if pg >= fs.journalBase {
			panic("ext4: device full")
		}
		fs.nextDataPage++
	}
	fs.unwritten[pg] = true
	return pg
}

// snapshotMeta makes the current metadata the durable state. It updates
// the snapshot in place — its maps, free list and inodes' extent arrays
// are reused — so a steady-state journal commit allocates nothing.
// Caller holds fs.mu.
func (fs *FS) snapshotMeta() {
	if fs.durableFiles == nil {
		fs.durableFiles = make(map[string]*inode, len(fs.files))
		fs.durableUnwritten = make(map[int]bool, len(fs.unwritten))
	}
	for name := range fs.durableFiles {
		if _, ok := fs.files[name]; !ok {
			delete(fs.durableFiles, name)
		}
	}
	for name, in := range fs.files {
		if d := fs.durableFiles[name]; d != nil {
			d.setFrom(in)
		} else {
			fs.durableFiles[name] = in.clone()
		}
	}
	fs.durableNextPage = fs.nextDataPage
	fs.durableFree = append(fs.durableFree[:0], fs.freePages...)
	clear(fs.durableUnwritten)
	for pg := range fs.unwritten {
		fs.durableUnwritten[pg] = true
	}
}

// Freeze captures the current durable state (file-system metadata and
// the device's synced pages) as what the next PowerFail reverts to,
// regardless of journal commits that complete in between. Used by the
// crash-injection harness to pin the crash instant while doomed
// execution continues.
func (fs *FS) Freeze() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.frozen = &frozenMeta{
		files:     cloneFiles(fs.durableFiles),
		nextPage:  fs.durableNextPage,
		free:      slices.Clone(fs.durableFree),
		unwritten: maps.Clone(fs.durableUnwritten),
	}
	fs.dev.Freeze()
}

// Unfreeze discards a captured state so the next PowerFail reverts to
// the latest journal commit as usual.
func (fs *FS) Unfreeze() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.frozen = nil
	fs.dev.Unfreeze()
}

// PowerFail models a crash: unsynced data pages are dropped and the
// metadata reverts to the last journal commit — or to the Freeze point,
// if one was captured.
func (fs *FS) PowerFail() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fr := fs.frozen; fr != nil {
		fs.durableFiles = fr.files
		fs.durableNextPage = fr.nextPage
		fs.durableFree = fr.free
		fs.durableUnwritten = fr.unwritten
		fs.frozen = nil
	}
	fs.dev.PowerFail()
	fs.cache = make(map[int][]byte)
	fs.dirty = make(map[int]string)
	fs.files = cloneFiles(fs.durableFiles)
	fs.nextDataPage = fs.durableNextPage
	fs.freePages = append([]int(nil), fs.durableFree...)
	fs.unwritten = make(map[int]bool, len(fs.durableUnwritten))
	for pg := range fs.durableUnwritten {
		fs.unwritten[pg] = true
	}
	fs.metaDirty = false
	fs.allocDirty = false
}

// File is an open file handle.
type File struct {
	fs *FS
	in *inode
}

// Name returns the file name.
func (f *File) Name() string { return f.in.name }

// Size returns the current file size in bytes.
func (f *File) Size() int64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.size
}

// ensurePage returns the device page backing file page idx, allocating
// it if needed. Caller holds fs.mu.
func (f *File) ensurePage(idx int) int {
	for len(f.in.extents) <= idx {
		f.in.extents = append(f.in.extents, f.fs.allocPage())
		f.fs.metaDirty = true
		f.fs.allocDirty = true
	}
	return f.in.extents[idx]
}

// pageContent returns a mutable cached copy of the device page. Caller
// holds fs.mu. Unwritten extents read as zeros, never the previous
// owner's device content. A device read error propagates without
// populating the cache, so a retry re-reads the device.
func (f *File) pageContent(devPage int) ([]byte, error) {
	if buf, ok := f.fs.cache[devPage]; ok {
		return buf, nil
	}
	buf := make([]byte, f.fs.dev.PageSize())
	if !f.fs.unwritten[devPage] {
		if err := f.fs.dev.ReadPage(devPage, buf); err != nil {
			return nil, fmt.Errorf("ext4: %s: %w", f.in.name, err)
		}
	}
	f.fs.cache[devPage] = buf
	return buf, nil
}

// WriteAt writes p at byte offset off, extending the file as needed.
// Data is buffered in the page cache until Fsync.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ext4: negative offset %d", off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ps := int64(f.fs.dev.PageSize())
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		idx := int(pos / ps)
		inPage := int(pos % ps)
		devPage := f.ensurePage(idx)
		buf, err := f.pageContent(devPage)
		if err != nil {
			return n, err
		}
		c := copy(buf[inPage:], p[n:])
		n += c
		if _, ok := f.fs.dirty[devPage]; !ok {
			f.fs.dirty[devPage] = f.in.tag
			f.in.dirty = append(f.in.dirty, idx)
		}
	}
	if off+int64(len(p)) > f.in.size {
		f.in.size = off + int64(len(p))
	}
	// Every write dirties the inode (mtime/size), so the next fsync
	// commits a journal transaction; pre-allocation only avoids the
	// block-allocation metadata (bitmap + group descriptor), which is
	// exactly the ~40% journal-traffic saving of §5.4.
	f.fs.metaDirty = true
	return n, nil
}

// ReadAt reads into p from byte offset off. Short reads at EOF return
// io.EOF like os.File.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ext4: negative offset %d", off)
	}
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ps := int64(f.fs.dev.PageSize())
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		if pos >= f.in.size {
			return n, io.EOF
		}
		idx := int(pos / ps)
		inPage := int(pos % ps)
		avail := f.in.size - pos
		if idx >= len(f.in.extents) {
			// Hole (pre-allocated but never written): zero fill.
			c := int64(len(p) - n)
			if c > avail {
				c = avail
			}
			rem := ps - int64(inPage)
			if c > rem {
				c = rem
			}
			for i := int64(0); i < c; i++ {
				p[n+int(i)] = 0
			}
			n += int(c)
			continue
		}
		buf, err := f.pageContent(f.in.extents[idx])
		if err != nil {
			return n, err
		}
		c := len(p) - n
		if int64(c) > avail {
			c = int(avail)
		}
		if c > len(buf)-inPage {
			c = len(buf) - inPage
		}
		copy(p[n:n+c], buf[inPage:])
		n += c
	}
	return n, nil
}

// Preallocate extends the file by pages device pages in one metadata
// transaction (fallocate), so subsequent in-range appends journal only
// the inode — the WALDIO optimization of §5.4.
func (f *File) Preallocate(pages int) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	cur := len(f.in.extents)
	for i := 0; i < pages; i++ {
		f.in.extents = append(f.in.extents, f.fs.allocPage())
	}
	newSize := int64((cur + pages) * f.fs.dev.PageSize())
	if newSize > f.in.size {
		f.in.size = newSize
	}
	f.fs.metaDirty = true
	f.fs.allocDirty = true
}

// AllocatedPages reports how many device pages back the file.
func (f *File) AllocatedPages() int {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return len(f.in.extents)
}

// Truncate resizes the file to size bytes, freeing whole pages beyond
// it.
func (f *File) Truncate(size int64) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	ps := int64(f.fs.dev.PageSize())
	keep := int((size + ps - 1) / ps)
	for i := keep; i < len(f.in.extents); i++ {
		pg := f.in.extents[i]
		delete(f.fs.cache, pg)
		delete(f.fs.dirty, pg)
		f.fs.freePages = append(f.fs.freePages, pg)
	}
	if keep < len(f.in.extents) {
		f.in.extents = f.in.extents[:keep]
		f.fs.allocDirty = true
	}
	f.in.size = size
	f.fs.metaDirty = true
}

// Fsync makes the file durable: ordered-mode data write-out followed by
// a journal commit when metadata changed. On error the affected pages
// stay dirty and the metadata stays pending, so a retried Fsync resumes
// where the failed one stopped.
func (f *File) Fsync() error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()

	fs.slowFsyncStallLocked()

	// Ordered mode: data pages reach the device, in file-page order,
	// before the journal commits the metadata that references them. The
	// work list may name a page twice or a page truncated away since;
	// fs.dirty says which are still to write.
	wrote := false
	slices.Sort(f.in.dirty)
	for i, idx := range f.in.dirty {
		if idx >= len(f.in.extents) {
			continue
		}
		devPage := f.in.extents[idx]
		tag, ok := fs.dirty[devPage]
		if !ok {
			continue
		}
		if err := fs.dev.WritePage(devPage, fs.cache[devPage], tag); err != nil {
			f.in.dirty = f.in.dirty[:copy(f.in.dirty, f.in.dirty[i:])]
			return fmt.Errorf("ext4: fsync %s: %w", f.in.name, err)
		}
		delete(fs.dirty, devPage)
		delete(fs.unwritten, devPage) // the extent now holds real data
		wrote = true
	}
	f.in.dirty = f.in.dirty[:0]

	if fs.metaDirty || fs.allocDirty {
		if err := fs.journalCommit(); err != nil {
			return fmt.Errorf("ext4: fsync %s: %w", f.in.name, err)
		}
	} else if wrote {
		if err := fs.dev.Sync(); err != nil {
			return fmt.Errorf("ext4: fsync %s: %w", f.in.name, err)
		}
	}
	return nil
}

// Extents returns the device pages backing the file, in file order.
// Fault-injection harnesses use this to aim media damage at a specific
// file.
func (f *File) Extents() []int {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return append([]int(nil), f.in.extents...)
}

// journalCommit writes the journal transaction for the pending metadata
// update and snapshots durable metadata. Caller holds fs.mu. On error
// the metadata stays pending and the next commit retries it.
func (fs *FS) journalCommit() error {
	metaPages := journalDescriptorPages + journalInodePages
	if fs.allocDirty {
		metaPages += journalAllocPages
	}
	for i := 0; i < metaPages; i++ {
		if err := fs.dev.WritePage(fs.journalPage(), nil, TagJournal); err != nil {
			return err
		}
	}
	if err := fs.dev.Sync(); err != nil {
		return err
	}
	for i := 0; i < journalCommitPages; i++ {
		if err := fs.dev.WritePage(fs.journalPage(), nil, TagJournal); err != nil {
			return err
		}
	}
	if err := fs.dev.Sync(); err != nil {
		return err
	}
	fs.metaDirty = false
	fs.allocDirty = false
	fs.snapshotMeta()
	return nil
}

// journalPage returns the next cyclic page in the journal region.
// Caller holds fs.mu.
func (fs *FS) journalPage() int {
	pg := fs.journalBase + fs.journalHead
	fs.journalHead = (fs.journalHead + 1) % journalRegionPages
	return pg
}
