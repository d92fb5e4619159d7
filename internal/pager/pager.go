// Package pager implements the DRAM page cache between the B+tree and
// the persistence layers, the role SQLite's pager plays in Figure 1: in
// a transaction, copies of database pages are modified in volatile
// memory; at commit the set of dirty pages is handed to the write-ahead
// log (file WAL or NVWAL); reads are served from the cache, then the
// log's latest committed version, then the database file.
package pager

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Frame is one dirty page handed to the journal at commit: the page
// number and its full new image. The journal decides whether to log the
// full image or a byte-granularity differential against the version it
// already holds (§3.2).
type Frame struct {
	Pgno uint32
	Data []byte
}

// Journal is the write-ahead log abstraction both the stock/optimized
// file WAL and NVWAL implement.
//
// Every entry point that logs frames (CommitTransaction, NVWAL's
// WriteFrames and PrepareTransaction) takes the frames' Data when it
// succeeds: the journal may keep an image as the page's version, so the
// caller must never write it again. A failed call takes nothing.
type Journal interface {
	// CommitTransaction durably logs the transaction's dirty pages and
	// its commit mark.
	CommitTransaction(frames []Frame) error
	// PageVersion returns the latest committed image of pgno held in the
	// log, or ok=false when the log has no frame for the page. The image
	// is read-only: it may be one the journal keeps. ok with a nil image
	// means the log holds the page but could not build its image; the
	// database file's copy is then not the page, and no reader may use it.
	PageVersion(pgno uint32) ([]byte, bool)
	// FramesSinceCheckpoint reports the number of logged frames, the
	// trigger SQLite compares against its 1000-frame checkpoint limit.
	FramesSinceCheckpoint() int
	// Checkpoint writes all committed pages back to the database file
	// and truncates the log.
	Checkpoint() error
}

// ErrNoImage is returned for a page the journal holds but cannot build
// an image of (PageVersion's ok with a nil image).
var ErrNoImage = errors.New("pager: the journal holds the page but cannot build its image")

// ErrCheckpointPending is returned by a checkpoint round (NVWAL's
// Checkpoint and FreezeCheckpoint) that a reader refused: it pinned a
// mark below the round's watermark. The log is intact; retry once the
// reader unpins.
var ErrCheckpointPending = errors.New("pager: checkpoint pending: a snapshot reader pins the log")

// PageImager is the capability of a journal whose log retains an
// immutable image of every page it holds (NVWAL's version images):
// PageImageAt hands that image out shared instead of copying it. The
// image is read-only for every holder; nil means the log never held the
// page at the mark, and the database file serves it. shared is false
// when the journal had to build the image for this call (a page
// rewritten after the mark): nobody else holds it. A mark of Latest asks
// for the latest committed image, which is always shared. An error means
// the journal holds the page but could not build its image (NVWAL: a
// recovered page whose database-file base is unreadable); it reaches the
// reader, and the database file does not stand in.
type PageImager interface {
	PageImageAt(pgno uint32, mark int) (img []byte, shared bool, err error)
}

// ImageRecycler is the capability of a journal that hands page images
// back once nobody holds them (NVWAL: the versions a checkpoint round
// retired, DESIGN.md §15): whoever is about to make a private page copy
// takes one through NewImage before it allocates.
type ImageRecycler interface {
	// SpareImage returns a page image no one else holds, its content
	// unspecified, or nil when the journal has none to spare.
	SpareImage() []byte
}

// NewImage returns a private page image of size bytes holding src, zero
// past it (all zero for a nil src): a spare of r's when it has one, a
// fresh allocation otherwise. r may be nil.
func NewImage(r ImageRecycler, src []byte, size int) []byte {
	if r != nil {
		if img := r.SpareImage(); img != nil {
			clear(img[copy(img, src):])
			return img
		}
	}
	if src == nil {
		return make([]byte, size)
	}
	return slices.Clone(src)
}

// Latest is the journal mark past every commit: a PageImager asked for
// it returns the page's latest committed image (the pager's read path).
const Latest = math.MaxInt

// ReadView answers the one question every versioned reader asks — the
// read-only image of page pgno at log mark m — for snapshot reads, MVCC
// sessions, exports and replicas alike: the log's image, or else the
// database file's. The log is one that serves point-in-time reads — the
// WAL property that lets readers proceed against a stable snapshot while
// the writer appends (SQLite's wal-index "mxFrame" mechanism); NVWAL is
// the one such log, and it keeps checkpointing and the marks its readers
// pin apart.
type ReadView struct {
	log PageImager
	db  DBFile
}

// NewReadView returns the read view of log over db.
func NewReadView(log PageImager, db DBFile) *ReadView {
	return &ReadView{log: log, db: db}
}

// PageSize is the database page size.
func (v *ReadView) PageSize() int { return v.db.PageSize() }

// PageAt returns the read-only image of pgno at mark. shared reports
// that it is one the log retains; otherwise it was built for this call
// (replayed by the log or read from the database file) and a reader that
// will visit the page again should keep it.
func (v *ReadView) PageAt(pgno uint32, mark int) (img []byte, shared bool, err error) {
	if img, shared, err := v.log.PageImageAt(pgno, mark); err != nil || img != nil {
		return img, shared, err
	}
	img = make([]byte, v.db.PageSize())
	if err := v.db.ReadPage(pgno, img); err != nil {
		return nil, false, err
	}
	return img, false, nil
}

// MarkStore is a read-only page store (a btree.PageStore) over the
// database as of one log mark: every page is View's image at Mark, and
// the store keeps none of them. Whoever sets Mark keeps it readable by
// pinning it in the log for as long as the store is used.
type MarkStore struct {
	View *ReadView
	Mark int
}

// PageSize is the database page size.
func (s *MarkStore) PageSize() int { return s.View.PageSize() }

// Get returns pgno's read-only image at the mark.
func (s *MarkStore) Get(pgno uint32) ([]byte, error) {
	img, _, err := s.View.PageAt(pgno, s.Mark)
	return img, err
}

var errReadOnly = errors.New("pager: the store at a mark is read-only")

// Allocate refuses: the store is read-only.
func (s *MarkStore) Allocate() (uint32, []byte, error) { return 0, nil, errReadOnly }

// Free refuses: the store is read-only.
func (s *MarkStore) Free(uint32) error { return errReadOnly }

// MarkDirty panics: no writer holds a store at a mark.
func (s *MarkStore) MarkDirty(uint32) []byte { panic("pager: write through a store at a mark") }

// DBFile is the database file on block storage that checkpointing
// writes into and cache misses read from.
type DBFile interface {
	PageSize() int
	// ReadPage fills buf with the page's content, zero-filled when the
	// page lies beyond the file's current size.
	ReadPage(pgno uint32, buf []byte) error
	WritePage(pgno uint32, data []byte) error
	Sync() error
}

// Database header layout within page 1.
const (
	hdrMagicOff     = 0
	hdrPageCountOff = 12
	// Freed pages form a chain (each free page's first 4 bytes hold the
	// next free page number); the header tracks its head and length,
	// like SQLite's freelist trunk.
	hdrFreeHeadOff  = 16
	hdrFreeCountOff = 20
	// HeaderPositionOff holds a follower database's 20-byte position in
	// the log it follows (db.Position); the pager never reads it.
	HeaderPositionOff = 24
	// HeaderReserved is the portion of page 1 owned by the pager; the
	// database catalog uses the rest.
	HeaderReserved = 64
)

var headerMagic = []byte("NVWALDB1")

// ErrNoTxn is returned for write operations outside a transaction.
var ErrNoTxn = errors.New("pager: no transaction in progress")

// ErrPageRange is returned by Get for a page number past the database's
// page count: no such page exists, and the pager caches nothing for it.
var ErrPageRange = errors.New("pager: page number past the database's page count")

// Pager is the page cache. It implements btree.PageStore.
//
// The cache holds committed images and never writes one in place: a
// cache miss aliases the journal's own image where the journal keeps one
// (PageImager), and Install aliases a session's committed image. A
// transaction's first MarkDirty of a page installs its one private copy
// in the cache and keeps the committed image, by pointer, as the
// rollback image; a successful commit hands the copy to the journal, and
// from then on it is a committed image like any other. The copy is made
// in an image the journal recycles when it has one (ImageRecycler): the
// cache holds only latest versions once a commit returns, never one a
// checkpoint round could retire.
type Pager struct {
	pageSize int
	db       DBFile
	jrn      Journal
	// imager and recycler cache the journal's optional capabilities, so
	// Get and the page copies avoid a per-call interface assertion.
	imager   PageImager
	recycler ImageRecycler

	// pages is the page table, indexed by page number (pages[0] is
	// unused): one slot per page up to the largest one cached. It only
	// grows, and only to a page within the header's page count (Get) or
	// one the writer creates (Allocate, Install). dirty lists the open
	// transaction's dirty pages, in the order they were first dirtied.
	pages []slot
	dirty []uint32
	inTxn bool
	// frameScratch backs PrepareCommit's frame list, reused across
	// transactions: both commit paths consume the list (journal write,
	// or a copy of the list into the group queue) before the writer slot
	// is released, so it is free again by the time the next transaction
	// prepares.
	frameScratch []Frame
	// allocBase, when set, arbitrates database extension against an
	// external page-number allocator (MVCC sessions allocating outside
	// any pager transaction). It receives the current page count and
	// returns the page number to extend with — always > every number
	// the external allocator has handed out, so the two can never
	// collide.
	allocBase func(pageCount uint32) uint32
}

// slot is one page's entry in the table.
type slot struct {
	// img is the cached image, nil when the page is not cached.
	img []byte
	// orig is, for a page the open transaction dirtied, the committed
	// image its private copy was made from — nil for a page the
	// transaction allocated, which has none.
	orig  []byte
	dirty bool
}

// slot returns pgno's entry, growing the table to hold it.
func (p *Pager) slot(pgno uint32) *slot {
	if n := int(pgno) + 1 - len(p.pages); n > 0 {
		p.pages = append(p.pages, make([]slot, n)...)
	}
	return &p.pages[pgno]
}

// Open attaches a pager to the database file and journal. A fresh
// database gets its header initialized in memory; the caller commits it
// with the first transaction.
func Open(db DBFile, jrn Journal) (*Pager, error) {
	p := &Pager{
		pageSize: db.PageSize(),
		db:       db,
		jrn:      jrn,
	}
	p.imager, _ = jrn.(PageImager)
	p.recycler, _ = jrn.(ImageRecycler)
	hdr, err := p.Get(1)
	if err != nil {
		return nil, err
	}
	if string(hdr[hdrMagicOff:hdrMagicOff+8]) != string(headerMagic) {
		if !isZero(hdr) {
			return nil, fmt.Errorf("pager: page 1 is neither empty nor a database header")
		}
		// Fresh database: initialize the header under an implicit
		// transaction so it reaches the journal durably.
		p.Begin()
		hdr = p.MarkDirty(1)
		copy(hdr[hdrMagicOff:], headerMagic)
		p.setPageCount(hdr, 1)
		if err := p.Commit(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// PageSize implements btree.PageStore.
func (p *Pager) PageSize() int { return p.pageSize }

// PageCount reports the number of pages in the database (including the
// header page).
func (p *Pager) PageCount() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	return uint32(hdr[hdrPageCountOff]) | uint32(hdr[hdrPageCountOff+1])<<8 |
		uint32(hdr[hdrPageCountOff+2])<<16 | uint32(hdr[hdrPageCountOff+3])<<24, nil
}

func (p *Pager) setPageCount(hdr []byte, n uint32) {
	hdr[hdrPageCountOff] = byte(n)
	hdr[hdrPageCountOff+1] = byte(n >> 8)
	hdr[hdrPageCountOff+2] = byte(n >> 16)
	hdr[hdrPageCountOff+3] = byte(n >> 24)
}

// Get implements btree.PageStore: cache, then journal, then database
// file. The image is read-only (MarkDirty returns the writable one). A
// page past the header's page count is ErrPageRange.
func (p *Pager) Get(pgno uint32) ([]byte, error) {
	if int(pgno) < len(p.pages) {
		if buf := p.pages[pgno].img; buf != nil {
			return buf, nil
		}
	}
	if pgno == 0 {
		return nil, fmt.Errorf("pager: page numbers start at 1")
	}
	if pgno > 1 {
		n, err := p.PageCount()
		if err != nil {
			return nil, err
		}
		if pgno > n {
			return nil, fmt.Errorf("%w: page %d of %d", ErrPageRange, pgno, n)
		}
	}
	// Nothing in the cache is written in place, so the journal's own
	// image serves as the cache entry as it is — no copy.
	var buf []byte
	if p.imager != nil {
		var err error
		if buf, _, err = p.imager.PageImageAt(pgno, Latest); err != nil {
			return nil, err
		}
	} else if v, ok := p.jrn.PageVersion(pgno); ok {
		if v == nil {
			return nil, fmt.Errorf("%w: page %d", ErrNoImage, pgno)
		}
		buf = v
	}
	if buf == nil {
		buf = make([]byte, p.pageSize)
		if err := p.db.ReadPage(pgno, buf); err != nil {
			return nil, err
		}
	}
	p.slot(pgno).img = buf
	return buf, nil
}

// Allocate implements btree.PageStore: pops a page from the freelist,
// or extends the database by one zeroed page. The header page is
// dirtied alongside, so the allocation commits atomically with the
// transaction.
func (p *Pager) Allocate() (uint32, []byte, error) {
	if !p.inTxn {
		return 0, nil, ErrNoTxn
	}
	if _, err := p.Get(1); err != nil {
		return 0, nil, err
	}
	hdr := p.MarkDirty(1)
	if head := getU32(hdr, hdrFreeHeadOff); head != 0 {
		if _, err := p.Get(head); err != nil {
			return 0, nil, err
		}
		buf := p.MarkDirty(head)
		putU32(hdr, hdrFreeHeadOff, getU32(buf, 0))
		putU32(hdr, hdrFreeCountOff, getU32(hdr, hdrFreeCountOff)-1)
		clear(buf)
		return head, buf, nil
	}
	n, err := p.PageCount()
	if err != nil {
		return 0, nil, err
	}
	pgno := n + 1
	if p.allocBase != nil {
		pgno = p.allocBase(n)
	}
	p.setPageCount(hdr, pgno)
	buf := NewImage(p.recycler, nil, p.pageSize)
	*p.slot(pgno) = slot{img: buf, dirty: true}
	p.dirty = append(p.dirty, pgno)
	return pgno, buf, nil
}

// Free implements btree.PageStore: returns a page to the freelist. The
// page's content is overwritten with the chain link; the change commits
// (or rolls back) with the enclosing transaction.
func (p *Pager) Free(pgno uint32) error {
	if !p.inTxn {
		return ErrNoTxn
	}
	if pgno <= 1 {
		return fmt.Errorf("pager: cannot free page %d", pgno)
	}
	if _, err := p.Get(1); err != nil {
		return err
	}
	if _, err := p.Get(pgno); err != nil {
		return err
	}
	hdr, buf := p.MarkDirty(1), p.MarkDirty(pgno)
	putU32(buf, 0, getU32(hdr, hdrFreeHeadOff))
	putU32(hdr, hdrFreeHeadOff, pgno)
	putU32(hdr, hdrFreeCountOff, getU32(hdr, hdrFreeCountOff)+1)
	return nil
}

// FreePageCount reports the freelist length.
func (p *Pager) FreePageCount() (uint32, error) {
	hdr, err := p.Get(1)
	if err != nil {
		return 0, err
	}
	return getU32(hdr, hdrFreeCountOff), nil
}

func getU32(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

func putU32(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

// MarkDirty implements btree.PageStore: the first time a transaction
// dirties a page, the cache entry becomes the transaction's private copy
// of the committed image, and the committed image itself is kept as the
// rollback image. The page must be cached (read through Get, or
// allocated).
func (p *Pager) MarkDirty(pgno uint32) []byte {
	if !p.inTxn {
		panic("pager: MarkDirty outside a transaction")
	}
	if int(pgno) >= len(p.pages) || p.pages[pgno].img == nil {
		panic(fmt.Sprintf("pager: MarkDirty of page %d, which was never read", pgno))
	}
	s := &p.pages[pgno]
	if s.dirty {
		return s.img
	}
	own := NewImage(p.recycler, s.img, p.pageSize)
	s.img, s.orig, s.dirty = own, s.img, true
	p.dirty = append(p.dirty, pgno)
	return own
}

// Begin starts a write transaction. SQLite is serverless and allows a
// single writer (§4.1), so nested transactions are a programming error.
func (p *Pager) Begin() {
	if p.inTxn {
		panic("pager: nested transaction")
	}
	p.inTxn = true
}

// InTransaction reports whether a write transaction is open.
func (p *Pager) InTransaction() bool { return p.inTxn }

// PrepareCommit collects the transaction's dirty pages as journal
// frames without ending the transaction. The caller either hands the
// frames to the journal itself (deferring durability, as group commit
// does) and then calls FinishCommit, or calls Rollback to abandon the
// transaction — the pre-images are still intact. The list is the pager's
// scratch, valid until the next PrepareCommit; each frame's Data is the
// transaction's private copy of the page, which the journal takes on a
// successful commit.
func (p *Pager) PrepareCommit() ([]Frame, error) {
	if !p.inTxn {
		return nil, ErrNoTxn
	}
	frames := p.frameScratch[:0]
	for _, pgno := range p.dirty {
		frames = append(frames, Frame{Pgno: pgno, Data: p.pages[pgno].img})
	}
	// Deterministic frame order keeps experiments reproducible.
	sortFrames(frames)
	p.frameScratch = frames
	return frames, nil
}

// FinishCommit ends the transaction after its frames have been handed
// off: the private copies stay in the cache as the committed images.
func (p *Pager) FinishCommit() {
	if !p.inTxn {
		return
	}
	p.endTxn()
}

// Commit hands all dirty pages to the journal and ends the transaction.
// A journal failure rolls the transaction back — every dirtied page is
// restored to its committed pre-image — so the failed transaction's
// dirty set can never leak into the next one.
func (p *Pager) Commit() error {
	frames, err := p.PrepareCommit()
	if err != nil {
		return err
	}
	if len(frames) > 0 {
		if err := p.jrn.CommitTransaction(frames); err != nil {
			p.Rollback()
			return fmt.Errorf("pager: commit failed, transaction rolled back: %w", err)
		}
	}
	p.endTxn()
	return nil
}

// Rollback re-points every dirtied page's cache entry at its committed
// image and drops pages allocated by the transaction; the private copies
// are garbage.
func (p *Pager) Rollback() {
	if !p.inTxn {
		return
	}
	for _, pgno := range p.dirty {
		s := &p.pages[pgno]
		s.img = s.orig // nil for a page the transaction allocated: dropped
	}
	p.endTxn()
}

// endTxn forgets the dirty set: the rollback images are released and the
// slots are clean again, whatever image each now caches.
func (p *Pager) endTxn() {
	for _, pgno := range p.dirty {
		s := &p.pages[pgno]
		s.orig, s.dirty = nil, false
	}
	p.dirty = p.dirty[:0]
	p.inTxn = false
}

// SetJournal swaps the journal the pager commits through. It exists so
// fault-injection harnesses can wrap the journal with a failing stub;
// swapping mid-transaction is a programming error.
func (p *Pager) SetJournal(jrn Journal) {
	if p.inTxn {
		panic("pager: SetJournal inside a transaction")
	}
	p.jrn = jrn
	p.imager, _ = jrn.(PageImager)
	p.recycler, _ = jrn.(ImageRecycler)
}

// Journal returns the journal the pager currently commits through
// (the one SetJournal last installed). Callers that flush prepared
// frames themselves — group commit, backpressure retry — go through it
// so journal wrappers installed by fault harnesses stay effective.
func (p *Pager) Journal() Journal { return p.jrn }

// SetAllocBase installs the external page-number arbiter consulted by
// Allocate when extending the database (see the field doc). Installing
// it mid-transaction is a programming error.
func (p *Pager) SetAllocBase(fn func(pageCount uint32) uint32) {
	if p.inTxn {
		panic("pager: SetAllocBase inside a transaction")
	}
	p.allocBase = fn
}

// Install publishes a committed page image into the shared cache
// without a pager transaction. MVCC session commits use it: their
// frames bypass Begin/PrepareCommit, but later writers and reads must
// see the new images. The cache aliases data, which is a committed image
// like any other from then on: nobody writes it again. Callers must hold
// the writer slot; calling inside a pager transaction is a programming
// error.
func (p *Pager) Install(pgno uint32, data []byte) {
	if p.inTxn {
		panic("pager: Install inside a transaction")
	}
	p.slot(pgno).img = data
}

// Header-field accessors for page-1 images held outside the pager (the
// MVCC commit path reconciles the header against its snapshot copy).
func HeaderPageCount(hdr []byte) uint32       { return getU32(hdr, hdrPageCountOff) }
func SetHeaderPageCount(hdr []byte, n uint32) { putU32(hdr, hdrPageCountOff, n) }
func HeaderFreeHead(hdr []byte) uint32        { return getU32(hdr, hdrFreeHeadOff) }
func SetHeaderFreeHead(hdr []byte, n uint32)  { putU32(hdr, hdrFreeHeadOff, n) }
func HeaderFreeCount(hdr []byte) uint32       { return getU32(hdr, hdrFreeCountOff) }
func SetHeaderFreeCount(hdr []byte, n uint32) { putU32(hdr, hdrFreeCountOff, n) }

// SetFreelistLink writes a freelist page's next-page link word.
func SetFreelistLink(buf []byte, next uint32) { putU32(buf, 0, next) }

// DropCache empties the page cache (after recovery, or to simulate a
// cold start). Illegal mid-transaction.
func (p *Pager) DropCache() {
	if p.inTxn {
		panic("pager: DropCache inside a transaction")
	}
	clear(p.pages)
}

// DirtyPages reports the number of pages dirtied so far in the open
// transaction.
func (p *Pager) DirtyPages() int { return len(p.dirty) }

func sortFrames(frames []Frame) {
	slices.SortFunc(frames, func(a, b Frame) int { return cmp.Compare(a.Pgno, b.Pgno) })
}
