package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// PageStore supplies pages to a Tree. The pager package implements it on
// top of the journal (WAL or NVWAL) and the database file.
//
// Ownership: an image Get returns is read-only — it may be a committed
// image the store shares with the log and with other readers. A tree
// writes only to buffers Allocate or MarkDirty returned.
type PageStore interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Get returns the read-only image of page pgno.
	Get(pgno uint32) ([]byte, error)
	// Allocate creates a fresh zeroed page and returns its writable
	// buffer.
	Allocate() (uint32, []byte, error)
	// Free returns a page to the store's free pool (overflow chains of
	// deleted records).
	Free(pgno uint32) error
	// MarkDirty returns the buffer of page pgno the caller may write: the
	// transaction's one private copy, made the first time the page is
	// dirtied, while the image it was copied from stays the pre-image
	// (rollback image, differential-logging base). The page must have
	// been read through Get first. Later Gets return the same buffer.
	MarkDirty(pgno uint32) []byte
}

// ReservedTail is the per-page reserve of the early-split optimization:
// SQLite's 24-byte WAL frame header fits into the page's file-system
// block when the last 24 bytes of every B-tree page stay unused (§5.4).
const ReservedTail = 24

// MaxValueSize bounds a record's value (the on-page total-length field
// is 16 bits; larger values would need SQLite's varint cell format).
const MaxValueSize = 65535

// ErrTooLarge is returned when a key exceeds the per-cell budget or a
// value exceeds MaxValueSize. Values above the local threshold spill to
// overflow pages automatically.
var ErrTooLarge = errors.New("btree: record too large")

// Tree is one B+tree rooted at a fixed page. The root page number never
// changes (the database catalog references it), mirroring SQLite.
type Tree struct {
	store    PageStore
	root     uint32
	reserved int
}

// edit is the scratch one Put or Delete works in, so that an update or a
// split allocates nothing for its own bookkeeping: relay is the
// page-sized buffer a compaction or a split re-lays cells through (a
// page's cells never exceed the page), cells the split's cell list, cell
// the record being inserted, sep the separator a split hands up and link
// the interior cell that carries it into the parent. It is lent from
// editPool for the one call rather than kept per Tree, so the read-only
// Trees snapshot and replica reads open carry none of it, and an MVCC
// session's Tree, which lives for one transaction, does not cost another
// page.
type edit struct {
	relay []byte
	cells [][]byte
	cell  []byte
	sep   []byte
	link  []byte
}

var editPool sync.Pool // of *edit

// borrowEdit lends an edit whose relay holds at least a page; give it
// back with release.
func (t *Tree) borrowEdit() *edit {
	e, _ := editPool.Get().(*edit)
	if e == nil {
		e = new(edit)
	}
	if ps := t.store.PageSize(); len(e.relay) < ps {
		e.relay = make([]byte, ps)
	}
	return e
}

// release returns e to the pool, dropping what its cell list points at.
func (e *edit) release() {
	clear(e.cells)
	e.cells = e.cells[:0]
	editPool.Put(e)
}

// Config controls tree construction.
type Config struct {
	// Reserved is the per-page reserved tail in bytes. The paper's
	// early-split variant uses ReservedTail (24); stock SQLite uses 0.
	Reserved int
}

// New attaches to an existing tree rooted at root.
func New(store PageStore, root uint32, cfg Config) *Tree {
	t := Attach(store, root, cfg)
	return &t
}

// Attach is New by value, for a caller that embeds the tree rather than
// allocating one.
func Attach(store PageStore, root uint32, cfg Config) Tree {
	return Tree{store: store, root: root, reserved: cfg.Reserved}
}

// Create formats a fresh page as an empty tree root and returns the
// tree.
func Create(store PageStore, cfg Config) (*Tree, error) {
	pgno, buf, err := store.Allocate()
	if err != nil {
		return nil, err
	}
	t := &Tree{store: store, root: pgno, reserved: cfg.Reserved}
	p := t.view(pgno, buf)
	p.init(pageLeaf)
	return t, nil
}

// Root returns the tree's root page number.
func (t *Tree) Root() uint32 { return t.root }

func (t *Tree) usable() int { return t.store.PageSize() - t.reserved }

// maxCell is the largest cell the split logic can always place: a
// quarter of the usable content area.
func (t *Tree) maxCell() int {
	return (t.usable() - headerSize - 8) / 4
}

// page returns the view by value: the caller's copy stays on its stack,
// where a returned pointer would cost one heap object per node visited.
func (t *Tree) page(pgno uint32) (page, error) {
	buf, err := t.store.Get(pgno)
	if err != nil {
		return page{}, err
	}
	return t.view(pgno, buf), nil
}

func (t *Tree) view(pgno uint32, buf []byte) page {
	return page{no: pgno, buf: buf, usable: t.usable()}
}

// dirty switches p to the buffer the store lets the tree write.
func (t *Tree) dirty(p *page) { p.buf = t.store.MarkDirty(p.no) }

// searchLeaf returns the index where key belongs in the leaf and whether
// it is already present.
func searchLeaf(p *page, key []byte) (int, bool) {
	n := p.nCells()
	i := sort.Search(n, func(i int) bool {
		k, _ := p.leafCell(i)
		return bytes.Compare(k, key) >= 0
	})
	if i < n {
		k, _ := p.leafCell(i)
		if bytes.Equal(k, key) {
			return i, true
		}
	}
	return i, false
}

// routeInterior returns the child to descend into for key, and the cell
// index it came from (nCells means the rightmost child).
func routeInterior(p *page, key []byte) (uint32, int) {
	n := p.nCells()
	i := sort.Search(n, func(i int) bool {
		_, k := p.interiorCell(i)
		return bytes.Compare(key, k) <= 0
	})
	if i == n {
		return p.rightChild(), n
	}
	child, _ := p.interiorCell(i)
	return child, i
}

// seek descends to the leaf where key belongs and returns it with the
// key's index in it and whether the key is present.
func (t *Tree) seek(key []byte) (page, int, bool, error) {
	pgno := t.root
	for {
		p, err := t.page(pgno)
		if err != nil {
			return page{}, 0, false, err
		}
		if p.isLeaf() {
			i, found := searchLeaf(&p, key)
			return p, i, found, nil
		}
		pgno, _ = routeInterior(&p, key)
	}
}

// Get returns a copy of the value stored under key, sized to it.
func (t *Tree) Get(key []byte) ([]byte, bool, error) { return t.AppendGet(nil, key) }

// AppendGet appends the value stored under key to dst and returns the
// extended slice. A dst without room for the value is replaced once by a
// buffer of exactly its length plus the value's, so an overflow chain
// does not reallocate per chunk, and a nil dst yields a copy sized to the
// value. A missing key or an error returns dst as passed.
func (t *Tree) AppendGet(dst, key []byte) ([]byte, bool, error) {
	p, i, found, err := t.seek(key)
	if err != nil || !found {
		return dst, false, err
	}
	_, local, total, ovfl := p.leafCellInfo(i)
	buf := dst
	if buf == nil || cap(buf)-len(buf) < total {
		buf = append(make([]byte, 0, len(buf)+total), buf...)
	}
	v, err := t.appendValue(buf, local, total, ovfl)
	if err != nil {
		return dst, false, err
	}
	return v, true, nil
}

// Put inserts key/val, replacing any existing value. Values too large
// for a page cell spill to overflow pages.
func (t *Tree) Put(key, val []byte) error {
	_, err := t.put(key, val, false)
	return err
}

// Update rewrites the value of an existing key in place (delete +
// insert within the leaf), reporting whether the key existed. A missing
// key costs one descent and nothing else: no page is dirtied or
// allocated, and the value is not looked at. On an error Update reports
// false.
func (t *Tree) Update(key, val []byte) (bool, error) {
	return t.put(key, val, true)
}

// errNoKey ends an Update's descent at a leaf that lacks the key.
var errNoKey = errors.New("btree: key not found")

// put is Put and, with update, Update: one descent to the leaf, where
// insert builds the cell and places it.
func (t *Tree) put(key, val []byte, update bool) (bool, error) {
	e := t.borrowEdit()
	defer e.release()
	res, err := t.insert(e, t.root, key, val, update)
	if err == nil && res.split {
		err = t.growRoot(e, res)
	}
	if errors.Is(err, errNoKey) {
		return false, nil
	}
	return err == nil, err
}

// encodeCell checks key/val and encodes their leaf cell into e.cell,
// spilling a value too large for a cell to a fresh overflow chain.
func (t *Tree) encodeCell(e *edit, key, val []byte) error {
	if len(key) == 0 {
		return errors.New("btree: empty key")
	}
	if len(key) > t.maxCell()/2 {
		return fmt.Errorf("%w: key of %d bytes, limit %d", ErrTooLarge, len(key), t.maxCell()/2)
	}
	if len(val) > MaxValueSize {
		return fmt.Errorf("%w: value of %d bytes, limit %d", ErrTooLarge, len(val), MaxValueSize)
	}
	if leafCellSize(key, val) <= t.maxCell() {
		e.cell = appendLeafCell(e.cell[:0], key, val)
		return nil
	}
	localLen := t.maxCell() - overflowCellSize(len(key), 0)
	head, err := t.buildOverflowChain(val[localLen:])
	if err != nil {
		return err
	}
	e.cell = appendOverflowCell(e.cell[:0], key, val[:localLen], len(val), head)
	return nil
}

// overflowCapacity is the payload capacity of one overflow page.
func (t *Tree) overflowCapacity() int { return t.usable() - 4 }

// buildOverflowChain stores data across freshly allocated overflow
// pages and returns the head page number.
func (t *Tree) buildOverflowChain(data []byte) (uint32, error) {
	chunk := t.overflowCapacity()
	var head, prev uint32
	var prevBuf []byte
	for pos := 0; pos < len(data); pos += chunk {
		pgno, buf, err := t.store.Allocate()
		if err != nil {
			return 0, err
		}
		end := pos + chunk
		if end > len(data) {
			end = len(data)
		}
		copy(buf[4:], data[pos:end])
		if prev == 0 {
			head = pgno
		} else {
			prevBuf[0] = byte(pgno)
			prevBuf[1] = byte(pgno >> 8)
			prevBuf[2] = byte(pgno >> 16)
			prevBuf[3] = byte(pgno >> 24)
		}
		prev, prevBuf = pgno, buf
	}
	return head, nil
}

// freeOverflowChain releases the chain headed at head.
func (t *Tree) freeOverflowChain(head uint32) error {
	for head != 0 {
		buf, err := t.store.Get(head)
		if err != nil {
			return err
		}
		next := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
		if err := t.store.Free(head); err != nil {
			return err
		}
		head = next
	}
	return nil
}

// cellValue returns a copy of the full value of leaf cell i, following
// any overflow chain.
func (t *Tree) cellValue(p *page, i int) ([]byte, error) {
	_, local, total, ovfl := p.leafCellInfo(i)
	return t.appendValue(make([]byte, 0, total), local, total, ovfl)
}

// appendValue appends to dst a value of total bytes whose first bytes
// are local and whose rest is on the overflow chain headed at ovfl.
func (t *Tree) appendValue(dst, local []byte, total int, ovfl uint32) ([]byte, error) {
	base := len(dst)
	dst = append(dst, local...)
	chunk := t.overflowCapacity()
	for ovfl != 0 && len(dst)-base < total {
		buf, err := t.store.Get(ovfl)
		if err != nil {
			return nil, err
		}
		n := min(total-(len(dst)-base), chunk)
		dst = append(dst, buf[4:4+n]...)
		ovfl = uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	}
	if got := len(dst) - base; got != total {
		return nil, fmt.Errorf("btree: truncated overflow chain (%d of %d bytes)", got, total)
	}
	return dst, nil
}

// dropCell removes leaf cell i, releasing its overflow chain first.
func (t *Tree) dropCell(e *edit, p *page, i int) error {
	if _, _, _, ovfl := p.leafCellInfo(i); ovfl != 0 {
		if err := t.freeOverflowChain(ovfl); err != nil {
			return err
		}
	}
	p.deleteCellAt(i, e.relay)
	return nil
}

type splitResult struct {
	split bool
	sep   []byte // max key of the left (original) page, in the edit's sep
	right uint32 // page holding the upper half
}

// insert descends to the leaf and places key/val's cell there,
// splitting on the way back up. An update stops at a leaf without the
// key (errNoKey). The cell, and any overflow chain, is built at the
// leaf before the leaf is dirtied: the store allocates the chain's
// pages before the leaf's MarkDirty and any split's page, which is the
// page numbering and dirty order recorded results depend on.
func (t *Tree) insert(e *edit, pgno uint32, key, val []byte, update bool) (splitResult, error) {
	p, err := t.page(pgno)
	if err != nil {
		return splitResult{}, err
	}
	if p.isLeaf() {
		i, found := searchLeaf(&p, key)
		if update && !found {
			return splitResult{}, errNoKey
		}
		if err := t.encodeCell(e, key, val); err != nil {
			return splitResult{}, err
		}
		cell := e.cell
		t.dirty(&p)
		if found {
			if err := t.dropCell(e, &p, i); err != nil {
				return splitResult{}, err
			}
		}
		if p.freeSpace() >= len(cell)+2 {
			p.insertCellAt(i, cell)
			return splitResult{}, nil
		}
		return t.splitLeaf(e, &p, i, cell)
	}

	child, idx := routeInterior(&p, key)
	res, err := t.insert(e, child, key, val, update)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// The child split: child keeps the lower half, res.right holds the
	// upper half, res.sep is the max key of the lower half. Insert a new
	// cell (child, sep) at idx and redirect the old slot to the right
	// sibling.
	t.dirty(&p)
	e.link = appendInteriorCell(e.link[:0], child, res.sep)
	newCell := e.link
	if idx == p.nCells() {
		// child was the rightmost pointer.
		p.setRightChild(res.right)
	} else {
		p.setInteriorChild(idx, res.right)
	}
	if p.freeSpace() >= len(newCell)+2 {
		p.insertCellAt(idx, newCell)
		return splitResult{}, nil
	}
	return t.splitInterior(e, &p, idx, newCell)
}

// setInteriorChild rewrites the child pointer of interior cell i in
// place.
func (p *page) setInteriorChild(i int, child uint32) {
	off := p.cellPtr(i)
	p.buf[off] = byte(child)
	p.buf[off+1] = byte(child >> 8)
	p.buf[off+2] = byte(child >> 16)
	p.buf[off+3] = byte(child >> 24)
}

// collectCells returns the raw encoded cells of p with pending inserted
// at index idx. The page's cells are copied into e.relay, so the split
// may re-lay p itself; the list and the copies are valid until e's next
// use.
func (e *edit) collectCells(p *page, idx int, pending []byte) [][]byte {
	n := p.nCells()
	pos := 0
	cells := e.cells[:0]
	for i := 0; i < n; i++ {
		if i == idx {
			cells = append(cells, pending)
		}
		off, sz := p.cellPtr(i), p.cellSize(i)
		c := e.relay[pos : pos+sz : pos+sz]
		copy(c, p.buf[off:off+sz])
		cells = append(cells, c)
		pos += sz
	}
	if idx == n {
		cells = append(cells, pending)
	}
	e.cells = cells
	return cells
}

// splitLeaf distributes the page's cells plus the pending cell across
// the page and a fresh right sibling, by byte volume.
func (t *Tree) splitLeaf(e *edit, p *page, idx int, pending []byte) (splitResult, error) {
	cells := e.collectCells(p, idx, pending)
	total := 0
	for _, c := range cells {
		total += len(c)
	}
	// Left keeps cells until it holds at least half the bytes.
	split, acc := 0, 0
	for split < len(cells)-1 {
		acc += len(cells[split])
		split++
		if acc >= total/2 {
			break
		}
	}
	rightNo, rightBuf, err := t.store.Allocate()
	if err != nil {
		return splitResult{}, err
	}
	right := t.view(rightNo, rightBuf)
	right.init(pageLeaf)
	for i, c := range cells[split:] {
		right.insertCellAt(i, c)
	}
	p.init(pageLeaf)
	for i, c := range cells[:split] {
		p.insertCellAt(i, c)
	}
	e.sep = append(e.sep[:0], keyOfLeafCell(cells[split-1])...)
	return splitResult{split: true, sep: e.sep, right: rightNo}, nil
}

// splitInterior distributes interior cells across the page and a fresh
// right sibling; the middle cell's key moves up as the separator and its
// child becomes the left page's rightmost pointer.
func (t *Tree) splitInterior(e *edit, p *page, idx int, pending []byte) (splitResult, error) {
	cells := e.collectCells(p, idx, pending)
	oldRight := p.rightChild()
	mid := len(cells) / 2
	midChild, midKey := decodeInteriorCell(cells[mid])

	rightNo, rightBuf, err := t.store.Allocate()
	if err != nil {
		return splitResult{}, err
	}
	right := t.view(rightNo, rightBuf)
	right.init(pageInterior)
	for i, c := range cells[mid+1:] {
		right.insertCellAt(i, c)
	}
	right.setRightChild(oldRight)

	p.init(pageInterior)
	for i, c := range cells[:mid] {
		p.insertCellAt(i, c)
	}
	p.setRightChild(midChild)

	e.sep = append(e.sep[:0], midKey...)
	return splitResult{split: true, sep: e.sep, right: rightNo}, nil
}

func keyOfLeafCell(cell []byte) []byte {
	klRaw := int(cell[0]) | int(cell[1])<<8
	kl := klRaw &^ overflowFlag
	if klRaw&overflowFlag != 0 {
		return cell[6 : 6+kl]
	}
	return cell[4 : 4+kl]
}

func decodeInteriorCell(cell []byte) (uint32, []byte) {
	child := uint32(cell[0]) | uint32(cell[1])<<8 | uint32(cell[2])<<16 | uint32(cell[3])<<24
	kl := int(cell[4]) | int(cell[5])<<8
	return child, cell[6 : 6+kl]
}

// growRoot handles a root split while keeping the root page number
// fixed: the old root's content moves to a new left child and the root
// becomes an interior page over (left, right).
func (t *Tree) growRoot(e *edit, res splitResult) error {
	root, err := t.page(t.root)
	if err != nil {
		return err
	}
	leftNo, left, err := t.store.Allocate()
	if err != nil {
		return err
	}
	copy(left, root.buf)

	t.dirty(&root)
	root.init(pageInterior)
	e.link = appendInteriorCell(e.link[:0], leftNo, res.sep)
	root.insertCellAt(0, e.link)
	root.setRightChild(res.right)
	return nil
}

// Delete removes key, reporting whether it was present. A leaf emptied
// by the deletion is unlinked from its parent and freed; an interior
// page left with only its rightmost pointer collapses into it, and the
// root shrinks when it runs out of separators — so sustained deletions
// return pages instead of hollowing the tree out. (Full sibling
// rebalancing, as in SQLite's balance(), is not performed.)
func (t *Tree) Delete(key []byte) (bool, error) {
	e := t.borrowEdit()
	defer e.release()
	res, err := t.deleteRec(e, t.root, key)
	if err != nil || !res.deleted {
		return false, err
	}
	// res.emptied for the root leaf is fine (an empty tree); the root
	// cannot collapse because deleteRec shrinks it in place.
	return true, nil
}

// deleteResult reports what the parent must do about a child after a
// recursive deletion.
type deleteResult struct {
	deleted bool
	// emptied: the child is a leaf with no cells; remove its reference
	// and free it.
	emptied bool
	// collapse: the child is an interior page reduced to its rightmost
	// pointer; redirect the reference to this page and free the child.
	collapse uint32
}

func (t *Tree) deleteRec(e *edit, pgno uint32, key []byte) (deleteResult, error) {
	p, err := t.page(pgno)
	if err != nil {
		return deleteResult{}, err
	}
	if p.isLeaf() {
		i, found := searchLeaf(&p, key)
		if !found {
			return deleteResult{}, nil
		}
		t.dirty(&p)
		if err := t.dropCell(e, &p, i); err != nil {
			return deleteResult{}, err
		}
		return deleteResult{deleted: true, emptied: p.nCells() == 0 && pgno != t.root}, nil
	}

	child, idx := routeInterior(&p, key)
	res, err := t.deleteRec(e, child, key)
	if err != nil || !res.deleted {
		return deleteResult{}, err
	}
	switch {
	case res.emptied:
		t.dirty(&p)
		if idx == p.nCells() {
			// The rightmost child vanished: its left neighbour becomes
			// the rightmost pointer.
			lastChild, _ := p.interiorCell(p.nCells() - 1)
			p.setRightChild(lastChild)
			p.deleteCellAt(p.nCells()-1, e.relay)
		} else {
			// Dropping cell idx merges its key range into the next
			// child, which keeps the separator ordering intact.
			p.deleteCellAt(idx, e.relay)
		}
		if err := t.store.Free(child); err != nil {
			return deleteResult{}, err
		}
	case res.collapse != 0:
		t.dirty(&p)
		if idx == p.nCells() {
			p.setRightChild(res.collapse)
		} else {
			p.setInteriorChild(idx, res.collapse)
		}
		if err := t.store.Free(child); err != nil {
			return deleteResult{}, err
		}
	}
	if p.nCells() > 0 {
		return deleteResult{deleted: true}, nil
	}
	// Only the rightmost pointer remains.
	if pgno != t.root {
		return deleteResult{deleted: true, collapse: p.rightChild()}, nil
	}
	// Shrink the root in place (its page number is fixed): absorb the
	// sole remaining child.
	only := p.rightChild()
	cp, err := t.page(only)
	if err != nil {
		return deleteResult{}, err
	}
	t.dirty(&p)
	copy(p.buf, cp.buf)
	if err := t.store.Free(only); err != nil {
		return deleteResult{}, err
	}
	return deleteResult{deleted: true}, nil
}

// Scan visits all records in ascending key order until fn returns
// false. key and val are valid until fn returns; copy them to keep them.
func (t *Tree) Scan(fn func(key, val []byte) bool) error {
	return t.ScanRange(nil, nil, fn)
}

// Count returns the number of records in the tree.
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.ScanRange(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Check verifies the tree's structural invariants: uniform leaf depth,
// sorted keys, separator bounds, and per-page accounting. It returns a
// descriptive error on the first violation.
func (t *Tree) Check() error {
	depth := -1
	var last []byte
	haveLast := false
	var walk func(pgno uint32, d int, ub []byte, haveUB bool) error
	walk = func(pgno uint32, d int, ub []byte, haveUB bool) error {
		p, err := t.page(pgno)
		if err != nil {
			return err
		}
		if err := p.checkAccounting(); err != nil {
			return fmt.Errorf("page %d: %w", pgno, err)
		}
		if p.isLeaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("page %d: leaf at depth %d, expected %d", pgno, d, depth)
			}
			for i := 0; i < p.nCells(); i++ {
				k, _ := p.leafCell(i)
				if haveLast && bytes.Compare(last, k) >= 0 {
					return fmt.Errorf("page %d: key order violation at cell %d", pgno, i)
				}
				if haveUB && bytes.Compare(k, ub) > 0 {
					return fmt.Errorf("page %d: key exceeds separator bound", pgno)
				}
				last = append(last[:0], k...)
				haveLast = true
				// Overflow chains must resolve to exactly the declared
				// total length.
				if _, err := t.cellValue(&p, i); err != nil {
					return fmt.Errorf("page %d cell %d: %w", pgno, i, err)
				}
			}
			return nil
		}
		if p.nCells() == 0 {
			return fmt.Errorf("page %d: interior page with no cells", pgno)
		}
		for i := 0; i < p.nCells(); i++ {
			child, sep := p.interiorCell(i)
			if haveUB && bytes.Compare(sep, ub) > 0 {
				return fmt.Errorf("page %d: separator exceeds parent bound", pgno)
			}
			if err := walk(child, d+1, sep, true); err != nil {
				return err
			}
		}
		return walk(p.rightChild(), d+1, ub, haveUB)
	}
	return walk(t.root, 0, nil, false)
}

// checkAccounting validates the page's internal layout: pointers inside
// the content area, no overlap with the pointer array, and contentStart
// consistency.
func (p *page) checkAccounting() error {
	n := p.nCells()
	arrayEnd := headerSize + 2*n
	cs := p.contentStart()
	if cs < arrayEnd || cs > p.usable {
		return fmt.Errorf("contentStart %d outside [%d,%d]", cs, arrayEnd, p.usable)
	}
	for i := 0; i < n; i++ {
		off := p.cellPtr(i)
		sz := p.cellSize(i)
		if off < cs || off+sz > p.usable {
			return fmt.Errorf("cell %d span [%d,%d) outside content area [%d,%d)", i, off, off+sz, cs, p.usable)
		}
	}
	return nil
}

// Drop releases every page of the tree — leaves, interior pages,
// overflow chains, and the root — back to the store. The tree must not
// be used afterwards.
func (t *Tree) Drop() error {
	var walk func(pgno uint32) error
	walk = func(pgno uint32) error {
		p, err := t.page(pgno)
		if err != nil {
			return err
		}
		if p.isLeaf() {
			for i := 0; i < p.nCells(); i++ {
				if _, _, _, ovfl := p.leafCellInfo(i); ovfl != 0 {
					if err := t.freeOverflowChain(ovfl); err != nil {
						return err
					}
				}
			}
			return t.store.Free(pgno)
		}
		for i := 0; i < p.nCells(); i++ {
			child, _ := p.interiorCell(i)
			if err := walk(child); err != nil {
				return err
			}
		}
		if err := walk(p.rightChild()); err != nil {
			return err
		}
		return t.store.Free(pgno)
	}
	return walk(t.root)
}

// Depth reports the tree height (0 for a lone leaf root).
func (t *Tree) Depth() (int, error) {
	d := 0
	pgno := t.root
	for {
		p, err := t.page(pgno)
		if err != nil {
			return 0, err
		}
		if p.isLeaf() {
			return d, nil
		}
		child, _ := p.interiorCell(0)
		pgno = child
		d++
	}
}
