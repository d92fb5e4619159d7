// Package btree implements the SQLite-style B+tree the database engine
// stores records in: fixed-size pages holding a cell-pointer array that
// grows forward from the page header and cell content allocated backward
// from the page end.
//
// The layout reproduces the dirty-byte behaviour §5.2 measures: an
// insert appends a new cell into the free gap and touches a small,
// localized region, while deletes (and therefore updates) compact the
// content area to avoid fragmentation and touch a large portion of the
// page — which is why differential logging helps inserts the most
// (Table 2).
//
// The package also implements the early-split variant of §5.4: every
// page keeps its last ReservedTail bytes (24 in the paper) unused so a
// WAL frame header plus the page fit exactly into one file-system block.
package btree

import (
	"encoding/binary"
	"fmt"
)

// Page type bytes.
const (
	pageLeaf     = 1
	pageInterior = 2
)

// Page header layout (both page types share one 12-byte header):
//
//	[0]      page type
//	[1]      unused
//	[2:4]    cell count (uint16)
//	[4:6]    content start: lowest offset of allocated cell content
//	[6:8]    unused (fragment accounting placeholder)
//	[8:12]   rightmost child page (interior pages only)
//	[12:]    cell pointer array, 2 bytes per cell
const (
	hdrType         = 0
	hdrNCells       = 2
	hdrContentStart = 4
	hdrRightChild   = 8
	headerSize      = 12
)

// page wraps one page buffer with layout accessors. It is a transient
// view; the underlying buffer belongs to the PageStore.
type page struct {
	no     uint32
	buf    []byte
	usable int // len(buf) - reserved tail
}

func (p *page) typ() int        { return int(p.buf[hdrType]) }
func (p *page) isLeaf() bool    { return p.buf[hdrType] == pageLeaf }
func (p *page) nCells() int     { return int(binary.LittleEndian.Uint16(p.buf[hdrNCells:])) }
func (p *page) setNCells(n int) { binary.LittleEndian.PutUint16(p.buf[hdrNCells:], uint16(n)) }
func (p *page) contentStart() int {
	return int(binary.LittleEndian.Uint16(p.buf[hdrContentStart:]))
}
func (p *page) setContentStart(v int) {
	binary.LittleEndian.PutUint16(p.buf[hdrContentStart:], uint16(v))
}
func (p *page) rightChild() uint32 { return binary.LittleEndian.Uint32(p.buf[hdrRightChild:]) }
func (p *page) setRightChild(c uint32) {
	binary.LittleEndian.PutUint32(p.buf[hdrRightChild:], c)
}

// init formats the page as an empty leaf or interior page.
func (p *page) init(typ int) {
	p.buf[hdrType] = byte(typ)
	p.buf[1] = 0
	p.setNCells(0)
	p.setContentStart(p.usable)
	binary.LittleEndian.PutUint16(p.buf[6:], 0)
	p.setRightChild(0)
}

// cellPtr returns the content offset of cell i.
func (p *page) cellPtr(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[headerSize+2*i:]))
}

func (p *page) setCellPtr(i, off int) {
	binary.LittleEndian.PutUint16(p.buf[headerSize+2*i:], uint16(off))
}

// freeSpace reports the bytes available in the gap between the pointer
// array and the content area.
func (p *page) freeSpace() int {
	return p.contentStart() - (headerSize + 2*p.nCells())
}

// Leaf cell: [keyLen u16][valLen u16][key][value]
//
// When the value is too large to store locally, the keyLen field's top
// bit (overflowFlag) is set and the cell becomes
//
//	[keyLen|flag u16][valTotal u16][localLen u16][key][local value][overflow pgno u32]
//
// with the remainder of the value on a chain of overflow pages, each
// laid out as [next pgno u32][payload...], like SQLite's overflow
// chains.
//
// Interior cell: [child u32][keyLen u16][key]

const overflowFlag = 0x8000

func leafCellSize(key, val []byte) int { return 4 + len(key) + len(val) }

func overflowCellSize(keyLen, localLen int) int { return 6 + keyLen + localLen + 4 }

// leafCell reads the key and the locally stored value bytes of leaf
// cell i. The returned slices alias the page buffer. For overflowing
// cells, val is only the local prefix; use Tree.cellValue for the full
// value.
func (p *page) leafCell(i int) (key, val []byte) {
	key, local, _, _ := p.leafCellInfo(i)
	return key, local
}

// leafCellInfo decodes leaf cell i: key, local value bytes, the total
// value length, and the overflow chain head (0 = fully local).
func (p *page) leafCellInfo(i int) (key, local []byte, total int, ovfl uint32) {
	off := p.cellPtr(i)
	klRaw := binary.LittleEndian.Uint16(p.buf[off:])
	kl := int(klRaw &^ overflowFlag)
	total = int(binary.LittleEndian.Uint16(p.buf[off+2:]))
	if klRaw&overflowFlag == 0 {
		key = p.buf[off+4 : off+4+kl]
		local = p.buf[off+4+kl : off+4+kl+total]
		return key, local, total, 0
	}
	ll := int(binary.LittleEndian.Uint16(p.buf[off+4:]))
	key = p.buf[off+6 : off+6+kl]
	local = p.buf[off+6+kl : off+6+kl+ll]
	ovfl = binary.LittleEndian.Uint32(p.buf[off+6+kl+ll:])
	return key, local, total, ovfl
}

// interiorCell reads the child pointer and separator key of interior
// cell i. The key aliases the page buffer.
func (p *page) interiorCell(i int) (child uint32, key []byte) {
	off := p.cellPtr(i)
	child = binary.LittleEndian.Uint32(p.buf[off:])
	kl := int(binary.LittleEndian.Uint16(p.buf[off+4:]))
	key = p.buf[off+6 : off+6+kl]
	return child, key
}

// cellSize reports the content size of cell i.
func (p *page) cellSize(i int) int { return cellSizeAt(p.buf[p.cellPtr(i):], p.isLeaf()) }

// cellSizeAt reports the size of the encoded cell at the start of b.
func cellSizeAt(b []byte, leaf bool) int {
	if leaf {
		klRaw := binary.LittleEndian.Uint16(b)
		kl := int(klRaw &^ overflowFlag)
		if klRaw&overflowFlag != 0 {
			ll := int(binary.LittleEndian.Uint16(b[4:]))
			return overflowCellSize(kl, ll)
		}
		vl := int(binary.LittleEndian.Uint16(b[2:]))
		return 4 + kl + vl
	}
	kl := int(binary.LittleEndian.Uint16(b[4:]))
	return 6 + kl
}

// allocCell carves size bytes from the content area and returns the
// offset, or -1 if the free gap cannot hold size plus one pointer slot.
func (p *page) allocCell(size int) int {
	if p.freeSpace() < size+2 {
		return -1
	}
	off := p.contentStart() - size
	p.setContentStart(off)
	return off
}

// insertCellAt inserts raw cell content at pointer-array index i,
// shifting later pointers. Caller must have verified capacity via
// allocCell semantics; insertCellAt panics when out of space (a bug in
// the split logic, not a user error).
func (p *page) insertCellAt(i int, cell []byte) {
	off := p.allocCell(len(cell))
	if off < 0 {
		panic(fmt.Sprintf("btree: page %d overflow inserting %d bytes (free %d)", p.no, len(cell), p.freeSpace()))
	}
	copy(p.buf[off:], cell)
	n := p.nCells()
	copy(p.buf[headerSize+2*(i+1):headerSize+2*(n+1)], p.buf[headerSize+2*i:headerSize+2*n])
	p.setCellPtr(i, off)
	p.setNCells(n + 1)
}

// deleteCellAt removes cell i and compacts the content area so no
// fragmentation remains — the shifting behaviour that makes delete and
// update transactions dirty a large portion of the page (§5.2). scratch
// (at least the page's size) carries the cells while they are re-laid.
func (p *page) deleteCellAt(i int, scratch []byte) {
	n := p.nCells()
	// Drop the pointer.
	copy(p.buf[headerSize+2*i:headerSize+2*(n-1)], p.buf[headerSize+2*(i+1):headerSize+2*n])
	p.setNCells(n - 1)
	p.compact(scratch)
}

// compact repacks all cell content against the end of the usable area,
// preserving cell order: cell i's target ends where cell i-1's begins,
// the first at the end of the usable area. It moves only what moves.
// The leading cells that already sit at their targets stay put. If the
// rest sit in order and back to back (cell i+1 ends where cell i
// begins), they move together with one copy; otherwise they go through
// scratch (relay). Every path writes the bytes the relay writes over the
// whole page, and only between the new content start and the leading
// cells, so what lies below the new content start keeps its stale bytes
// as it does under the relay (§5.2's dirty bytes depend on them).
func (p *page) compact(scratch []byte) {
	n := p.nCells()
	i, writeAt := 0, p.usable
	for ; i < n; i++ {
		sz := p.cellSize(i)
		if p.cellPtr(i) != writeAt-sz {
			break
		}
		writeAt -= sz
	}
	if i == n {
		p.setContentStart(writeAt)
		return
	}
	lo := p.cellPtr(i)
	hi := lo + p.cellSize(i)
	j := i + 1
	for ; j < n; j++ {
		off := p.cellPtr(j)
		if off+p.cellSize(j) != lo {
			break
		}
		lo = off
	}
	if j < n {
		p.relay(i, writeAt, scratch)
		return
	}
	shift := writeAt - hi
	copy(p.buf[lo+shift:], p.buf[lo:hi])
	for ; i < n; i++ {
		p.setCellPtr(i, p.cellPtr(i)+shift)
	}
	p.setContentStart(lo + shift)
}

// relay re-lays cells from on through scratch (at least the page's
// size): they are copied out back to back, then laid down from writeAt,
// the start of cell from-1's target, each one's size read off its own
// copy. relay(0, usable) is the whole compaction.
func (p *page) relay(from, writeAt int, scratch []byte) {
	n := p.nCells()
	pos := 0
	for i := from; i < n; i++ {
		off := p.cellPtr(i)
		pos += copy(scratch[pos:], p.buf[off:off+p.cellSize(i)])
	}
	leaf := p.isLeaf()
	pos = 0
	for i := from; i < n; i++ {
		sz := cellSizeAt(scratch[pos:], leaf)
		writeAt -= sz
		copy(p.buf[writeAt:], scratch[pos:pos+sz])
		p.setCellPtr(i, writeAt)
		pos += sz
	}
	p.setContentStart(writeAt)
}

// appendLeafCell appends the leaf cell for key/val to dst.
func appendLeafCell(dst, key, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(val)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// appendOverflowCell appends a leaf cell whose value spills to an
// overflow chain headed at ovfl.
func appendOverflowCell(dst, key, local []byte, total int, ovfl uint32) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key))|overflowFlag)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(total))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(local)))
	dst = append(dst, key...)
	dst = append(dst, local...)
	return binary.LittleEndian.AppendUint32(dst, ovfl)
}

// appendInteriorCell appends the interior cell for child/key to dst.
func appendInteriorCell(dst []byte, child uint32, key []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, child)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...)
}
