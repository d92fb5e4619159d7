package btree

import (
	"bytes"
	"errors"
)

// maxDepth bounds a cursor's descent stack. Every interior page keeps at
// least two children and every non-root leaf at least one record (Delete
// frees emptied leaves and collapses single-child interiors), so a tree of
// depth d has at least 2^d leaves — more pages than a uint32 numbers past
// d = 32. A deeper descent is a cycle in a corrupt tree.
const maxDepth = 40

var errTooDeep = errors.New("btree: descent deeper than any valid tree (page cycle?)")

// Cursor iterates a tree in ascending key order. It holds a descent
// stack into the tree, like SQLite's BtCursor, in a fixed array, and the
// image of the leaf it is on, resolved once per leaf. A cursor is
// invalidated by any mutation of the tree; position-then-read without
// interleaved writes, or re-Seek after writing.
type Cursor struct {
	t     *Tree
	leaf  page // the leaf the top frame is on
	depth int
	stack [maxDepth]cursorFrame
	valid bool
}

type cursorFrame struct {
	pgno uint32
	idx  int // leaf: the current cell; interior: the child being visited
}

// NewCursor returns an unpositioned cursor; call First or Seek.
func (t *Tree) NewCursor() *Cursor { return &Cursor{t: t} }

// First positions the cursor at the smallest key. ok is false for an
// empty tree.
func (c *Cursor) First() (bool, error) { return c.Seek(nil) }

// Seek positions the cursor at the smallest key >= target. ok is false
// when no such key exists.
func (c *Cursor) Seek(target []byte) (bool, error) {
	c.depth = 0
	if err := c.descend(c.t.root, target); err != nil {
		return c.fail(err)
	}
	return c.settle()
}

// descend pushes the path from pgno down to the leaf where target
// belongs (the leftmost leaf for a nil target) and resolves that leaf.
func (c *Cursor) descend(pgno uint32, target []byte) error {
	for {
		p, err := c.t.page(pgno)
		if err != nil {
			return err
		}
		if c.depth == maxDepth {
			return errTooDeep
		}
		if p.isLeaf() {
			idx, _ := searchLeaf(&p, target)
			c.stack[c.depth] = cursorFrame{pgno: pgno, idx: idx}
			c.depth++
			c.leaf = p
			return nil
		}
		child, idx := routeInterior(&p, target)
		c.stack[c.depth] = cursorFrame{pgno: pgno, idx: idx}
		c.depth++
		pgno = child
	}
}

// settle ensures the top-of-stack leaf position references an existing
// cell: past a leaf's last cell (an empty leaf included) it climbs to the
// nearest ancestor with a child left to visit and descends to that
// child's leftmost leaf.
func (c *Cursor) settle() (bool, error) {
	for c.stack[c.depth-1].idx >= c.leaf.nCells() {
		c.depth--
		for {
			if c.depth == 0 {
				c.valid = false
				return false, nil
			}
			top := &c.stack[c.depth-1]
			p, err := c.t.page(top.pgno)
			if err != nil {
				return c.fail(err)
			}
			// nCells()+1 children exist; the rightmost pointer is the last.
			if top.idx++; top.idx <= p.nCells() {
				child := p.rightChild()
				if top.idx < p.nCells() {
					child, _ = p.interiorCell(top.idx)
				}
				if err := c.descend(child, nil); err != nil {
					return c.fail(err)
				}
				break
			}
			c.depth--
		}
	}
	c.valid = true
	return true, nil
}

func (c *Cursor) fail(err error) (bool, error) {
	c.valid = false
	return false, err
}

// Valid reports whether the cursor references a record.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns a copy of the current record's key. Only valid cursors
// may be read.
func (c *Cursor) Key() ([]byte, error) {
	k, _, _, _ := c.cell()
	return bytes.Clone(k), nil
}

// Value returns a copy of the current record's value.
func (c *Cursor) Value() ([]byte, error) {
	_, local, total, ovfl := c.cell()
	return c.t.appendValue(make([]byte, 0, total), local, total, ovfl)
}

// Record returns copies of the current key and value.
func (c *Cursor) Record() (key, value []byte, err error) {
	if value, err = c.Value(); err != nil {
		return nil, nil, err
	}
	key, _ = c.Key()
	return key, value, nil
}

// cell decodes the current record in place: the slices alias the leaf's
// image.
func (c *Cursor) cell() (key, local []byte, total int, ovfl uint32) {
	if !c.valid {
		panic("btree: read of unpositioned cursor")
	}
	return c.leaf.leafCellInfo(c.stack[c.depth-1].idx)
}

// Next advances to the following key. ok is false past the last record.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	c.stack[c.depth-1].idx++
	return c.settle()
}

// ScanRange visits records with start <= key < end (nil start = from the
// first key, nil end = no upper bound) until fn returns false. key and
// val are valid until fn returns; copy them to keep them. They slice the
// leaf's image, except for a value that spills to overflow pages, which
// is assembled into one buffer the scan reuses.
func (t *Tree) ScanRange(start, end []byte, fn func(key, val []byte) bool) error {
	c := Cursor{t: t}
	var spill []byte
	ok, err := c.Seek(start)
	for ; ok; ok, err = c.Next() {
		k, v, total, ovfl := c.cell()
		if end != nil && bytes.Compare(k, end) >= 0 {
			return nil
		}
		if ovfl != 0 {
			if cap(spill) < total {
				spill = make([]byte, 0, total)
			}
			if spill, err = t.appendValue(spill[:0], v, total, ovfl); err != nil {
				return err
			}
			v = spill
		}
		if !fn(k, v) {
			return nil
		}
	}
	return err
}

// ScanPrefix visits records whose key begins with prefix, in order. key
// and val are valid until fn returns; copy them to keep them.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	return t.ScanRange(prefix, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the
// given prefix, or nil when no upper bound exists (all-0xFF prefix).
func prefixEnd(prefix []byte) []byte {
	end := make([]byte, len(prefix))
	copy(end, prefix)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
