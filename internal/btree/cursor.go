package btree

import "bytes"

// Cursor iterates a tree in ascending key order. It holds a descent
// stack into the tree, like SQLite's BtCursor. A cursor is invalidated
// by any mutation of the tree; position-then-read without interleaved
// writes, or re-Seek after writing.
type Cursor struct {
	t     *Tree
	stack []cursorFrame
	valid bool
}

type cursorFrame struct {
	pgno uint32
	idx  int // next cell index to visit at this level
}

// NewCursor returns an unpositioned cursor; call First or Seek.
func (t *Tree) NewCursor() *Cursor { return &Cursor{t: t} }

// First positions the cursor at the smallest key. ok is false for an
// empty tree.
func (c *Cursor) First() (bool, error) {
	c.stack = c.stack[:0]
	pgno := c.t.root
	for {
		p, err := c.t.page(pgno)
		if err != nil {
			c.valid = false
			return false, err
		}
		c.stack = append(c.stack, cursorFrame{pgno: pgno, idx: 0})
		if p.isLeaf() {
			return c.settle()
		}
		child, _ := p.interiorCell(0)
		pgno = child
	}
}

// Seek positions the cursor at the smallest key >= target. ok is false
// when no such key exists.
func (c *Cursor) Seek(target []byte) (bool, error) {
	c.stack = c.stack[:0]
	pgno := c.t.root
	for {
		p, err := c.t.page(pgno)
		if err != nil {
			c.valid = false
			return false, err
		}
		if p.isLeaf() {
			idx, _ := searchLeaf(&p, target)
			c.stack = append(c.stack, cursorFrame{pgno: pgno, idx: idx})
			return c.settle()
		}
		child, idx := routeInterior(&p, target)
		c.stack = append(c.stack, cursorFrame{pgno: pgno, idx: idx})
		pgno = child
	}
}

// settle ensures the top-of-stack leaf position references an existing
// cell, advancing through ancestors when a leaf is exhausted (including
// empty leaves left by deletions).
func (c *Cursor) settle() (bool, error) {
	for len(c.stack) > 0 {
		top := &c.stack[len(c.stack)-1]
		p, err := c.t.page(top.pgno)
		if err != nil {
			c.valid = false
			return false, err
		}
		if p.isLeaf() {
			if top.idx < p.nCells() {
				c.valid = true
				return true, nil
			}
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		// Interior: idx counts visited children; nCells()+1 children
		// exist (the rightmost pointer is the last).
		top.idx++
		if top.idx > p.nCells() {
			c.stack = c.stack[:len(c.stack)-1]
			continue
		}
		// Descend to the leftmost leaf of the next child.
		pgno := p.rightChild()
		if top.idx < p.nCells() {
			pgno, _ = p.interiorCell(top.idx)
		}
		for {
			ch, err := c.t.page(pgno)
			if err != nil {
				c.valid = false
				return false, err
			}
			c.stack = append(c.stack, cursorFrame{pgno: pgno, idx: 0})
			if ch.isLeaf() {
				break
			}
			pgno, _ = ch.interiorCell(0)
		}
	}
	c.valid = false
	return false, nil
}

// Valid reports whether the cursor references a record.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns a copy of the current record's key. Only valid cursors
// may be read.
func (c *Cursor) Key() ([]byte, error) {
	k, _, err := c.current()
	return k, err
}

// Value returns a copy of the current record's value.
func (c *Cursor) Value() ([]byte, error) {
	_, v, err := c.current()
	return v, err
}

// Record returns copies of the current key and value.
func (c *Cursor) Record() (key, value []byte, err error) {
	return c.current()
}

func (c *Cursor) current() ([]byte, []byte, error) {
	if !c.valid {
		panic("btree: read of unpositioned cursor")
	}
	top := c.stack[len(c.stack)-1]
	p, err := c.t.page(top.pgno)
	if err != nil {
		return nil, nil, err
	}
	k, _ := p.leafCell(top.idx)
	kc := make([]byte, len(k))
	copy(kc, k)
	vc, err := c.t.cellValue(&p, top.idx)
	if err != nil {
		return nil, nil, err
	}
	return kc, vc, nil
}

// Next advances to the following key. ok is false past the last record.
func (c *Cursor) Next() (bool, error) {
	if !c.valid {
		return false, nil
	}
	c.stack[len(c.stack)-1].idx++
	return c.settle()
}

// ScanRange visits records with start <= key < end (nil end = no upper
// bound) until fn returns false.
func (t *Tree) ScanRange(start, end []byte, fn func(key, val []byte) bool) error {
	c := t.NewCursor()
	ok, err := c.Seek(start)
	if err != nil {
		return err
	}
	for ok {
		k, v, err := c.Record()
		if err != nil {
			return err
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return nil
		}
		if !fn(k, v) {
			return nil
		}
		ok, err = c.Next()
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanPrefix visits records whose key begins with prefix, in order.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, val []byte) bool) error {
	return t.ScanRange(prefix, prefixEnd(prefix), func(k, v []byte) bool {
		return fn(k, v)
	})
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
