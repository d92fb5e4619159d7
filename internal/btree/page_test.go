package btree

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newPage(t testing.TB, typ int, usable int) *page {
	t.Helper()
	p := &page{no: 1, buf: make([]byte, 4096), usable: usable}
	p.init(typ)
	return p
}

func TestPageInit(t *testing.T) {
	p := newPage(t, pageLeaf, 4096)
	if !p.isLeaf() || p.nCells() != 0 || p.contentStart() != 4096 {
		t.Fatalf("fresh leaf: leaf=%v cells=%d cs=%d", p.isLeaf(), p.nCells(), p.contentStart())
	}
	if p.freeSpace() != 4096-headerSize {
		t.Fatalf("freeSpace = %d", p.freeSpace())
	}
	q := newPage(t, pageInterior, 4072)
	if q.isLeaf() || q.typ() != pageInterior || q.contentStart() != 4072 {
		t.Fatal("fresh interior wrong")
	}
}

func TestInsertCellOrderingAndLookup(t *testing.T) {
	p := newPage(t, pageLeaf, 4096)
	// Insert out of order via explicit indices.
	p.insertCellAt(0, appendLeafCell(nil, []byte("bb"), []byte("2")))
	p.insertCellAt(0, appendLeafCell(nil, []byte("aa"), []byte("1")))
	p.insertCellAt(2, appendLeafCell(nil, []byte("cc"), []byte("3")))
	if p.nCells() != 3 {
		t.Fatalf("nCells = %d", p.nCells())
	}
	for i, want := range []string{"aa", "bb", "cc"} {
		k, v := p.leafCell(i)
		if string(k) != want {
			t.Fatalf("cell %d key = %q", i, k)
		}
		if len(v) != 1 {
			t.Fatalf("cell %d val = %q", i, v)
		}
	}
	if err := p.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertCellOverflowPanics(t *testing.T) {
	p := newPage(t, pageLeaf, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing insertCellAt did not panic")
		}
	}()
	for i := 0; ; i++ {
		p.insertCellAt(i, appendLeafCell(nil, []byte{byte(i)}, bytes.Repeat([]byte{1}, 40)))
	}
}

func TestDeleteCellCompacts(t *testing.T) {
	p := newPage(t, pageLeaf, 4096)
	for i := 0; i < 10; i++ {
		p.insertCellAt(i, appendLeafCell(nil, []byte{byte('a' + i)}, bytes.Repeat([]byte{byte(i)}, 50)))
	}
	free0 := p.freeSpace()
	p.deleteCellAt(4, make([]byte, 4096))
	if p.nCells() != 9 {
		t.Fatalf("nCells = %d", p.nCells())
	}
	// Compaction returns the full cell size plus the pointer slot.
	if got := p.freeSpace() - free0; got != 55+2 {
		t.Fatalf("freed %d bytes, want 57", got)
	}
	// Remaining cells intact and ordered.
	want := []byte("abcdfghij")
	for i := 0; i < 9; i++ {
		k, _ := p.leafCell(i)
		if k[0] != want[i] {
			t.Fatalf("cell %d = %q, want %q", i, k, want[i:i+1])
		}
	}
	if err := p.checkAccounting(); err != nil {
		t.Fatal(err)
	}
}

func TestInteriorCells(t *testing.T) {
	p := newPage(t, pageInterior, 4096)
	p.insertCellAt(0, appendInteriorCell(nil, 7, []byte("mm")))
	p.insertCellAt(1, appendInteriorCell(nil, 9, []byte("tt")))
	p.setRightChild(11)
	c, k := p.interiorCell(0)
	if c != 7 || string(k) != "mm" {
		t.Fatalf("cell 0 = (%d,%q)", c, k)
	}
	p.setInteriorChild(0, 42)
	if c, _ = p.interiorCell(0); c != 42 {
		t.Fatalf("setInteriorChild: %d", c)
	}
	if p.rightChild() != 11 {
		t.Fatalf("rightChild = %d", p.rightChild())
	}
	child, kk := decodeInteriorCell(appendInteriorCell(nil, 99, []byte("zz")))
	if child != 99 || string(kk) != "zz" {
		t.Fatal("interior cell round trip")
	}
}

func TestOverflowCellEncoding(t *testing.T) {
	cell := appendOverflowCell(nil, []byte("key"), []byte("local"), 5000, 77)
	if got := keyOfLeafCell(cell); string(got) != "key" {
		t.Fatalf("keyOfLeafCell = %q", got)
	}
	p := newPage(t, pageLeaf, 4096)
	p.insertCellAt(0, cell)
	k, local, total, ovfl := p.leafCellInfo(0)
	if string(k) != "key" || string(local) != "local" || total != 5000 || ovfl != 77 {
		t.Fatalf("leafCellInfo = (%q,%q,%d,%d)", k, local, total, ovfl)
	}
	if p.cellSize(0) != overflowCellSize(3, 5) {
		t.Fatalf("cellSize = %d", p.cellSize(0))
	}
}

// deleteCellReference returns the image deleting cell i from p gives
// under a straightforward compaction — a span list and a temporary copy
// of the content, both allocated per call — leaving p untouched: the
// compaction through a relay buffer must produce these bytes exactly.
func deleteCellReference(p *page, i int) []byte {
	q := &page{no: p.no, buf: bytes.Clone(p.buf), usable: p.usable}
	n := q.nCells()
	copy(q.buf[headerSize+2*i:headerSize+2*(n-1)], q.buf[headerSize+2*(i+1):headerSize+2*n])
	q.setNCells(n - 1)
	type span struct{ off, size int }
	spans := make([]span, n-1)
	total := 0
	for j := range spans {
		spans[j] = span{q.cellPtr(j), q.cellSize(j)}
		total += spans[j].size
	}
	tmp := make([]byte, total)
	pos := 0
	for j := range spans {
		copy(tmp[pos:], q.buf[spans[j].off:spans[j].off+spans[j].size])
		spans[j].off = pos
		pos += spans[j].size
	}
	writeAt := q.usable
	for j, s := range spans {
		writeAt -= s.size
		copy(q.buf[writeAt:], tmp[s.off:s.off+s.size])
		q.setCellPtr(j, writeAt)
	}
	q.setContentStart(writeAt)
	return q.buf
}

// Property: any sequence of ordered inserts and deletes keeps page
// accounting valid and the cells reconstructible, and every compaction
// writes exactly the bytes the reference compaction writes.
func TestPropertyPageCellOps(t *testing.T) {
	scratch := make([]byte, 4096)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPage(t, pageLeaf, 1024)
		var model [][2][]byte // ordered (key, val)
		for op := 0; op < 200; op++ {
			if rng.Intn(3) != 0 || len(model) == 0 {
				key := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
				val := make([]byte, rng.Intn(60))
				rng.Read(val)
				cell := appendLeafCell(nil, key, val)
				if p.freeSpace() < len(cell)+2 {
					continue
				}
				idx := rng.Intn(len(model) + 1)
				p.insertCellAt(idx, cell)
				model = append(model, [2][]byte{})
				copy(model[idx+1:], model[idx:])
				model[idx] = [2][]byte{key, val}
			} else {
				idx := rng.Intn(len(model))
				want := deleteCellReference(p, idx)
				p.deleteCellAt(idx, scratch)
				if !bytes.Equal(p.buf, want) {
					t.Errorf("seed %d op %d: compaction through the scratch differs from the reference", seed, op)
					return false
				}
				model = append(model[:idx], model[idx+1:]...)
			}
			if p.checkAccounting() != nil || p.nCells() != len(model) {
				return false
			}
		}
		for i, kv := range model {
			k, v := p.leafCell(i)
			if !bytes.Equal(k, kv[0]) || !bytes.Equal(v, kv[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCompact runs a script of cell inserts, deletes, updates (a delete
// and an insert at the same index) and bare compactions on one leaf or
// interior page. Before every compaction the whole-page relay runs on a
// copy of the page, and the page the fast paths leave must equal that
// copy byte for byte over the whole buffer: the cells, the pointers, the
// stale bytes below the content start and the reserved tail.
func FuzzCompact(f *testing.F) {
	f.Add(true, []byte{0, 40, 0, 40, 0, 40, 0, 40, 1, 0, 1, 0, 3})
	f.Add(true, []byte{0, 10, 0, 200, 0, 3, 0, 90, 2, 1, 70, 1, 2, 2, 0, 5, 1, 1})
	f.Add(false, []byte{0, 5, 0, 6, 0, 7, 0, 8, 1, 1, 2, 0, 9, 3, 1, 2})
	f.Add(true, bytes.Repeat([]byte{0, 1, 0, 255, 2, 1, 33}, 12))
	f.Fuzz(func(t *testing.T, leaf bool, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		typ := pageInterior
		if leaf {
			typ = pageLeaf
		}
		p := &page{no: 1, buf: make([]byte, 1024), usable: 1024 - ReservedTail}
		for i := range p.buf {
			p.buf[i] = byte(i * 7) // stale bytes a compaction must not touch
		}
		p.init(typ)
		scratch := make([]byte, len(p.buf))
		// cell encodes a cell of roughly n bytes whose bytes tell it apart.
		cell := func(n int) []byte {
			body := make([]byte, n%120)
			for i := range body {
				body[i] = byte(n + i)
			}
			switch {
			case !leaf:
				return appendInteriorCell(nil, uint32(n), body)
			case n%5 == 0:
				return appendOverflowCell(nil, body[:len(body)/2], body[len(body)/2:], 5000, uint32(n))
			default:
				return appendLeafCell(nil, body[:len(body)/3], body[len(body)/3:])
			}
		}
		insert := func(i, n int) {
			if c := cell(n); p.freeSpace() >= len(c)+2 {
				p.insertCellAt(i, c)
			}
		}
		// compacted checks the compaction drop made (dropping cell i, or
		// none for i < 0) against the relay's on a copy of the page.
		compacted := func(op string, i int) {
			want := &page{no: p.no, buf: bytes.Clone(p.buf), usable: p.usable}
			if i >= 0 {
				n := want.nCells()
				copy(want.buf[headerSize+2*i:], want.buf[headerSize+2*(i+1):headerSize+2*n])
				want.setNCells(n - 1)
				want.relay(0, want.usable, make([]byte, len(p.buf)))
				p.deleteCellAt(i, scratch)
			} else {
				want.relay(0, want.usable, make([]byte, len(p.buf)))
				p.compact(scratch)
			}
			if !bytes.Equal(p.buf, want.buf) {
				t.Fatalf("%s: the page differs from the whole-page relay's", op)
			}
			if err := p.checkAccounting(); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
		for len(script) > 0 {
			n := p.nCells()
			switch op := next() % 4; {
			case op == 0 || n == 0:
				insert(next()%(n+1), next())
			case op == 1:
				compacted("delete", next()%n)
			case op == 2:
				i := next() % n
				compacted("update", i)
				insert(i, next())
			default:
				compacted("compact", -1)
			}
		}
	})
}
