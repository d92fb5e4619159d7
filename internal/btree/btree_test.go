package btree

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// memStore is a minimal in-memory PageStore for unit-testing the tree in
// isolation from the pager. It keeps the store contract the way the
// pager does — copy on the first MarkDirty of a step, committed images
// read-only — and checks that the tree does too: every image Get hands
// out that the tree may not write is CRC'd, and checkOwnership re-verifies
// them all and ends the step (the step's private copies become the
// committed images the next step must copy again).
type memStore struct {
	pageSize int
	pages    map[uint32][]byte
	// private marks the pages whose current image Allocate or MarkDirty
	// returned in this step: the only buffers the tree may write.
	private map[uint32]bool
	// handed records the CRC of every read-only image Get returned,
	// keyed by the image's first byte, until a step ends past its last
	// use.
	handed  map[*byte]readOnlyImage
	next    uint32
	dirtied map[uint32]int
	freed   []uint32
}

type readOnlyImage struct {
	pgno uint32
	img  []byte
	crc  uint32
}

func newMemStore(pageSize int) *memStore {
	return &memStore{
		pageSize: pageSize, pages: make(map[uint32][]byte), private: make(map[uint32]bool),
		handed: make(map[*byte]readOnlyImage), next: 1, dirtied: make(map[uint32]int),
	}
}

func (s *memStore) PageSize() int { return s.pageSize }

func (s *memStore) Get(pgno uint32) ([]byte, error) {
	buf, ok := s.pages[pgno]
	if !ok {
		return nil, fmt.Errorf("memStore: page %d does not exist", pgno)
	}
	if !s.private[pgno] {
		if _, seen := s.handed[&buf[0]]; !seen {
			s.handed[&buf[0]] = readOnlyImage{pgno, buf, crc32.ChecksumIEEE(buf)}
		}
	}
	return buf, nil
}

func (s *memStore) Allocate() (uint32, []byte, error) {
	pgno := s.next
	s.next++
	buf := make([]byte, s.pageSize)
	s.pages[pgno] = buf
	s.private[pgno] = true
	return pgno, buf, nil
}

func (s *memStore) Free(pgno uint32) error {
	if _, ok := s.pages[pgno]; !ok {
		return fmt.Errorf("memStore: free of unknown page %d", pgno)
	}
	s.freed = append(s.freed, pgno)
	delete(s.pages, pgno)
	delete(s.private, pgno)
	return nil
}

func (s *memStore) MarkDirty(pgno uint32) []byte {
	s.dirtied[pgno]++
	if !s.private[pgno] {
		s.pages[pgno] = bytes.Clone(s.pages[pgno])
		s.private[pgno] = true
	}
	return s.pages[pgno]
}

// checkOwnership fails if any read-only image changed since Get handed
// it out, then ends the step: this step's private images become
// committed, and records of images no page holds any more are dropped.
func (s *memStore) checkOwnership() error {
	for key, h := range s.handed {
		if crc32.ChecksumIEEE(h.img) != h.crc {
			return fmt.Errorf("read-only image of page %d was written in place", h.pgno)
		}
		if cur, ok := s.pages[h.pgno]; !ok || &cur[0] != key {
			delete(s.handed, key)
		}
	}
	clear(s.private)
	return nil
}

func newTree(t testing.TB, reserved int) (*Tree, *memStore) {
	t.Helper()
	s := newMemStore(4096)
	tr, err := Create(s, Config{Reserved: reserved})
	if err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func key(i int) []byte     { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte     { return bytes.Repeat([]byte{byte(i)}, 100) }
func vals(s string) []byte { return []byte(s) }

func TestPutGetSingle(t *testing.T) {
	tr, _ := newTree(t, 0)
	if err := tr.Put(key(1), vals("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Get(key(1))
	if err != nil || !ok || !bytes.Equal(v, vals("hello")) {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	if _, ok, _ := tr.Get(key(2)); ok {
		t.Fatal("found absent key")
	}
}

func TestPutReplaces(t *testing.T) {
	tr, _ := newTree(t, 0)
	tr.Put(key(1), vals("one"))
	tr.Put(key(1), vals("two"))
	v, ok, _ := tr.Get(key(1))
	if !ok || !bytes.Equal(v, vals("two")) {
		t.Fatalf("Get after replace = %q", v)
	}
	if n, _ := tr.Count(); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr, _ := newTree(t, 0)
	if err := tr.Put(nil, vals("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestTooLargeRecordRejected(t *testing.T) {
	tr, _ := newTree(t, 0)
	if err := tr.Put(key(1), make([]byte, MaxValueSize+1)); err == nil {
		t.Fatal("value beyond MaxValueSize accepted")
	}
	if err := tr.Put(make([]byte, 3000), []byte("v")); err == nil {
		t.Fatal("oversized key accepted")
	}
}

func TestOverflowValues(t *testing.T) {
	tr, s := newTree(t, ReservedTail)
	big := make([]byte, 20000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := tr.Put(key(1), big); err != nil {
		t.Fatal(err)
	}
	if len(s.pages) < 5 {
		t.Fatalf("20 KB value used only %d pages (no overflow chain?)", len(s.pages))
	}
	got, ok, err := tr.Get(key(1))
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("overflow round trip failed (ok=%v err=%v, %d bytes)", ok, err, len(got))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	// Scan and cursor also resolve the chain.
	tr.Scan(func(k, v []byte) bool {
		if !bytes.Equal(v, big) {
			t.Fatal("scan returned truncated overflow value")
		}
		return true
	})
	c := tr.NewCursor()
	if ok, _ := c.First(); !ok {
		t.Fatal("cursor lost the record")
	}
	if v, _ := c.Value(); !bytes.Equal(v, big) {
		t.Fatal("cursor returned truncated overflow value")
	}
}

func TestOverflowReplaceFreesChain(t *testing.T) {
	tr, s := newTree(t, 0)
	big := bytes.Repeat([]byte{7}, 30000)
	if err := tr.Put(key(1), big); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(key(1), []byte("small now")); err != nil {
		t.Fatal(err)
	}
	if len(s.freed) == 0 {
		t.Fatal("replacing an overflowing value freed no pages")
	}
	got, _, _ := tr.Get(key(1))
	if !bytes.Equal(got, []byte("small now")) {
		t.Fatalf("replacement value = %q", got)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOverflowDeleteFreesChain(t *testing.T) {
	tr, s := newTree(t, 0)
	big := bytes.Repeat([]byte{9}, 25000)
	tr.Put(key(1), big)
	freedBefore := len(s.freed)
	ok, err := tr.Delete(key(1))
	if err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	want := (25000 - 900) / 4092 // roughly: all chain pages
	if got := len(s.freed) - freedBefore; got < want {
		t.Fatalf("delete freed %d pages, want >= %d", got, want)
	}
	if n, _ := tr.Count(); n != 0 {
		t.Fatalf("Count = %d", n)
	}
}

func TestOverflowManyRecords(t *testing.T) {
	tr, _ := newTree(t, ReservedTail)
	mk := func(i int) []byte {
		return bytes.Repeat([]byte{byte(i)}, 1500+i*137%9000)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), mk(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, ok, err := tr.Get(key(i))
		if err != nil || !ok || !bytes.Equal(got, mk(i)) {
			t.Fatalf("record %d mismatch (ok=%v err=%v)", i, ok, err)
		}
	}
	// Mixed deletes keep everything consistent.
	for i := 0; i < n; i += 3 {
		if ok, err := tr.Delete(key(i)); err != nil || !ok {
			t.Fatalf("Delete %d: (%v,%v)", i, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestManyInsertsSplitAndStaySorted(t *testing.T) {
	tr, _ := newTree(t, 0)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if cnt, _ := tr.Count(); cnt != n {
		t.Fatalf("Count = %d, want %d", cnt, n)
	}
	d, _ := tr.Depth()
	if d < 1 {
		t.Fatalf("tree did not split: depth %d", d)
	}
	for i := 0; i < n; i++ {
		v, ok, err := tr.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get %d after splits = (%v,%v)", i, ok, err)
		}
	}
	// Scan yields ascending order.
	var prev []byte
	tr.Scan(func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan order violation: %q then %q", prev, k)
		}
		prev = k
		return true
	})
}

func TestReverseOrderInserts(t *testing.T) {
	tr, _ := newTree(t, 0)
	const n = 1500
	for i := n - 1; i >= 0; i-- {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if cnt, _ := tr.Count(); cnt != n {
		t.Fatalf("Count = %d", cnt)
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 500; i++ {
		tr.Put(key(i), val(i))
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tr.Delete(key(i))
		if err != nil || !ok {
			t.Fatalf("Delete %d = (%v,%v)", i, ok, err)
		}
	}
	if ok, _ := tr.Delete(key(0)); ok {
		t.Fatal("double delete reported success")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		_, ok, _ := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get %d present=%v, want %v", i, ok, want)
		}
	}
	if n, _ := tr.Count(); n != 250 {
		t.Fatalf("Count = %d, want 250", n)
	}
}

func TestDeleteReclaimsPages(t *testing.T) {
	tr, s := newTree(t, ReservedTail)
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	pagesFull := len(s.pages)
	if d, _ := tr.Depth(); d < 1 {
		t.Fatal("tree never split")
	}
	for i := 0; i < n; i++ {
		if ok, err := tr.Delete(key(i)); err != nil || !ok {
			t.Fatalf("Delete %d: (%v,%v)", i, ok, err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if cnt, _ := tr.Count(); cnt != 0 {
		t.Fatalf("Count = %d", cnt)
	}
	// Everything but the root came back.
	if len(s.pages) != 1 {
		t.Fatalf("%d pages remain after deleting all records, want 1 (root)", len(s.pages))
	}
	if d, _ := tr.Depth(); d != 0 {
		t.Fatalf("tree did not shrink: depth %d", d)
	}
	if len(s.freed) < pagesFull-1 {
		t.Fatalf("freed %d of %d pages", len(s.freed), pagesFull-1)
	}
	// The tree remains fully usable.
	for i := 0; i < 500; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteReverseOrderReclaims(t *testing.T) {
	tr, s := newTree(t, 0)
	const n = 1200
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	for i := n - 1; i >= 0; i-- {
		if ok, err := tr.Delete(key(i)); err != nil || !ok {
			t.Fatalf("Delete %d: (%v,%v)", i, ok, err)
		}
		if i%200 == 0 {
			if err := tr.Check(); err != nil {
				t.Fatalf("at %d: %v", i, err)
			}
		}
	}
	if len(s.pages) != 1 {
		t.Fatalf("%d pages remain", len(s.pages))
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := newTree(t, 0)
	tr.Put(key(1), vals("old"))
	ok, err := tr.Update(key(1), vals("new"))
	if err != nil || !ok {
		t.Fatalf("Update = (%v,%v)", ok, err)
	}
	v, _, _ := tr.Get(key(1))
	if !bytes.Equal(v, vals("new")) {
		t.Fatalf("value = %q", v)
	}
	ok, err = tr.Update(key(99), vals("x"))
	if err != nil || ok {
		t.Fatalf("Update of absent key = (%v,%v), want (false,nil)", ok, err)
	}
}

// TestUpdateOfMissingKeyTouchesNothing: Update looks the key up before
// it builds anything, so a missing key returns (false, nil) whatever the
// value — one over MaxValueSize, which encoding would refuse, or one
// that would spill to an overflow chain, which encoding would allocate —
// and the store sees no Allocate and no MarkDirty.
func TestUpdateOfMissingKeyTouchesNothing(t *testing.T) {
	tr, s := newTree(t, 0)
	for i := 0; i < 400; i += 2 {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d, _ := tr.Depth(); d < 1 {
		t.Fatal("the tree has no interior page")
	}
	dirtied := func() (n int) {
		for _, c := range s.dirtied {
			n += c
		}
		return n
	}
	next, marks := s.next, dirtied()
	for _, v := range [][]byte{make([]byte, MaxValueSize+1), make([]byte, 9000)} {
		for _, k := range [][]byte{key(-1), key(201), key(999)} {
			if ok, err := tr.Update(k, v); ok || err != nil {
				t.Fatalf("Update(%q, %d bytes) of a missing key = (%v, %v), want (false, nil)", k, len(v), ok, err)
			}
		}
	}
	if s.next != next || dirtied() != marks {
		t.Fatalf("updates of missing keys allocated %d pages and dirtied %d", s.next-next, dirtied()-marks)
	}
	if ok, err := tr.Update(key(200), make([]byte, MaxValueSize+1)); ok || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Update of a present key with an over-size value = (%v, %v), want ErrTooLarge", ok, err)
	}
	big := bytes.Repeat([]byte{'o'}, 9000)
	if ok, err := tr.Update(key(200), big); !ok || err != nil {
		t.Fatalf("Update of a present key with an overflow value = (%v, %v)", ok, err)
	}
	if got, _, _ := tr.Get(key(200)); !bytes.Equal(got, big) {
		t.Fatal("the overflow update did not take")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 100; i++ {
		tr.Put(key(i), val(i))
	}
	seen := 0
	tr.Scan(func(_, _ []byte) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("scan visited %d records, want 10", seen)
	}
}

func TestReservedTailNeverUsed(t *testing.T) {
	tr, s := newTree(t, ReservedTail)
	for i := 0; i < 1000; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	for pgno, buf := range s.pages {
		tail := buf[len(buf)-ReservedTail:]
		if !bytes.Equal(tail, make([]byte, ReservedTail)) {
			t.Fatalf("page %d used its reserved tail: %x", pgno, tail)
		}
	}
}

func TestEarlySplitSplitsEarlier(t *testing.T) {
	// With a reserved tail the usable area is smaller, so the first
	// split must happen at or before the stock fill count.
	fill := func(reserved int) int {
		tr, _ := newTree(t, reserved)
		i := 0
		for {
			tr.Put(key(i), val(i))
			if d, _ := tr.Depth(); d > 0 {
				return i
			}
			i++
		}
	}
	if early, stock := fill(ReservedTail), fill(0); early > stock {
		t.Fatalf("early-split variant split later (%d) than stock (%d)", early, stock)
	}
}

func TestMarkDirtyPrecedesMutation(t *testing.T) {
	tr, s := newTree(t, 0)
	base := len(s.dirtied)
	tr.Put(key(1), val(1))
	if len(s.dirtied) <= base-1 {
		t.Fatal("Put did not mark any page dirty")
	}
}

func TestRootPageNumberStable(t *testing.T) {
	tr, _ := newTree(t, 0)
	root := tr.Root()
	const n = 12000 // enough to force a depth-2 tree (interior fanout ~200)
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	if tr.Root() != root {
		t.Fatalf("root moved from %d to %d", root, tr.Root())
	}
	d, _ := tr.Depth()
	if d < 2 {
		t.Fatalf("expected depth >= 2 after %d inserts, got %d", n, d)
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertAppendsNearContentStart(t *testing.T) {
	// §5.2: inserts append the new cell to the end of the used region,
	// keeping the insert-dirty region localized. Verify a fresh insert
	// lands adjacent to the previous content start.
	tr, s := newTree(t, 0)
	tr.Put(key(1), val(1))
	rootBuf := s.pages[tr.Root()]
	p := &page{no: tr.Root(), buf: rootBuf, usable: 4096}
	before := p.contentStart()
	tr.Put(key(2), val(2))
	after := p.contentStart()
	if want := before - leafCellSize(key(2), val(2)); after != want {
		t.Fatalf("contentStart after insert = %d, want %d", after, want)
	}
}

// Property: the tree matches a model map under random operation
// sequences, with invariants intact throughout.
func TestPropertyTreeMatchesModelMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, s := newTree(t, ReservedTail)
		model := make(map[string]string)
		keys := func() []string {
			ks := make([]string, 0, len(model))
			for k := range model {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			return ks
		}
		for op := 0; op < 800; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4, 5: // insert/replace
				k := fmt.Sprintf("k%06d", rng.Intn(400))
				v := fmt.Sprintf("v%08d-%d", rng.Intn(1_000_000), op)
				if err := tr.Put([]byte(k), []byte(v)); err != nil {
					return false
				}
				model[k] = v
			case 6, 7: // delete
				k := fmt.Sprintf("k%06d", rng.Intn(400))
				ok, err := tr.Delete([]byte(k))
				if err != nil {
					return false
				}
				_, inModel := model[k]
				if ok != inModel {
					return false
				}
				delete(model, k)
			case 8: // point lookup
				k := fmt.Sprintf("k%06d", rng.Intn(400))
				v, ok, err := tr.Get([]byte(k))
				if err != nil {
					return false
				}
				mv, inModel := model[k]
				if ok != inModel || (ok && string(v) != mv) {
					return false
				}
			case 9: // full scan comparison
				ks := keys()
				i := 0
				good := true
				tr.Scan(func(k, v []byte) bool {
					if i >= len(ks) || string(k) != ks[i] || string(v) != model[ks[i]] {
						good = false
						return false
					}
					i++
					return true
				})
				if !good || i != len(ks) {
					return false
				}
			}
			if err := s.checkOwnership(); err != nil {
				t.Errorf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		return tr.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: page accounting survives adversarial same-page churn
// (replace + delete of equal and differing sizes).
func TestPropertyPageCompaction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, s := newTree(t, 0)
		live := map[int]bool{}
		for op := 0; op < 300; op++ {
			i := rng.Intn(20) // few keys, heavy churn within one page
			if rng.Intn(3) == 0 && live[i] {
				if ok, err := tr.Delete(key(i)); err != nil || !ok {
					return false
				}
				delete(live, i)
			} else {
				v := make([]byte, 20+rng.Intn(200))
				if err := tr.Put(key(i), v); err != nil {
					return false
				}
				live[i] = true
			}
			if tr.Check() != nil {
				return false
			}
			if err := s.checkOwnership(); err != nil {
				t.Errorf("seed %d op %d: %v", seed, op, err)
				return false
			}
		}
		n, _ := tr.Count()
		return n == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipAcrossSplitsOverflowAndShrink runs the paths the property
// tests reach rarely — overflow chains built and freed, interior splits,
// emptied leaves unlinked, the root collapsing back to a leaf — with the
// ownership check after every operation.
func TestOwnershipAcrossSplitsOverflowAndShrink(t *testing.T) {
	tr, s := newTree(t, ReservedTail)
	value := func(i int) []byte {
		if i%50 == 0 {
			return bytes.Repeat([]byte{byte(i)}, 9000) // an overflow chain
		}
		return val(i)
	}
	step := func(what string, i int, err error) {
		t.Helper()
		if err == nil {
			err = s.checkOwnership()
		}
		if err != nil {
			t.Fatalf("%s %d: %v", what, i, err)
		}
	}
	const n = 4000
	for i := 0; i < n; i++ {
		step("put", i, tr.Put(key(i), value(i)))
	}
	if d, _ := tr.Depth(); d < 2 {
		t.Fatalf("depth %d: no interior split exercised", d)
	}
	for i := 0; i < n; i += 3 {
		_, err := tr.Update(key(i), value(i+1))
		step("update", i, err)
	}
	for i := 0; i < n; i++ {
		_, err := tr.Delete(key(i))
		step("delete", i, err)
	}
	if d, _ := tr.Depth(); d != 0 || len(s.pages) != 1 {
		t.Fatalf("after deleting everything: depth %d, %d pages", d, len(s.pages))
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnershipGuardCatchesWriteThroughGet shows the guard the tests above
// rely on fails on a write to an image Get handed out read-only.
func TestOwnershipGuardCatchesWriteThroughGet(t *testing.T) {
	tr, s := newTree(t, 0)
	if err := tr.Put(key(1), val(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.checkOwnership(); err != nil {
		t.Fatal(err)
	}
	img, err := s.Get(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1]++
	if err := s.checkOwnership(); err == nil {
		t.Fatal("a write through a Get image went unnoticed")
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestUpdateThatCompactsAllocatesNothing pins the edit scratch: replacing
// a record deletes its cell (compacting the page) and inserts the new one,
// and with the page already the transaction's own copy that costs no heap
// allocation at all — no span list, no content copy, no encoded cell.
func TestUpdateThatCompactsAllocatesNothing(t *testing.T) {
	tr, s := newTree(t, 0)
	for i := 0; i < 20; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]byte(nil), s.pages[tr.Root()]...)
	k, short, long := key(7), vals("short"), bytes.Repeat([]byte{'L'}, 150)
	n := 0
	update := func() {
		v := short
		if n++; n%2 == 0 {
			v = long
		}
		if ok, err := tr.Update(k, v); err != nil || !ok {
			t.Fatalf("Update = (%v, %v)", ok, err)
		}
	}
	update() // grow the scratch once
	// The race detector makes sync.Pool drop a share of what is put back,
	// so only a plain build can count the pooled scratch's allocations.
	if avg := testing.AllocsPerRun(200, update); avg != 0 && !raceEnabled {
		t.Fatalf("an Update that compacts allocates %.2f times, want 0", avg)
	}
	if d, _ := tr.Depth(); d != 0 {
		t.Fatal("the updates split the page")
	}
	if bytes.Equal(before, s.pages[tr.Root()]) {
		t.Fatal("the updates did not change the page")
	}
	if got, _, _ := tr.Get(k); !bytes.Equal(got, long) && !bytes.Equal(got, short) {
		t.Fatalf("value = %q", got)
	}
}

func BenchmarkPutSequential(b *testing.B) {
	tr, _ := newTree(b, ReservedTail)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	tr, _ := newTree(b, ReservedTail)
	for i := 0; i < 10000; i++ {
		tr.Put(key(i), val(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 10000))
	}
}

// AppendGet appends the value behind what dst holds. A dst without room
// is replaced once, by exactly the room the value needs, however many
// overflow pages it spans; a dst with room is filled in place; a nil dst
// gets a copy of the value's size, a 0-byte value included. A missing key
// and a read that fails partway along the overflow chain hand dst back as
// passed.
func TestAppendGet(t *testing.T) {
	tr, s := newTree(t, ReservedTail)
	big := make([]byte, 10000)
	for i := range big {
		big[i] = byte(i * 13)
	}
	for k, v := range map[int][]byte{1: big, 2: {}, 3: vals("leaf")} {
		if err := tr.Put(key(k), v); err != nil {
			t.Fatal(err)
		}
	}
	prefix := vals("hdr:")
	for k, want := range map[int][]byte{1: big, 2: {}, 3: vals("leaf")} {
		got, ok, err := tr.AppendGet(bytes.Clone(prefix), key(k))
		if err != nil || !ok || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("AppendGet %d = %d B ok=%v err=%v", k, len(got), ok, err)
		}
		if got, ok, err := tr.Get(key(k)); err != nil || !ok || got == nil || cap(got) != len(want) {
			t.Fatalf("Get %d = cap %d ok=%v err=%v, want a copy of %d B", k, cap(got), ok, err, len(want))
		}
	}
	k1 := key(1)
	short := append(make([]byte, 0, len(prefix)), prefix...)
	if n := testing.AllocsPerRun(50, func() {
		if got, _, _ := tr.AppendGet(short, k1); cap(got) != len(prefix)+len(big) {
			t.Fatalf("grown to cap %d, want %d", cap(got), len(prefix)+len(big))
		}
	}); n != 1 {
		t.Fatalf("AppendGet of a %d B value into a full dst allocates %v times, want 1", len(big), n)
	}
	roomy := append(make([]byte, 0, len(prefix)+len(big)), prefix...)
	if n := testing.AllocsPerRun(50, func() { _, _, _ = tr.AppendGet(roomy, k1) }); n != 0 {
		t.Fatalf("AppendGet into a dst with room allocates %v times, want 0", n)
	}

	if got, ok, err := tr.AppendGet(roomy, key(4)); ok || err != nil || len(got) != len(prefix) || &got[0] != &roomy[0] {
		t.Fatalf("AppendGet of a missing key = %d B ok=%v err=%v, want dst as passed", len(got), ok, err)
	}
	// Break the chain at its last page: the local part and the first
	// pages are appended before the read fails.
	delete(s.pages, s.next-1)
	got, ok, err := tr.AppendGet(roomy, key(1))
	if err == nil || ok || len(got) != len(prefix) || !bytes.Equal(got, prefix) {
		t.Fatalf("AppendGet over a broken chain = %d B ok=%v err=%v, want dst as passed and an error", len(got), ok, err)
	}
}
