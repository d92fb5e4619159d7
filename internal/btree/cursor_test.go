package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCursorEmptyTree(t *testing.T) {
	tr, _ := newTree(t, 0)
	c := tr.NewCursor()
	ok, err := c.First()
	if err != nil || ok {
		t.Fatalf("First on empty tree = (%v,%v)", ok, err)
	}
	if c.Valid() {
		t.Fatal("cursor valid on empty tree")
	}
}

func TestCursorFullIteration(t *testing.T) {
	tr, _ := newTree(t, 0)
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(key(i), val(i))
	}
	c := tr.NewCursor()
	ok, err := c.First()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for ok {
		k, v, err := c.Record()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(k, key(count)) || !bytes.Equal(v, val(count)) {
			t.Fatalf("record %d = %q", count, k)
		}
		count++
		ok, err = c.Next()
		if err != nil {
			t.Fatal(err)
		}
	}
	if count != n {
		t.Fatalf("iterated %d records, want %d", count, n)
	}
}

func TestCursorSeek(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 100; i += 2 { // even keys only
		tr.Put(key(i), val(i))
	}
	c := tr.NewCursor()
	// Exact hit.
	ok, err := c.Seek(key(42))
	if err != nil || !ok {
		t.Fatalf("Seek(42) = (%v,%v)", ok, err)
	}
	if k, _ := c.Key(); !bytes.Equal(k, key(42)) {
		t.Fatalf("Seek(42) landed on %q", k)
	}
	// Between keys: lands on the next even key.
	ok, _ = c.Seek(key(43))
	if k, _ := c.Key(); !ok || !bytes.Equal(k, key(44)) {
		t.Fatalf("Seek(43) landed on %q", k)
	}
	// Past the end.
	ok, err = c.Seek(key(99))
	if err != nil || ok {
		t.Fatalf("Seek past end = (%v,%v)", ok, err)
	}
}

func TestCursorSkipsEmptyLeaves(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 400; i++ {
		tr.Put(key(i), val(i))
	}
	// Empty out a middle range, leaving hollow leaves in place.
	for i := 100; i < 300; i++ {
		tr.Delete(key(i))
	}
	c := tr.NewCursor()
	ok, err := c.Seek(key(100))
	if err != nil || !ok {
		t.Fatalf("Seek into hole = (%v,%v)", ok, err)
	}
	if k, _ := c.Key(); !bytes.Equal(k, key(300)) {
		t.Fatalf("Seek into hole landed on %q, want key 300", k)
	}
	// Full iteration sees exactly the live records.
	count := 0
	for ok, _ = c.First(); ok; ok, _ = c.Next() {
		count++
	}
	if count != 200 {
		t.Fatalf("iterated %d, want 200", count)
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 50; i++ {
		tr.Put(key(i), val(i))
	}
	var got []string
	err := tr.ScanRange(key(10), key(15), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != string(key(10)) || got[4] != string(key(14)) {
		t.Fatalf("range = %v", got)
	}
	// Open-ended range.
	n := 0
	tr.ScanRange(key(45), nil, func(_, _ []byte) bool { n++; return true })
	if n != 5 {
		t.Fatalf("open range visited %d", n)
	}
	// Early stop.
	n = 0
	tr.ScanRange(key(0), nil, func(_, _ []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestScanPrefix(t *testing.T) {
	tr, _ := newTree(t, 0)
	for _, k := range []string{"a/1", "a/2", "a/3", "b/1", "ab", "a"} {
		tr.Put([]byte(k), []byte("v"))
	}
	var got []string
	tr.ScanPrefix([]byte("a/"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	want := []string{"a/1", "a/2", "a/3"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan = %v", got)
		}
	}
}

func TestPrefixEnd(t *testing.T) {
	if got := prefixEnd([]byte("ab")); !bytes.Equal(got, []byte("ac")) {
		t.Fatalf("prefixEnd(ab) = %q", got)
	}
	if got := prefixEnd([]byte{0x61, 0xFF}); !bytes.Equal(got, []byte{0x62}) {
		t.Fatalf("prefixEnd(a\\xff) = %x", got)
	}
	if got := prefixEnd([]byte{0xFF, 0xFF}); got != nil {
		t.Fatalf("prefixEnd(\\xff\\xff) = %x, want nil", got)
	}
}

func TestCursorReadUnpositionedPanics(t *testing.T) {
	tr, _ := newTree(t, 0)
	c := tr.NewCursor()
	defer func() {
		if recover() == nil {
			t.Fatal("reading unpositioned cursor did not panic")
		}
	}()
	c.Key()
}

// Property: cursor iteration equals sorted model-map iteration after
// arbitrary mutations, for both First and arbitrary Seeks.
func TestPropertyCursorMatchesSortedModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, _ := newTree(t, ReservedTail)
		model := map[string]string{}
		for op := 0; op < 500; op++ {
			k := fmt.Sprintf("k%05d", rng.Intn(300))
			if rng.Intn(4) == 0 {
				tr.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", op)
				if tr.Put([]byte(k), []byte(v)) != nil {
					return false
				}
				model[k] = v
			}
		}
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		// Full iteration.
		c := tr.NewCursor()
		i := 0
		ok, err := c.First()
		for ; ok && err == nil; ok, err = c.Next() {
			k, v, e := c.Record()
			if e != nil || i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				return false
			}
			i++
		}
		if err != nil || i != len(keys) {
			return false
		}

		// Random seeks.
		for trial := 0; trial < 20; trial++ {
			target := fmt.Sprintf("k%05d", rng.Intn(320))
			want := sort.SearchStrings(keys, target)
			ok, err := c.Seek([]byte(target))
			if err != nil {
				return false
			}
			if want == len(keys) {
				if ok {
					return false
				}
				continue
			}
			k, _ := c.Key()
			if !ok || string(k) != keys[want] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScanViewsMatchModel pins the view contract of the one
// walker: over random trees holding overflow values, with leaves emptied
// by range deletes, ScanRange on random [start, end) bounds, Scan and
// Count equal a sorted reference map, every key and value fn sees is
// checked byte for byte while fn runs, and the CRC-guarded store proves
// no view became a write.
func TestPropertyScanViewsMatchModel(t *testing.T) {
	const keySpace = 1500
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, s := newTree(t, ReservedTail)
		model := map[string][]byte{}
		keyOf := func(i int) string { return fmt.Sprintf("k%05d", i) }
		value := func() []byte {
			n := 1 + rng.Intn(150)
			if rng.Intn(12) == 0 {
				n = 3000 + rng.Intn(12000) // an overflow chain of one to four pages
			}
			v := make([]byte, n)
			rng.Read(v)
			return v
		}
		// bound is a random scan bound: nil, a present key or a key between.
		bound := func() []byte {
			if rng.Intn(5) == 0 {
				return nil
			}
			k := keyOf(rng.Intn(keySpace + 20))
			if rng.Intn(2) == 0 {
				k += "+"
			}
			return []byte(k)
		}
		for round := 0; round < 5; round++ {
			for i := 0; i < 400; i++ {
				k, v := keyOf(rng.Intn(keySpace)), value()
				if err := tr.Put([]byte(k), v); err != nil {
					t.Fatal(err)
				}
				model[k] = v
			}
			// A contiguous run of deletes empties whole leaves.
			lo := rng.Intn(keySpace)
			for i := lo; i < lo+50+rng.Intn(300); i++ {
				if _, err := tr.Delete([]byte(keyOf(i))); err != nil {
					t.Fatal(err)
				}
				delete(model, keyOf(i))
			}
			if err := s.checkOwnership(); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			sort.Strings(keys)

			// scan runs one walk and checks it against keys[from:to],
			// stopping after limit records (-1: no limit).
			scan := func(what string, walk func(fn func(k, v []byte) bool) error, from, to, limit int) {
				t.Helper()
				i := from
				err := walk(func(k, v []byte) bool {
					if i >= to {
						t.Fatalf("seed %d round %d %s: record %q past the range", seed, round, what, k)
					}
					if string(k) != keys[i] || !bytes.Equal(v, model[keys[i]]) {
						t.Fatalf("seed %d round %d %s: record %d = %q (%d bytes), want %q (%d bytes)",
							seed, round, what, i, k, len(v), keys[i], len(model[keys[i]]))
					}
					i++
					return limit < 0 || i-from < limit
				})
				if err != nil {
					t.Fatalf("seed %d round %d %s: %v", seed, round, what, err)
				}
				if want := to; limit >= 0 && from+limit < to {
					want = from + limit
					if i != want {
						t.Fatalf("seed %d round %d %s: stopped after %d records, want %d", seed, round, what, i-from, limit)
					}
				} else if i != want {
					t.Fatalf("seed %d round %d %s: visited %d records, want %d", seed, round, what, i-from, want-from)
				}
			}
			scan("Scan", tr.Scan, 0, len(keys), -1)
			for trial := 0; trial < 20; trial++ {
				start, end := bound(), bound()
				from := sort.SearchStrings(keys, string(start))
				to := len(keys)
				if end != nil {
					to = max(from, sort.SearchStrings(keys, string(end)))
				}
				limit := -1
				if trial%4 == 3 {
					limit = 1 + rng.Intn(30)
				}
				what := fmt.Sprintf("ScanRange(%q, %q) limit %d", start, end, limit)
				scan(what, func(fn func(k, v []byte) bool) error { return tr.ScanRange(start, end, fn) }, from, to, limit)
			}
			if n, err := tr.Count(); err != nil || n != len(keys) {
				t.Fatalf("seed %d round %d: Count = %d, %v, want %d", seed, round, n, err, len(keys))
			}
			if err := s.checkOwnership(); err != nil {
				t.Fatalf("seed %d round %d: a scan wrote a page: %v", seed, round, err)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanAllocatesNothing: a warm walk over local values hands out
// views of the leaf images and costs no heap object — not per record,
// not for the cursor — and a value on an overflow chain costs one
// buffer per scan, not one per record.
func TestScanAllocatesNothing(t *testing.T) {
	tr, _ := newTree(t, 0)
	for i := 0; i < 400; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d, _ := tr.Depth(); d < 1 {
		t.Fatal("the tree has no interior level")
	}
	n, start := 0, key(100)
	visit := func(_, _ []byte) bool { n++; return n%20 != 0 }
	tr.ScanRange(start, nil, visit)
	if a := testing.AllocsPerRun(100, func() { tr.ScanRange(start, nil, visit) }); a != 0 {
		t.Fatalf("a 20-record ScanRange allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { tr.Count() }); a != 0 {
		t.Fatalf("Count allocates %v times, want 0", a)
	}

	for i := 0; i < 400; i += 40 {
		if err := tr.Put(key(i), bytes.Repeat([]byte{byte(i)}, 9000)); err != nil {
			t.Fatal(err)
		}
	}
	all := func(_, _ []byte) bool { return true }
	if a := testing.AllocsPerRun(20, func() { tr.Scan(all) }); a != 1 {
		t.Fatalf("a scan over ten overflow values allocates %v times, want its one buffer", a)
	}
}

// TestCursorRefusesPageCycle: a corrupt tree whose interior page points
// back at itself ends a walk with an error instead of descending forever.
func TestCursorRefusesPageCycle(t *testing.T) {
	tr, s := newTree(t, 0)
	for i := 0; i < 400; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	root := page{no: tr.Root(), buf: s.pages[tr.Root()], usable: tr.usable()}
	if root.isLeaf() {
		t.Fatal("the root is a leaf")
	}
	root.setInteriorChild(0, root.no)
	if _, err := tr.Count(); !errors.Is(err, errTooDeep) {
		t.Fatalf("Count over a page cycle = %v, want errTooDeep", err)
	}
	if ok, err := tr.NewCursor().First(); ok || !errors.Is(err, errTooDeep) {
		t.Fatalf("First over a page cycle = (%v, %v), want errTooDeep", ok, err)
	}
}
