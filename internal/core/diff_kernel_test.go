package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/btree"
	"repro/internal/memsim"
)

// diffExtentsBytewise is the byte-at-a-time kernel diffExtentsInto
// replaced, kept as the reference the block kernel is held to.
func diffExtentsBytewise(old, new []byte, gapMerge int) []Extent {
	var out []Extent
	i := 0
	for i < len(new) {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		for i < len(new) && old[i] != new[i] {
			i++
		}
		if n := len(out); n > 0 && start-(out[n-1].Off+out[n-1].Len) < gapMerge {
			out[n-1].Len = i - out[n-1].Off
		} else {
			out = append(out, Extent{Off: start, Len: i - start})
		}
	}
	return out
}

// FuzzDiffExtents holds the block kernel to the byte-wise reference
// for every gapMerge up to two cache lines (and "merge everything"),
// and checks that the extents carry old to new.
func FuzzDiffExtents(f *testing.F) {
	// The page-sized seeds live in testdata/fuzz/FuzzDiffExtents.
	f.Add([]byte("abcdefgh12345678"), []byte("abcdefgX12345678")) // last byte of a word
	f.Add([]byte("abcdefgh12345678"), []byte("abcdefghX2345678")) // first byte of the next
	f.Add([]byte("0123456789a"), []byte("0123456789b"))           // in the sub-word tail
	f.Add([]byte{}, []byte{})
	// Dirty runs that must end exactly: inside a word, at a word
	// boundary, across one, and at the image's end.
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abXYZfgh12345678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcXYZWV12345678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcdeXYZWVUT5678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcdefgh12345678abcdeXYZ"))
	// Byte deltas of 0x01 and 0x80, a byte's lowest and highest bit,
	// next to clean bytes and to each other.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1})
	f.Add([]byte{0x7F, 0x80, 1, 0, 0xFF, 0, 0, 0, 0x80, 0x80}, []byte{0xFF, 0, 0, 0, 0x7F, 0, 1, 0, 0, 0x81})
	f.Add(bytes.Repeat([]byte{0x80}, 40), append(bytes.Repeat([]byte{0x00}, 20), bytes.Repeat([]byte{0x80}, 20)...))
	f.Add(bytes.Repeat([]byte{0x01}, 40), append(bytes.Repeat([]byte{0x00}, 17), bytes.Repeat([]byte{0x01}, 23)...))
	// Block edges of the 32-byte kernel: a pattern image of length n with
	// the bytes at dirty flipped.
	edge := func(n int, dirty ...int) {
		old := make([]byte, n)
		for i := range old {
			old[i] = byte(i * 7)
		}
		new := bytes.Clone(old)
		for _, o := range dirty {
			new[o] ^= 0xFF
		}
		f.Add(old, new)
	}
	// The last byte of a block, the first of the next, the last of that.
	edge(64, 31)
	edge(64, 32)
	edge(64, 63)
	edge(64, 31, 32, 63)
	// Clean gaps of gapMerge-1, gapMerge and gapMerge+1 at both line
	// sizes, each straddling a block boundary.
	for _, g := range []int{31, 32, 33, 63, 64, 65} {
		edge(160, 20, 20+g+1)
	}
	// Either side of the first 256-byte span boundary, where a clean span
	// is skipped whole, and past the last whole span.
	edge(512, 255)
	edge(512, 256)
	edge(300, 290)
	// Lengths that are not a multiple of the block, dirty in the last
	// whole block and in the tail.
	edge(33, 31, 32)
	edge(63, 0, 62)
	edge(65, 10, 64)
	edge(100, 95, 99)
	f.Fuzz(func(t *testing.T, old, new []byte) {
		n := min(len(old), len(new))
		old, new = old[:n], new[:n]
		var scratch []Extent
		for g := 0; g <= 130; g++ {
			gap := g
			if g == 130 {
				gap = n + 1 // merge everything
			}
			want := diffExtentsBytewise(old, new, gap)
			scratch = diffExtentsInto(scratch, old, new, gap)
			if !slices.Equal(scratch, want) {
				t.Fatalf("gapMerge %d: block kernel %v, byte-wise %v", gap, scratch, want)
			}
			got := bytes.Clone(old)
			for _, e := range scratch {
				applyExtent(got, e.Off, new[e.Off:e.Off+e.Len])
			}
			if !bytes.Equal(got, new) {
				t.Fatalf("gapMerge %d: applying %v to old does not give new", gap, scratch)
			}
		}
	})
}

// shapeStore is a minimal btree.PageStore that records, per step, the
// image each dirtied page had when the step began: the logged version
// §3.2 diffs the page's new image against. A page the step allocates
// starts from an all-zero image.
type shapeStore struct {
	pages map[uint32][]byte
	base  map[uint32][]byte // this step's pre-images, by page
	next  uint32
}

func newShapeStore() *shapeStore {
	return &shapeStore{pages: map[uint32][]byte{}, base: map[uint32][]byte{}}
}

func (s *shapeStore) PageSize() int { return 4096 }

func (s *shapeStore) Get(pgno uint32) ([]byte, error) {
	if p, ok := s.pages[pgno]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("shapeStore: no page %d", pgno)
}

func (s *shapeStore) Allocate() (uint32, []byte, error) {
	s.next++
	s.pages[s.next] = make([]byte, s.PageSize())
	s.base[s.next] = make([]byte, s.PageSize())
	return s.next, s.pages[s.next], nil
}

func (s *shapeStore) Free(pgno uint32) error {
	delete(s.pages, pgno)
	delete(s.base, pgno)
	return nil
}

func (s *shapeStore) MarkDirty(pgno uint32) []byte {
	if _, ok := s.base[pgno]; !ok {
		s.base[pgno] = s.pages[pgno]
		s.pages[pgno] = bytes.Clone(s.pages[pgno])
	}
	return s.pages[pgno]
}

// commit ends the step and returns the pre-images of its dirtied pages.
func (s *shapeStore) commit() map[uint32][]byte {
	base := s.base
	s.base = map[uint32][]byte{}
	return base
}

// pageShape is one dirty page as a commit diffs it: its logged version
// and its new image.
type pageShape struct {
	name     string
	old, new []byte
}

// pageShapes returns (base, new) page pairs of the shapes a B-tree
// commit hands the diff, built deterministically through btree with the
// workloads' record shape (an 11-byte key, a 100-byte value whose
// 12-byte header names key, version and length):
//
//   - one-record: one 100-byte record rewritten in place, the rest clean;
//   - compacting-update: a record of a key-ordered leaf rewritten, so
//     the cells past it shift by one cell and it moves to the bottom;
//   - delete: a record in the middle of a leaf dropped, the cells past
//     it shifting up by one cell;
//   - insert: a record added to a leaf with room, one cell and one
//     pointer shift;
//   - split-fresh: the new sibling a leaf split fills, against the
//     zero image it was allocated as.
func pageShapes(tb testing.TB) []pageShape {
	tb.Helper()
	key := func(i int) []byte { return fmt.Appendf(nil, "k%010d", i) }
	val := func(i, version int) []byte {
		v := make([]byte, 100)
		binary.LittleEndian.PutUint32(v[0:], uint32(i))
		binary.LittleEndian.PutUint32(v[4:], uint32(version))
		binary.LittleEndian.PutUint32(v[8:], uint32(len(v)))
		x := uint64(i)<<32 | uint64(version)<<1 | 1
		for j := 12; j < len(v); j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[j] = byte(x)
		}
		return v
	}
	s := newShapeStore()
	tr, err := btree.Create(s, btree.Config{Reserved: btree.ReservedTail})
	if err != nil {
		tb.Fatal(err)
	}
	// Even keys in a fixed shuffled order: leaves laid out of key order.
	for _, i := range rand.New(rand.NewSource(1)).Perm(600) {
		if err := tr.Put(key(2*i), val(2*i, 0)); err != nil {
			tb.Fatal(err)
		}
	}
	s.commit()
	var shapes []pageShape
	// pair runs op as one step and records the one page it dirtied as
	// shape name; an empty name records nothing.
	pair := func(name string, op func() error) {
		next := s.next
		if err := op(); err != nil {
			tb.Fatal(err)
		}
		base := s.commit()
		if name == "" {
			return
		}
		if len(base) != 1 || s.next != next {
			tb.Fatalf("%s dirtied %d pages, allocated %d: want one page, none allocated", name, len(base), s.next-next)
		}
		for pgno, img := range base {
			shapes = append(shapes, pageShape{name, img, s.pages[pgno]})
		}
	}
	// The first update of a leaf re-lays it in key order; the second,
	// two keys on, is the steady-state compacting update.
	pair("", func() error { return tr.Put(key(300), val(300, 1)) })
	pair("compacting-update", func() error { return tr.Put(key(304), val(304, 2)) })
	pair("delete", func() error { _, err := tr.Delete(key(320)); return err })
	pair("insert", func() error { return tr.Put(key(311), val(311, 0)) })
	// Odd keys into the same leaf until it splits.
	for i := 301; ; i += 2 {
		if i > 401 {
			tb.Fatal("no split after 50 inserts")
		}
		next := s.next
		if err := tr.Put(key(i), val(i, 0)); err != nil {
			tb.Fatal(err)
		}
		if base := s.commit(); s.next != next {
			shapes = append(shapes, pageShape{"split-fresh", base[s.next], s.pages[s.next]})
			break
		}
	}
	old := make([]byte, 4096)
	for i := range old {
		old[i] = byte(i * 7)
	}
	new := bytes.Clone(old)
	for i := 1000; i < 1100; i++ {
		new[i] ^= 0xff
	}
	return append(shapes, pageShape{"one-record", old, new})
}

// BenchmarkDiffExtents is the differential-logging kernel on the page
// shapes B-tree commits produce (pageShapes), at the default NVRAM line
// size. Each case first holds the kernel to the byte-wise reference at
// both line sizes, so a run of one iteration is a correctness check.
func BenchmarkDiffExtents(b *testing.B) {
	for _, sh := range pageShapes(b) {
		old, new := sh.old, sh.new
		b.Run(sh.name, func(b *testing.B) {
			var out []Extent
			for _, line := range []int{32, 64} {
				out = diffExtentsInto(out, old, new, line)
				if want := diffExtentsBytewise(old, new, line); !slices.Equal(out, want) {
					b.Fatalf("line %d: extents %v, byte-wise %v", line, out, want)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = diffExtentsInto(out, old, new, memsim.DefaultCacheLineSize)
			}
			if len(out) == 0 {
				b.Fatal("a dirty page shape gave no extents")
			}
		})
	}
}
