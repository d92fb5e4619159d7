package core

import (
	"bytes"
	"slices"
	"testing"
)

// diffExtentsBytewise is the byte-at-a-time kernel diffExtentsInto
// replaced, kept as the reference the word-wise one is held to.
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

// FuzzDiffExtents holds the word-wise kernel to the byte-wise reference
// for every gapMerge up to two cache lines (and "merge everything"),
// and checks that the extents carry old to new.
func FuzzDiffExtents(f *testing.F) {
	// The page-sized seeds live in testdata/fuzz/FuzzDiffExtents.
	f.Add([]byte("abcdefgh12345678"), []byte("abcdefgX12345678")) // last byte of a word
	f.Add([]byte("abcdefgh12345678"), []byte("abcdefghX2345678")) // first byte of the next
	f.Add([]byte("0123456789a"), []byte("0123456789b"))           // in the sub-word tail
	f.Add([]byte{}, []byte{})
	// Dirty runs the word-wise run scan must end exactly: inside a word,
	// at a word boundary, across one, and at the image's end.
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abXYZfgh12345678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcXYZWV12345678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcdeXYZWVUT5678abcdefgh"))
	f.Add([]byte("abcdefgh12345678abcdefgh"), []byte("abcdefgh12345678abcdeXYZ"))
	// Byte deltas of 0x01 and 0x80, the values a zero-byte test trips on,
	// next to clean bytes and to each other.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1})
	f.Add([]byte{0x7F, 0x80, 1, 0, 0xFF, 0, 0, 0, 0x80, 0x80}, []byte{0xFF, 0, 0, 0, 0x7F, 0, 1, 0, 0, 0x81})
	f.Add(bytes.Repeat([]byte{0x80}, 40), append(bytes.Repeat([]byte{0x00}, 20), bytes.Repeat([]byte{0x80}, 20)...))
	f.Add(bytes.Repeat([]byte{0x01}, 40), append(bytes.Repeat([]byte{0x00}, 17), bytes.Repeat([]byte{0x01}, 23)...))
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
				t.Fatalf("gapMerge %d: word-wise %v, byte-wise %v", gap, scratch, want)
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

// BenchmarkDiffExtents is the differential-logging kernel on the
// paper's common case: a 4 KiB B-tree page with one 100-byte record
// changed.
func BenchmarkDiffExtents(b *testing.B) {
	old := make([]byte, 4096)
	for i := range old {
		old[i] = byte(i * 7)
	}
	new := bytes.Clone(old)
	for i := 1000; i < 1100; i++ {
		new[i] ^= 0xff
	}
	var out []Extent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = diffExtentsInto(out, old, new, 64)
	}
	if len(out) != 1 || out[0] != (Extent{Off: 1000, Len: 100}) {
		b.Fatalf("extents = %v", out)
	}
}
