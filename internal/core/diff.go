// Package core implements NVWAL, the paper's contribution: SQLite
// write-ahead logging kept directly in byte-addressable NVRAM, with
//
//   - byte-granularity differential logging (§3.2): only the dirty
//     portions of a B-tree page are logged, each contiguous dirty extent
//     becoming one WAL frame of (page number, in-page offset, size,
//     payload);
//   - a transaction-aware memory persistency guarantee (§4.1): the
//     expensive cache_line_flush / dmb / persist-barrier sequence is
//     enforced only between the logging phase and the commit-mark write
//     (lazy synchronization), or per log entry (eager synchronization,
//     the baseline of Figures 5 and 6), or only for the commit mark with
//     checksums validating the rest (asynchronous commit, §4.2);
//   - user-level NVRAM heap management (§3.3): large NVRAM blocks are
//     pre-allocated from the kernel heap manager (Heapo) with the
//     pending/in-use tri-state protocol and WAL frames are sub-allocated
//     at user level, saving one kernel crossing per frame.
package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Extent is one contiguous dirty byte range within a page.
type Extent struct {
	Off int
	Len int
}

// diffExtents compares two equal-length page images and returns the
// dirty extents of new relative to old. Extents separated by a clean gap
// smaller than gapMerge are coalesced — flushing is cache-line
// granular, so logging two extents within one line saves nothing
// (§3.2's "truncate the preceding and trailing clean regions" applied
// per dirty region).
func diffExtents(old, new []byte, gapMerge int) []Extent {
	return diffExtentsInto(nil, old, new, gapMerge)
}

// diffBlock is the diff kernel's unit: four 8-byte words, one line at
// the default NVRAM cache line size.
const diffBlock = 32

// diffSpan is the stretch of eight blocks that one call of the runtime's
// vectorized compare settles when it is clean, which most of a page is.
const diffSpan = 256

// diffExtentsInto is diffExtents appending into out[:0], so a caller
// with a commit loop can reuse one backing array across transactions.
// It decides which bytes reach NVRAM, so it must find exactly the
// extents a byte-at-a-time comparison finds (FuzzDiffExtents holds it
// to that).
//
// It makes one pass over 32-byte blocks, XORing old and new a word at
// a time, and at each 256-byte span boundary first skips the span whole
// if bytes.Equal finds it clean. Of a dirty block only the first and
// last differing bytes matter whenever gapMerge > 30: two differing
// bytes of one block are at most 31 apart, so at most 30 clean bytes lie
// between them and every dirty run of the block merges with the next.
// The block is then one run, from its first differing byte to its last,
// and it extends the previous extent exactly when a byte-wise scan
// would: when its first byte lies less than gapMerge past that extent's
// end. The clean bytes a run happens to share with its old image are
// never looked at. With a smaller gapMerge (tests use 8) a dirty block's
// runs are walked byte by byte between its first and last differing
// byte, as is the tail of an image whose length is not a multiple of
// the block.
func diffExtentsInto(out []Extent, old, new []byte, gapMerge int) []Extent {
	n := len(new)
	if len(old) != n {
		panic("core: diffExtents requires equal-length images")
	}
	old, out = old[:n], out[:0]
	// Maximal runs are at least one byte apart, so a gapMerge below 1
	// merges nothing that 1 would not; 1 rejoins a run a block edge cut.
	gapMerge = max(gapMerge, 1)
	blockRuns := gapMerge > diffBlock-2
	i := 0
	for ; i+diffBlock <= n; i += diffBlock {
		if i&(diffSpan-1) == 0 && i+diffSpan <= n && bytes.Equal(old[i:i+diffSpan], new[i:i+diffSpan]) {
			i += diffSpan - diffBlock
			continue
		}
		a, b := old[i:i+diffBlock:i+diffBlock], new[i:i+diffBlock:i+diffBlock]
		x0 := word(a, 0) ^ word(b, 0)
		x1 := word(a, 8) ^ word(b, 8)
		x2 := word(a, 16) ^ word(b, 16)
		x3 := word(a, 24) ^ word(b, 24)
		if x0|x1|x2|x3 == 0 {
			continue
		}
		// A word's lowest differing byte is its lowest set bit's byte,
		// its highest the highest set bit's (little-endian loads).
		var first, last int
		switch {
		case x0 != 0:
			first = bits.TrailingZeros64(x0) / 8
		case x1 != 0:
			first = 8 + bits.TrailingZeros64(x1)/8
		case x2 != 0:
			first = 16 + bits.TrailingZeros64(x2)/8
		default:
			first = 24 + bits.TrailingZeros64(x3)/8
		}
		switch {
		case x3 != 0:
			last = 31 - bits.LeadingZeros64(x3)/8
		case x2 != 0:
			last = 23 - bits.LeadingZeros64(x2)/8
		case x1 != 0:
			last = 15 - bits.LeadingZeros64(x1)/8
		default:
			last = 7 - bits.LeadingZeros64(x0)/8
		}
		if blockRuns {
			out = addRun(out, i+first, i+last+1, gapMerge)
		} else {
			out = addRuns(out, old, new, i+first, i+last+1, gapMerge)
		}
	}
	return addRuns(out, old, new, i, n, gapMerge)
}

// addRun records the dirty run [start, end): it extends the last
// extent when the clean gap since that extent's end is below gapMerge,
// and opens a new extent otherwise.
func addRun(out []Extent, start, end, gapMerge int) []Extent {
	if k := len(out) - 1; k >= 0 && start-(out[k].Off+out[k].Len) < gapMerge {
		out[k].Len = end - out[k].Off
		return out
	}
	return append(out, Extent{Off: start, Len: end - start})
}

// addRuns records the dirty runs of old and new within [lo, hi), found
// byte by byte.
func addRuns(out []Extent, old, new []byte, lo, hi, gapMerge int) []Extent {
	old, new = old[:hi], new[:hi]
	for i := lo; i < hi; {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		for i < hi && old[i] != new[i] {
			i++
		}
		out = addRun(out, start, i, gapMerge)
	}
	return out
}

// word loads the 8 bytes of b at off (b is a fixed-length window, so the
// bounds checks fold away).
func word(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// applyExtent patches page with payload at off.
func applyExtent(page []byte, off int, payload []byte) {
	copy(page[off:], payload)
}

// trailingZeros counts the clean (zero) tail of a page image, the
// region §3.2 truncates from a full-page frame. It steps back a word at
// a time: in the last non-zero word, the zero
// bytes above its highest set bit are the rest of the tail.
func trailingZeros(p []byte) int {
	i := len(p)
	for ; i >= 8; i -= 8 {
		if w := word(p[i-8:i], 0); w != 0 {
			return len(p) - i + bits.LeadingZeros64(w)/8
		}
	}
	for i > 0 && p[i-1] == 0 {
		i--
	}
	return len(p) - i
}
