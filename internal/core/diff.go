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

// diffExtentsInto is diffExtents appending into out[:0], so a caller
// with a commit loop can reuse one backing array across transactions.
func diffExtentsInto(out []Extent, old, new []byte, gapMerge int) []Extent {
	if len(old) != len(new) {
		panic("core: diffExtents requires equal-length images")
	}
	out = out[:0]
	i := 0
	for i < len(new) {
		// Most of a page is clean: skip it a word at a time, landing on
		// the first differing byte exactly as the byte loop would.
		if i+8 <= len(new) {
			x := binary.LittleEndian.Uint64(old[i:]) ^ binary.LittleEndian.Uint64(new[i:])
			if x == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(x) / 8
		} else if old[i] == new[i] {
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

// applyExtent patches page with payload at off.
func applyExtent(page []byte, off int, payload []byte) {
	copy(page[off:], payload)
}

// extentBytes sums the payload volume of a set of extents.
func extentBytes(extents []Extent) int {
	n := 0
	for _, e := range extents {
		n += e.Len
	}
	return n
}

// trailingZeros counts the clean (zero) tail of a page image, the
// region §3.2 truncates from a full-page frame.
func trailingZeros(p []byte) int {
	n := 0
	for i := len(p) - 1; i >= 0 && p[i] == 0; i-- {
		n++
	}
	return n
}
