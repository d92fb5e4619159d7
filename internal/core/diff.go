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
// It decides which bytes reach NVRAM, so it must find exactly the runs a
// byte-at-a-time comparison finds (FuzzDiffExtents holds it to that).
func diffExtentsInto(out []Extent, old, new []byte, gapMerge int) []Extent {
	if len(old) != len(new) {
		panic("core: diffExtents requires equal-length images")
	}
	out = out[:0]
	for i := nextDiff(old, new, 0); i < len(new); i = nextDiff(old, new, i) {
		start := i
		i = nextSame(old, new, i)
		if n := len(out); n > 0 && start-(out[n-1].Off+out[n-1].Len) < gapMerge {
			out[n-1].Len = i - out[n-1].Off
		} else {
			out = append(out, Extent{Off: start, Len: i - start})
		}
	}
	return out
}

const (
	lowBytes  = 0x0101010101010101
	highBytes = 0x8080808080808080
)

// word loads the 8 bytes of b at off (b is a fixed-length window, so the
// bounds checks fold away).
func word(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// nextDiff returns the index of the first byte at or after i where old
// and new differ, or len(new). Most of a page is clean: it skips 32-byte
// blocks with one compare, then words, landing on the differing byte
// through the lowest set byte of old^new.
func nextDiff(old, new []byte, i int) int {
	n := len(new)
	old = old[:n]
	for ; i+32 <= n; i += 32 {
		a, b := old[i:i+32], new[i:i+32]
		if (word(a, 0)^word(b, 0))|(word(a, 8)^word(b, 8))|(word(a, 16)^word(b, 16))|(word(a, 24)^word(b, 24)) != 0 {
			break
		}
	}
	for ; i+8 <= n; i += 8 {
		if x := word(old[i:i+8], 0) ^ word(new[i:i+8], 0); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && old[i] == new[i] {
		i++
	}
	return i
}

// nextSame returns the index of the first byte at or after i where old
// and new agree, or len(new): a dirty run is scanned a word at a time and
// ends at the lowest zero byte of old^new. (x-lowBytes)&^x&highBytes
// flags every zero byte of x, and possibly a 0x01 byte above one; the
// lowest flag is always exact.
func nextSame(old, new []byte, i int) int {
	n := len(new)
	old = old[:n]
	for ; i+8 <= n; i += 8 {
		x := word(old[i:i+8], 0) ^ word(new[i:i+8], 0)
		if z := (x - lowBytes) &^ x & highBytes; z != 0 {
			return i + bits.TrailingZeros64(z)/8
		}
	}
	for i < n && old[i] != new[i] {
		i++
	}
	return i
}

// applyExtent patches page with payload at off.
func applyExtent(page []byte, off int, payload []byte) {
	copy(page[off:], payload)
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
