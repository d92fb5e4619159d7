// Volatile free-run summary behind the admission check.
//
// Admission (reserve.go) needs, for a run-length class L, the number of
// L-page blocks the free space can still yield: Σ over maximal free runs
// r of ⌊len(r)/L⌋. Scanning the per-page metadata for that on every
// commit costs host time proportional to the device, so the Manager
// keeps the answer's inputs in DRAM: one bit per page (is its metadata
// word StateFree) and a histogram of maximal free-run lengths.
//
// The NVRAM metadata stays the only source of truth. writeMeta is the
// single place a metadata word changes and updates the summary with it;
// Format and Attach build it from a metadata scan, exactly as they
// build freePages. Nothing here is persisted and nothing here charges
// simulated time.
package heapo

import "math/bits"

type freeSummary struct {
	pages int
	free  []uint64    // bit p set ⇔ page p's metadata state is StateFree
	runs  map[int]int // maximal free-run length → number of such runs
}

// reset empties the summary for a heap of `pages` pages (none free). A
// Manager's page count never changes, so a later reset reuses the
// storage.
func (s *freeSummary) reset(pages int) {
	if s.runs == nil {
		*s = freeSummary{pages: pages, free: make([]uint64, (pages+63)/64), runs: make(map[int]int)}
		return
	}
	clear(s.free)
	clear(s.runs)
}

func (s *freeSummary) isFree(p int) bool { return s.free[p>>6]&(1<<(p&63)) != 0 }

// set records page p's new state. The maximal free run around p either
// splits (p leaves it) or forms from p and its free neighbours.
func (s *freeSummary) set(p int, free bool) {
	if s.isFree(p) == free {
		return
	}
	before, after := s.freeBefore(p), s.freeAfter(p)
	whole, delta := before+1+after, 1
	if !free {
		delta = -1
	}
	s.addRuns(whole, delta)
	s.addRuns(before, -delta)
	s.addRuns(after, -delta)
	s.free[p>>6] ^= 1 << (p & 63)
}

func (s *freeSummary) addRuns(length, delta int) {
	if length == 0 {
		return
	}
	if s.runs[length] += delta; s.runs[length] == 0 {
		delete(s.runs, length)
	}
}

// freeBefore counts the consecutive free pages ending at p-1, a word
// of the bitmap at a time.
func (s *freeSummary) freeBefore(p int) int {
	n := 0
	for i := p - 1; i >= 0; {
		avail := i&63 + 1 // bits of this word at or below i
		ones := bits.LeadingZeros64(^(s.free[i>>6] << (64 - avail)))
		n += ones
		if ones < avail {
			break
		}
		i -= ones
	}
	return n
}

// freeAfter counts the consecutive free pages starting at p+1. Bits at
// and beyond s.pages are never set, so the count stops at the heap end.
func (s *freeSummary) freeAfter(p int) int {
	n := 0
	for i := p + 1; i < s.pages; {
		avail := 64 - i&63 // bits of this word at or above i
		ones := bits.TrailingZeros64(^(s.free[i>>6] >> (i & 63)))
		n += ones
		if ones < avail {
			break
		}
		i += ones
	}
	return n
}

// blocks returns how many blocks of `class` pages the free runs yield:
// Σ ⌊len(r)/class⌋ over maximal free runs r.
func (s *freeSummary) blocks(class int) int {
	n := 0
	for length, count := range s.runs {
		n += count * (length / class)
	}
	return n
}

// rebuildSummary reads every page's metadata word — the source of truth
// — into the summary and returns the number of free pages.
func (m *Manager) rebuildSummary() int {
	s := &m.sum
	s.reset(m.pageCount)
	freePages, run := 0, 0
	for page := 0; page < m.pageCount; page++ {
		if st, _ := m.readMeta(page); st == StateFree {
			s.free[page>>6] |= 1 << (page & 63)
			run++
			continue
		}
		s.addRuns(run, 1)
		freePages += run
		run = 0
	}
	s.addRuns(run, 1)
	return freePages + run
}
