package core

import (
	"fmt"

	"repro/internal/heapo"
	"repro/internal/pager"
)

// Stream is one writer's private log stream. A writer stages its dirty
// pages into its stream fully in parallel with other writers — no NVWAL
// lock is held — because the expensive half of a commit's serial
// section is the differential-extent computation, not the NVRAM append.
// The stream carries precomputed extents plus the full new image of
// every staged page; CommitStreams later merges ready streams under one
// Algorithm 1 flush and a single commit mark.
//
// Staging against a base image is only sound if, at flush time, the
// log's current version of the page equals that base. The database
// layer guarantees it with first-committer-wins validation: a stream
// reaches CommitStreams only when no other commit has touched its
// pages since its snapshot, and the group queue flushes streams in
// commit (seq) order, so each diff lands exactly on the image it was
// computed from. An intervening checkpoint does not break this: the
// checkpointed database-file image is byte-identical to the version
// image the diff was computed against.
type Stream struct {
	id           uint32
	pageSize     int
	differential bool
	gapMerge     int // the NVRAM line size: dirty extents closer than this merge

	pages []stagedPage

	// This stream's share of the merged append it is part of, owned by
	// the append kernel under w.mu: the fresh blocks its frames force,
	// the largest single allocation among them, and the heap reservation
	// promising both.
	newBlocks int
	maxAlloc  int
	resv      heapo.Reservation
}

// stagedPage is one page's precomputed logging work inside a stream.
type stagedPage struct {
	pgno    uint32
	img     []byte // full new image; ownership passes to the stream
	full    bool
	extents []Extent
	// header: page 1 with every extent in the pager's header, whose
	// history payloads appendStreams copies out of img (recycle.go).
	header bool
}

// setFull gives the page the §3.2 full-frame shape: one extent from
// offset 0 with the trailing clean (zero) region truncated, so
// early-split pages fit the user-heap block layout. Replay of a full
// frame resets the page to zero first, so the truncation can never
// resurrect stale tail bytes from an older database-file image.
func (sp *stagedPage) setFull() {
	n := len(sp.img) - trailingZeros(sp.img)
	if n == 0 {
		n = 8 // all-zero page: log a minimal frame
	}
	sp.full = true
	sp.extents = append(sp.extents[:0], Extent{Off: 0, Len: n})
}

func (w *NVWAL) newStream(tag uint32) Stream {
	return Stream{
		id:           tag,
		pageSize:     w.pageSize,
		differential: w.cfg.Differential,
		gapMerge:     w.dev.LineSize(),
	}
}

// NewStream hands out a per-writer stream. Tags cycle through the
// 12-bit space (0 is reserved for untagged frames); they are provenance
// for the on-NVRAM format and debugging, not identity — two live
// streams may share a tag after 4095 allocations without harm, and a
// stream Reset after its commit stages its next transaction under the
// same tag while the last one's frames are still live.
func (w *NVWAL) NewStream() *Stream {
	s := w.newStream(w.streamTag.Add(1)%maxStreamTag + 1)
	return &s
}

// ID returns the stream's frame tag.
func (s *Stream) ID() uint32 { return s.id }

// Pages returns the number of staged pages.
func (s *Stream) Pages() int { return len(s.pages) }

// Reset empties the stream for reuse, keeping the staged pages' slots
// and their extent arrays.
func (s *Stream) Reset() {
	for i := range s.pages {
		s.pages[i].img = nil
	}
	s.pages = s.pages[:0]
}

// StagePage stages one dirty page: img is the page's new full image
// (ownership passes to the stream — the caller must not mutate it
// afterwards) and base, when non-nil under differential logging, is the
// image the dirty extents are computed against (§3.2: the page already
// has frames in the log, so only the differences need logging). A nil
// base stages a full frame (first touch). Returns false when img is
// byte-identical to base — a no-op write that needs no frame, no
// conflict claim, and no version bump.
func (s *Stream) StagePage(pgno uint32, img, base []byte) (bool, error) {
	if len(img) != s.pageSize {
		return false, fmt.Errorf("nvwal: staged page %d has %d bytes, want %d", pgno, len(img), s.pageSize)
	}
	// Take the next slot, with whatever extent array an earlier use of
	// the stream left in it.
	n := len(s.pages)
	if n < cap(s.pages) {
		s.pages = s.pages[:n+1]
	} else {
		s.pages = append(s.pages, stagedPage{})
	}
	sp := &s.pages[n]
	sp.pgno, sp.img = pgno, img
	if s.differential && base != nil {
		sp.full = false
		sp.extents = diffExtentsInto(sp.extents, base, img, s.gapMerge)
		if len(sp.extents) == 0 {
			sp.img = nil
			s.pages = s.pages[:n]
			return false, nil
		}
	} else {
		sp.setFull()
	}
	return true, nil
}

// CommitStreams merges the ready streams into one commit: one append,
// one flush batch, one persist barrier and a single commit mark on the
// final frame cover the whole group. txns is the number of logical
// transactions the group carries (streams with zero staged pages still
// committed).
func (w *NVWAL) CommitStreams(streams []*Stream, txns int) error {
	w.lockWriter()
	defer w.mu.Unlock()
	if err := w.writable(); err != nil {
		return err
	}
	// A page staged differentially whose base came from the database
	// file (never logged, or checkpointed and dropped from the index)
	// would replay from zero under PageVersionAt unless the log knows
	// its base. If the log holds no version for it and no earlier
	// stream in this group stages it first, convert the frame to a full
	// one — same first-touch rule the legacy staging applies. Asking for
	// the version builds a recovered page, as staging does. The group's
	// stamp marks each page as staged.
	w.group++
	for _, s := range streams {
		if s.pageSize != w.pageSize {
			return fmt.Errorf("nvwal: stream page size %d, log %d", s.pageSize, w.pageSize)
		}
		for i := range s.pages {
			sp := &s.pages[i]
			v, err := w.version(sp.pgno)
			if err != nil {
				return err
			}
			e := w.entry(sp.pgno)
			if !sp.full && v == nil && e.stagedIn != w.group {
				sp.setFull()
			}
			e.stagedIn = w.group
		}
	}
	if err := w.appendStreams(streams, commitValue, txns); err != nil {
		return err
	}
	if txns > 1 {
		w.cGroupCommits.Add(1)
	}
	return nil
}

// AppendFrames appends a stream's staged pages to dst as plain pager
// frames (each page's full new image): the shape the database layer's
// group queue stamps page versions from and overlays onto the snapshot of
// a session that begins while the stream waits for its flush.
func (s *Stream) AppendFrames(dst []pager.Frame) []pager.Frame {
	for i := range s.pages {
		dst = append(dst, pager.Frame{Pgno: s.pages[i].pgno, Data: s.pages[i].img})
	}
	return dst
}
