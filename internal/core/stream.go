package core

import (
	"fmt"

	"repro/internal/heapo"
	"repro/internal/metrics"
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
	gapMerge     int

	pages        []stagedPage
	payloadBytes int
}

// stagedPage is one page's precomputed logging work inside a stream.
type stagedPage struct {
	pgno    uint32
	img     []byte // full new image; ownership passes to the stream
	full    bool
	extents []Extent
}

// NewStream hands out a per-writer stream. Tags cycle through the
// 12-bit space (0 is reserved for untagged frames); they are provenance
// for the on-NVRAM format and debugging, not identity — two live
// streams may share a tag after 4095 allocations without harm.
func (w *NVWAL) NewStream() *Stream {
	tag := w.streamTag.Add(1)%maxStreamTag + 1
	return &Stream{
		id:           tag,
		pageSize:     w.pageSize,
		differential: w.cfg.Differential,
		gapMerge:     w.cfg.GapMerge,
	}
}

// ID returns the stream's frame tag.
func (s *Stream) ID() uint32 { return s.id }

// Pages returns the number of staged pages.
func (s *Stream) Pages() int { return len(s.pages) }

// Reset empties the stream for reuse, keeping staged-page capacity.
func (s *Stream) Reset() {
	for i := range s.pages {
		s.pages[i].img = nil
	}
	s.pages = s.pages[:0]
	s.payloadBytes = 0
}

// StagePage stages one dirty page: img is the page's new full image
// (ownership passes to the stream — the caller must not mutate it
// afterwards) and base, when non-nil under differential logging, is the
// image the writer's snapshot read, against which the dirty extents are
// computed. A nil base stages a full frame (first touch, trailing clean
// bytes truncated per §3.2). Returns false when img is byte-identical
// to base — a no-op write that needs no frame, no conflict claim, and
// no version bump.
func (s *Stream) StagePage(pgno uint32, img, base []byte) (bool, error) {
	if len(img) != s.pageSize {
		return false, fmt.Errorf("nvwal: staged page %d has %d bytes, want %d", pgno, len(img), s.pageSize)
	}
	sp := stagedPage{pgno: pgno, img: img, full: true}
	if s.differential && base != nil {
		sp.full = false
		sp.extents = diffExtents(base, img, s.gapMerge)
		if len(sp.extents) == 0 {
			return false, nil
		}
	} else {
		sp.extents = fullExtents(img)
	}
	s.pages = append(s.pages, sp)
	s.payloadBytes += extentBytes(sp.extents)
	return true, nil
}

// fullExtents is the §3.2 full-frame shape: one extent from offset 0
// with the trailing clean (zero) region truncated.
func fullExtents(img []byte) []Extent {
	n := len(img) - trailingZeros(img)
	if n == 0 {
		n = 8 // all-zero page: log a minimal frame
	}
	return []Extent{{Off: 0, Len: n}}
}

// streamPlan is one stream's share of a merged append: the fresh blocks
// its frames force given the tail state the preceding streams leave
// behind, and the largest single allocation among them. Each stream
// gets its own heap reservation, so admission accounting stays
// per-writer even though the flush is shared.
type streamPlan struct {
	newBlocks int
	maxAlloc  int
	frames    int
}

// CommitStreams merges the ready streams into one Algorithm 1 commit:
// every staged frame of every stream is appended (frames of one stream
// stay consecutive and streams append in the given order — the commit
// order — so recovery's linear scan replays the interleaved streams
// correctly with no reordering), then one flush batch, one persist
// barrier, and a single commit mark on the final frame cover the whole
// group. txns is the number of logical transactions the group carries
// (streams with zero staged pages still committed).
//
// Space admission mirrors the solo path: each stream's block need is
// planned and reserved before any NVRAM mutation, so exhaustion is a
// clean, retryable ErrLogFull with nothing to unwind.
func (w *NVWAL) CommitStreams(streams []*Stream, txns int) error {
	w.lockWriter()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if w.pendingPrep != nil {
		return ErrPreparedPending
	}

	// A page staged differentially whose base came from the database
	// file (never logged, or checkpointed and dropped from the index)
	// would replay from zero under PageVersionAt unless the log knows
	// its base. If the log holds no version for it and no earlier
	// stream in this group stages it first, convert the frame to a full
	// one — same first-touch rule the solo path applies.
	seen := make(map[uint32]bool)
	totalFrames, totalPayload := 0, 0
	for _, s := range streams {
		if s.pageSize != w.pageSize {
			return fmt.Errorf("nvwal: stream page size %d, log %d", s.pageSize, w.pageSize)
		}
		for i := range s.pages {
			sp := &s.pages[i]
			if !sp.full {
				if _, ok := w.versions[sp.pgno]; !ok && !seen[sp.pgno] {
					sp.full = true
					sp.extents = fullExtents(sp.img)
				}
			}
			seen[sp.pgno] = true
			totalFrames += len(sp.extents)
			totalPayload += extentBytes(sp.extents)
		}
	}
	if totalFrames == 0 {
		// Every member coalesced to nothing: the transactions still
		// committed and must be tallied, but nothing reaches NVRAM.
		w.m.Inc(metrics.Transactions, int64(txns))
		if txns > 1 {
			w.m.Inc(metrics.GroupCommits, 1)
		}
		return nil
	}

	// Plan per stream against the running simulated tail, then reserve
	// per stream. A denial releases everything already promised and
	// fails before any mutation.
	plans := make([]streamPlan, len(streams))
	simBlocks, simTailCap, simTailUsed := len(w.blocks), w.tailCapacity(), w.tailUsed
	for i, s := range streams {
		p := &plans[i]
		for j := range s.pages {
			sp := &s.pages[j]
			groupTotal := 0
			for _, e := range sp.extents {
				groupTotal += align8(frameHdrSize + e.Len)
			}
			p.frames += len(sp.extents)
			if !w.cfg.UserHeap && simBlocks > 0 {
				simTailUsed = simTailCap // legacy: tail space not reused across frames
			}
			for _, e := range sp.extents {
				need := align8(frameHdrSize + e.Len)
				if w.cfg.UserHeap && need > w.cfg.BlockSize-blockLinkSize {
					return fmt.Errorf("%w: frame %d bytes, block %d", ErrBlockFull, need, w.cfg.BlockSize)
				}
				if simBlocks == 0 || simTailUsed+need > simTailCap {
					alloc := w.cfg.BlockSize
					if !w.cfg.UserHeap {
						alloc = need
						if groupTotal > alloc {
							alloc = groupTotal
						}
						alloc += blockLinkSize
					}
					simBlocks++
					p.newBlocks++
					if alloc > p.maxAlloc {
						p.maxAlloc = alloc
					}
					simTailCap = (alloc + heapo.PageSize - 1) / heapo.PageSize * heapo.PageSize
					simTailUsed = blockLinkSize
				}
				simTailUsed += need
			}
		}
	}
	resvs := make([]heapo.Reservation, len(streams))
	if !w.disableReserve {
		for i := range streams {
			if plans[i].newBlocks == 0 {
				continue
			}
			if err := w.heap.ReserveInto(&resvs[i], plans[i].newBlocks, plans[i].maxAlloc); err != nil {
				for j := 0; j < i; j++ {
					if plans[j].newBlocks > 0 {
						resvs[j].Release()
					}
				}
				return fmt.Errorf("%w: cannot promise %d blocks of %d bytes for stream %d: %v",
					ErrLogFull, plans[i].newBlocks, plans[i].maxAlloc, streams[i].id, err)
			}
		}
		defer func() {
			w.res = nil
			for i := range resvs {
				if plans[i].newBlocks > 0 {
					resvs[i].Release()
				}
			}
		}()
	}

	undoBlocks, undoTail := len(w.blocks), w.tailUsed
	written := w.written[:0]
	hist := w.newHist[:0]
	newVersions := w.versionScratch()
	chain := w.chain
	arena := make([]byte, totalPayload)

	for i, s := range streams {
		if !w.disableReserve && plans[i].newBlocks > 0 {
			w.res = &resvs[i]
		} else {
			w.res = nil
		}
		for j := range s.pages {
			sp := &s.pages[j]
			groupTotal := 0
			for _, e := range sp.extents {
				groupTotal += align8(frameHdrSize + e.Len)
			}
			if !w.cfg.UserHeap && len(w.blocks) > 0 {
				w.tailUsed = w.tailCapacity()
			}
			for _, e := range sp.extents {
				payload := sp.img[e.Off : e.Off+e.Len]
				size := frameHdrSize + len(payload)
				addr, err := w.allocFrameSpace(size, groupTotal)
				if err != nil {
					w.written, w.newHist = written[:0], hist[:0]
					return w.abortAppend(undoBlocks, undoTail, err)
				}
				chain = w.encodeFrameAt(addr, sp.pgno, e.Off, payload, chain, sp.full, s.id)
				w.step(StepAfterMemcpy)
				switch w.cfg.Sync {
				case SyncEager:
					w.dev.MemoryBarrier()
					w.dev.Syscall()
					w.dev.Flush(addr, addr+uint64(size))
					w.dev.MemoryBarrier()
					w.dev.PersistBarrier()
				case SyncStrictPersistency:
					w.dev.Domain().EpochBarrier()
				}
				written = append(written, frameRef{addr: addr, size: size, pgno: sp.pgno})
				pl := arena[:len(payload):len(payload)]
				arena = arena[len(payload):]
				copy(pl, payload)
				hist = append(hist, histFrame{pgno: sp.pgno, off: e.Off, full: sp.full, payload: pl})
				w.m.Inc(MetricLoggedBytes, int64(size))
			}
			newVersions[sp.pgno] = sp.img
		}
	}
	w.res = nil

	earlyMark := w.cfg.UnsafeEarlyCommitMark && w.cfg.Sync == SyncLazy
	if earlyMark {
		last := written[len(written)-1]
		w.dev.PutUint64(last.addr, commitValue)
		w.dev.MemoryBarrier()
		w.dev.Syscall()
		w.dev.Flush(last.addr, last.addr+8)
		w.dev.MemoryBarrier()
		w.dev.PersistBarrier()
	}

	switch {
	case w.cfg.Sync == SyncLazy:
		w.dev.MemoryBarrier()
		for _, f := range written {
			w.dev.Syscall()
			w.dev.Flush(f.addr, f.addr+uint64(f.size))
		}
		w.dev.MemoryBarrier()
		if !earlyMark {
			w.dev.PersistBarrier()
		}
	case w.cfg.Sync == SyncEpochPersistency:
		w.dev.Domain().EpochBarrier()
	}
	w.step(StepAfterLogFlush)

	if !earlyMark {
		last := written[len(written)-1]
		w.dev.PutUint64(last.addr, commitValue)
		w.step(StepAfterCommitWrite)
		switch w.cfg.Sync {
		case SyncStrictPersistency, SyncEpochPersistency:
			w.dev.Domain().EpochBarrier()
		default:
			w.dev.MemoryBarrier()
			w.dev.Syscall()
			w.dev.Flush(last.addr, last.addr+8)
			w.dev.MemoryBarrier()
			w.dev.PersistBarrier()
		}
		w.step(StepAfterCommitFlush)
	}

	w.chain = chain
	for _, f := range hist {
		if _, tracked := w.byPage[f.pgno]; !tracked && !f.full {
			w.base[f.pgno] = w.versions[f.pgno]
		}
		w.byPage[f.pgno] = append(w.byPage[f.pgno], w.histBase+len(w.history))
		w.history = append(w.history, f)
	}
	for pgno, img := range newVersions {
		w.versions[pgno] = img
	}
	w.written, w.newHist = written[:0], hist[:0]
	w.m.Inc(metrics.WALFrames, int64(len(written)))
	w.m.Inc(metrics.Transactions, int64(txns))
	if txns > 1 {
		w.m.Inc(metrics.GroupCommits, 1)
	}
	return nil
}

// StreamFrames converts a stream's staged pages into plain pager frames
// (each page's full new image), the fallback shape for journals that do
// not understand streams — fault-injection wrappers, the file WAL, or
// a group mixing stream and non-stream members.
func (s *Stream) StreamFrames() []pager.Frame {
	frames := make([]pager.Frame, 0, len(s.pages))
	for i := range s.pages {
		frames = append(frames, pager.Frame{Pgno: s.pages[i].pgno, Data: s.pages[i].img})
	}
	return frames
}
