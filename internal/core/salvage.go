package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/heapo"
	"repro/internal/metrics"
)

// SalvageReport describes what crash recovery kept, dropped, and
// quarantined. Recovery always produces one for an existing log (a
// freshly created log has none); Damaged reports whether any of it was
// caused by media faults rather than an ordinary torn tail.
type SalvageReport struct {
	// FramesKept counts physical frames recovery replayed into the
	// volatile index (frozen generation plus live generation).
	FramesKept int
	// FramesDropped counts physical frames recovery discarded: the torn
	// or corrupt live tail, and frozen frames lost to media damage (from
	// the record's sealed frame count).
	FramesDropped int
	// GenerationsSkipped counts frozen generations that were unreadable
	// or failed their chain seal and were dropped (partially or wholly).
	GenerationsSkipped int
	// BlocksQuarantined / BytesQuarantined count log blocks retired into
	// the heap's persistent quarantine because a media read error or
	// scrub failure implicated them.
	BlocksQuarantined int
	BytesQuarantined  int
	// MediaReadErrors counts uncorrectable read errors hit while
	// scanning.
	MediaReadErrors int
	// HeaderRebuilt is set when the log header itself failed validation
	// and was reinitialized: the whole log is lost, but the database
	// file still holds the last completed checkpoint.
	HeaderRebuilt bool
	// FrozenDamaged is set when an interrupted checkpoint round's frozen
	// generation did not scan back to its recorded chain seal.
	FrozenDamaged bool
	// LiveDropped is set when the live generation was discarded wholesale
	// because older (frozen) transactions were already lost — keeping
	// newer ones would break the committed order's prefix property.
	LiveDropped bool
	// DBFileDamaged is set when the database file itself could not be
	// read or written during recovery: the log alone cannot repair that,
	// and the database layer opens in degraded read-only mode.
	DBFileDamaged bool
	// Events is a human-readable trail of everything salvage did.
	Events []string
}

// Damaged reports whether recovery observed media damage (as opposed to
// the ordinary torn tail of a clean power cut, which also drops frames
// but is not a fault). It is nil-safe.
func (r *SalvageReport) Damaged() bool {
	if r == nil {
		return false
	}
	return r.HeaderRebuilt || r.FrozenDamaged || r.LiveDropped ||
		r.DBFileDamaged || r.GenerationsSkipped > 0 ||
		r.BlocksQuarantined > 0 || r.MediaReadErrors > 0
}

// String renders a compact one-line summary.
func (r *SalvageReport) String() string {
	if r == nil {
		return "salvage: none"
	}
	return fmt.Sprintf(
		"salvage: kept=%d dropped=%d gens_skipped=%d quarantined=%d(%dB) media_errs=%d header_rebuilt=%v frozen_damaged=%v live_dropped=%v db_damaged=%v",
		r.FramesKept, r.FramesDropped, r.GenerationsSkipped,
		r.BlocksQuarantined, r.BytesQuarantined, r.MediaReadErrors,
		r.HeaderRebuilt, r.FrozenDamaged, r.LiveDropped, r.DBFileDamaged)
}

func (r *SalvageReport) eventf(format string, args ...any) {
	r.Events = append(r.Events, fmt.Sprintf(format, args...))
}

// Salvage returns the last recovery's salvage report, or nil when the
// log was freshly created (nothing to salvage).
func (w *NVWAL) Salvage() *SalvageReport { return w.salvage }

// markBad records a log block as media-suspect; it will be quarantined
// instead of freed when its generation retires.
func (w *NVWAL) markBad(addr uint64) {
	w.badMu.Lock()
	w.badBlocks[addr] = true
	w.badMu.Unlock()
}

func (w *NVWAL) isBad(addr uint64) bool {
	w.badMu.Lock()
	defer w.badMu.Unlock()
	return w.badBlocks[addr]
}

// releaseBlock retires a log block: media-suspect blocks go to the
// heap's persistent quarantine, counted in rep when there is one, and
// healthy ones are recycled (user heap) or freed. Best effort, like every
// free on this path — a leaked block is reclaimable, a corrupted one is
// not.
func (w *NVWAL) releaseBlock(blk heapo.Block, recycle bool, rep *SalvageReport) {
	w.badMu.Lock()
	bad := w.badBlocks[blk.Addr]
	delete(w.badBlocks, blk.Addr)
	w.badMu.Unlock()
	if bad && w.heap.Quarantine(blk) == nil {
		if rep != nil {
			rep.BlocksQuarantined++
			rep.BytesQuarantined += blk.Size()
			rep.eventf("quarantined block %#x (%d bytes)", blk.Addr, blk.Size())
		}
		return
	}
	if recycle {
		_ = w.heap.Recycle(blk)
	} else {
		_ = w.heap.NVFree(blk)
	}
}

// quarantineNow is releaseBlock for recovery paths that already know the
// block is bad.
func (w *NVWAL) quarantineNow(blk heapo.Block, rep *SalvageReport) {
	w.markBad(blk.Addr)
	w.releaseBlock(blk, false, rep)
}

// mix64 is a splitmix64-style finalizer used to derive a fresh salt
// when a corrupt header is rebuilt — deterministic in the corrupt
// content, so a replayed crash rebuilds identically.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ScrubResult summarizes one scrub pass over the live log.
type ScrubResult struct {
	// FramesChecked counts frames whose durable image was re-verified.
	FramesChecked int
	// BadFrames counts frames whose durable image failed verification:
	// the volatile copy is still good, but a crash right now would lose
	// them. A checkpoint rewrites their pages from DRAM and retires the
	// implicated blocks into quarantine — the self-healing path.
	BadFrames int
	// BadBlocks lists the implicated block addresses.
	BadBlocks []uint64
	// FirstErr is the first verification failure, with frame context.
	FirstErr error
}

// Scrub audits the durable image of the live generation's committed
// frames: every frame at or below the last commit mark has been
// persisted by Algorithm 1's barriers, so its media content must match
// its volatile copy's chained CRC. A mismatch means the media lost it
// (a stuck line, rot) even though the cache still serves it — exactly
// the damage that is invisible until the next crash. Implicated blocks
// are marked for quarantine; the caller should checkpoint to rewrite
// the affected pages from DRAM and retire the blocks.
//
// Under SyncChecksum (asynchronous commit) and the deliberate ordering
// bug, frames are not promised durable before a crash, so there is
// nothing to audit: Scrub is a no-op.
func (w *NVWAL) Scrub() ScrubResult {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var res ScrubResult
	if w.cfg.Sync == SyncChecksum || w.cfg.UnsafeEarlyCommitMark {
		return res
	}

	// Walk the volatile view (always intact while running) to locate
	// each frame and the chain value it must extend.
	type frameLoc struct {
		blk    heapo.Block
		off    int
		size   int // header + payload, unaligned
		prev   uint32
		commit bool
	}
	var locs []frameLoc
	chain := chainSeed(w.salt)
	hdr := make([]byte, frameHdrSize)
	for _, blk := range w.blocks {
		off := blockLinkSize
		for off+frameHdrSize <= blk.Size() {
			w.dev.Read(blk.Addr+uint64(off), hdr)
			mark := binary.LittleEndian.Uint64(hdr[0:])
			frSalt := binary.LittleEndian.Uint64(hdr[8:])
			pgno := binary.LittleEndian.Uint32(hdr[16:])
			size := int(binary.LittleEndian.Uint32(hdr[24:]))
			if frSalt != w.salt || pgno == 0 || (mark != 0 && mark != commitValue) ||
				size <= 0 || size > w.pageSize || off+frameHdrSize+size > blk.Size() {
				break
			}
			payload := make([]byte, size)
			w.dev.Read(blk.Addr+uint64(off+frameHdrSize), payload)
			sum := crc32.Update(chain, crcTab, hdr[8:28])
			sum = crc32.Update(sum, crcTab, payload)
			locs = append(locs, frameLoc{blk: blk, off: off, size: frameHdrSize + size, prev: chain, commit: mark == commitValue})
			chain = sum
			off += align8(frameHdrSize + size)
		}
	}
	lastCommit := -1
	for i, l := range locs {
		if l.commit {
			lastCommit = i
		}
	}

	badBlocks := make(map[uint64]bool)
	mask := w.cfg.effMask()
	for i := 0; i <= lastCommit; i++ {
		l := locs[i]
		raw := make([]byte, l.size)
		var verr error
		if err := w.dev.ReadPersistedChecked(l.blk.Addr+uint64(l.off), raw); err != nil {
			verr = fmt.Errorf("nvwal: scrub: frame %d at block %#x off %d: %w", i, l.blk.Addr, l.off, err)
		} else {
			sum := crc32.Update(l.prev, crcTab, raw[8:28])
			sum = crc32.Update(sum, crcTab, raw[frameHdrSize:])
			stored := binary.LittleEndian.Uint32(raw[28:32])
			mark := binary.LittleEndian.Uint64(raw[0:8])
			switch {
			case sum&mask != stored&mask:
				verr = fmt.Errorf("nvwal: scrub: frame %d at block %#x off %d: durable checksum mismatch (got %#x, want %#x)",
					i, l.blk.Addr, l.off, sum&mask, stored&mask)
			case l.commit && mark != commitValue:
				verr = fmt.Errorf("nvwal: scrub: frame %d at block %#x off %d: durable commit mark lost", i, l.blk.Addr, l.off)
			case mark != 0 && mark != commitValue:
				verr = fmt.Errorf("nvwal: scrub: frame %d at block %#x off %d: durable commit mark corrupt (%#x)", i, l.blk.Addr, l.off, mark)
			}
		}
		res.FramesChecked++
		if verr != nil {
			res.BadFrames++
			if res.FirstErr == nil {
				res.FirstErr = verr
			}
			if !badBlocks[l.blk.Addr] {
				badBlocks[l.blk.Addr] = true
				res.BadBlocks = append(res.BadBlocks, l.blk.Addr)
				w.markBad(l.blk.Addr)
			}
		}
	}
	w.m.Inc(metrics.ScrubFramesChecked, int64(res.FramesChecked))
	w.m.Inc(metrics.ScrubFramesBad, int64(res.BadFrames))
	return res
}
