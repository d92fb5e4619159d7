package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/heapo"
	"repro/internal/metrics"
)

// scannedFrame is one frame parsed out of NVRAM during recovery.
type scannedFrame struct {
	pgno    uint32
	off     int
	full    bool
	payload []byte
	commit  bool
	// stream is the per-writer stream tag carried in the frame's offset
	// word (0 = untagged). Frames of concurrent streams interleave
	// physically; the append order — which the scan follows — is the
	// commit order, so replay needs no reordering, only the provenance.
	stream uint32
	// prepGtx is the global transaction id of a prepared (2PC) mark,
	// zero for ordinary frames. Prepared frames past the last commit are
	// in doubt: Config.PreparedResolver decides their fate.
	prepGtx uint64
	// chain value after this frame, for restoring w.chain at the
	// resume point.
	chainAfter uint32
	// position of the frame header, for locating the resume point
	blockIdx int
	blockOff int
}

// scanInfo reports what a generation scan ran into beyond the frames it
// validated.
type scanInfo struct {
	// mediaErrs counts uncorrectable read errors; each one ends the scan
	// and implicates the block it hit.
	mediaErrs int
	// ghosts counts structurally plausible frames past the first invalid
	// one — frames the chain break orphaned. Best-effort accounting for
	// the salvage report; a corrupt size field ends the count early.
	ghosts int
}

// recover rebuilds the volatile log state after a restart or crash. It
// is a *salvage* pass, not a fail-stop one: media damage to the log
// never returns an error, it shrinks what survives — always to a prefix
// of the committed transaction order — and files everything dropped in
// a SalvageReport. The §4.3 cases are handled mechanically:
//
//   - the kernel heap manager has already reclaimed pending blocks, so a
//     block reference whose target is no longer in-use is a dangling
//     pointer from a crashed allocation — the reference is cleared and
//     the scan stops there;
//   - frames are validated by salt and chained checksum; the first
//     invalid frame ends the log;
//   - frames after the last commit mark belong to a transaction that
//     never committed and are discarded; blocks holding only such frames
//     are freed.
//
// Media faults add four salvage rules on top:
//
//   - a header that fails validation is rebuilt: the log's contents are
//     lost, but the database file still holds the last completed
//     checkpoint, and recovery proceeds with an empty log instead of
//     refusing to open;
//   - an uncorrectable read error ends the affected generation's scan
//     and sends the block to the heap's persistent quarantine when the
//     generation retires;
//   - a frozen generation that does not scan back to the chain seal its
//     checkpoint record captured has lost *committed* frames — older
//     than everything in the live generation — so the live generation
//     is discarded too. Surviving transactions stay a prefix of the
//     commit order; re-applying newer transactions over a hole would
//     trade detected data loss for silent corruption;
//   - a link word naming the header block or a block a chain already
//     holds ends the chain like a dangling reference.
//
// The header's checkpoint record drives the incremental checkpoint
// state machine:
//
//   - record salt == live salt: power failed between persisting the
//     record (A1) and opening the new generation (A2); nothing was
//     frozen, so the record is retired and recovery proceeds normally;
//   - phase "freeing": the frozen generation's pages are already durable
//     in the database file; recovery only finishes freeing its blocks;
//   - phase "backfilling": the frozen generation's committed frames are
//     indexed first, so the interrupted round's watermark is their count,
//     then the live generation's on top; the round then runs the phases
//     Checkpoint runs after phase A — backfill each page with a frozen
//     frame at its image at the watermark, free, retire. If media damage
//     cost the frozen generation sealed frames, completion is impossible:
//     the crashed backfill may already have written the lost frames'
//     pages into the database file, and no copy survives to either finish
//     or undo that. The round is left pending and the report flags the
//     database file so the database layer opens degraded read-only.
//
// Otherwise recovery does what SQLite's does and no more: it validates
// the chains, keeps the committed prefix and fills the history and its
// per-page index. Every recovered page stays pending until its first use
// builds it (version); only the pages a frozen round writes back are
// built, and read from the database file, at open.
//
// Recovery is also what gives the asynchronous-commit mode (§4.2) its
// semantics: a commit mark whose transaction has a torn (checksum-
// mismatched) frame invalidates the whole transaction.
func (w *NVWAL) recover() error {
	rep := &SalvageReport{}
	w.salvage = rep
	w.pages, w.pending = nil, 0
	w.blocks = nil
	w.history = nil
	w.histBase = 0

	hdr := make([]byte, 64)
	if err := w.dev.ReadChecked(w.headerAddr, hdr); err != nil {
		rep.MediaReadErrors++
		return w.rebuildHeader(rep, fmt.Errorf("%w: header unreadable at %#x: %v", ErrCorruptHeader, w.headerAddr, err))
	}
	if magic := binary.LittleEndian.Uint64(hdr[0:]); magic != headerMagic {
		return w.rebuildHeader(rep, fmt.Errorf("%w: bad magic %#x at %#x", ErrCorruptHeader, magic, w.headerAddr))
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[hdrPageSizeOff:])); ps != w.pageSize {
		if plausiblePageSize(ps) {
			// A well-formed but different page size is a configuration
			// error, not media damage; refusing is the only safe answer.
			return fmt.Errorf("%w: page size mismatch (log %d, database %d)", ErrCorruptHeader, ps, w.pageSize)
		}
		return w.rebuildHeader(rep, fmt.Errorf("%w: implausible page size %d at %#x", ErrCorruptHeader, ps, w.headerAddr))
	}
	w.salt = binary.LittleEndian.Uint64(hdr[hdrSaltOff:])

	// The checkpoint record is read unconditionally: every log this
	// format creates writes one at birth, and gating it on the (equally
	// damageable) version field would let a single flipped bit silently
	// skip a frozen generation.
	ckBlk := binary.LittleEndian.Uint64(hdr[hdrCkptBlkOff:])
	ckSalt := binary.LittleEndian.Uint64(hdr[hdrCkptSaltOff:])
	ckPhase := binary.LittleEndian.Uint64(hdr[hdrCkptStateOff:])
	ckChain := binary.LittleEndian.Uint32(hdr[hdrCkptChainOff:])
	ckCount := binary.LittleEndian.Uint32(hdr[hdrCkptCountOff:])
	switch {
	case ckBlk == 0 || ckPhase == ckptNone:
		ckBlk = 0
	case ckSalt == w.salt:
		// Crash between A1 and A2: the record names the still-live
		// generation. Nothing was frozen; retire the record.
		w.writeCkptRecord(0, 0, ckptNone, 0, 0)
		ckBlk = 0
	case ckPhase == ckptFreeing:
		// The frozen pages are durable; only the frees remain.
		w.freeOldChain(ckBlk, ckSalt, rep)
		w.writeCkptRecord(0, 0, ckptNone, 0, 0)
		ckBlk = 0
	}

	// An interrupted backfill round: index the frozen generation's frames
	// first, so every one of them is below the round's watermark. The
	// chain seal decides whether the scan got them all: a short or
	// diverging scan means committed frames are gone, which poisons the
	// (newer) live generation too.
	var frozenBlocks []heapo.Block
	// A block belongs to one chain: seen holds the header and every block
	// either scan has taken.
	seen := map[uint64]bool{w.headerAddr: true}
	frozenDamaged := false
	frozenLost := false
	if ckBlk != 0 {
		blocks, scanned, info := w.scanGeneration(ckBlk, ckSalt, w.headerAddr+hdrCkptBlkOff, false, seen, rep)
		frozenBlocks = blocks
		kept := scanned
		endChain := chainSeed(ckSalt)
		if len(scanned) > 0 {
			endChain = scanned[len(scanned)-1].chainAfter
		}
		sealed := ckChain != 0 || ckCount != 0
		if info.mediaErrs > 0 || (sealed && endChain != ckChain) {
			frozenDamaged = true
			rep.FrozenDamaged = true
			rep.GenerationsSkipped++
			// Only whole transactions may survive a truncated scan.
			lastCommit := -1
			for i, fr := range scanned {
				if fr.commit {
					lastCommit = i
				}
			}
			kept = scanned[:lastCommit+1]
			if int(ckCount) > len(kept) {
				rep.FramesDropped += int(ckCount) - len(kept)
				frozenLost = true
			}
			rep.eventf("frozen generation (salt %d) damaged: scanned %d of %d sealed frames (chain %#x, want %#x), kept %d whole-transaction frames",
				ckSalt, len(scanned), ckCount, endChain, ckChain, len(kept))
		}
		w.indexFrames(kept)
		rep.FramesKept += len(kept)
	}
	watermark := len(w.history)

	// Live generation: scan, keep the committed prefix and index it —
	// unless a damaged frozen generation already lost older committed
	// frames, in which case the whole live generation goes too.
	liveSalt := w.salt
	blocks, scanned, info := w.scanGeneration(
		binary.LittleEndian.Uint64(hdr[hdrFirstBlkOff:]), liveSalt,
		w.headerAddr+hdrFirstBlkOff, true, seen, rep)
	w.blocks = blocks
	lastCommit := -1
	for i, fr := range scanned {
		if fr.commit {
			lastCommit = i
		}
	}
	// In-doubt 2PC resolution: frames past the last commit normally
	// belong to a transaction that never committed, but a prepared mark
	// means the decision lives elsewhere — in the coordinator's durable
	// commit-sequence record, consulted through the resolver. Decided
	// transactions get their mark flipped to a real commit in place (the
	// mark word is outside the CRC chain, so the kept log stays chain-
	// valid); undecided ones fall to the ordinary truncation below.
	// The engine admits no append behind a pending prepare, so at most
	// one group is ever in doubt: the frames between lastCommit and the
	// prepared mark are exactly that group's.
	if !frozenDamaged {
		for i := lastCommit + 1; i < len(scanned); i++ {
			fr := scanned[i]
			if fr.prepGtx == 0 {
				continue
			}
			if w.cfg.PreparedResolver == nil || !w.cfg.PreparedResolver(fr.prepGtx) {
				rep.eventf("in-doubt transaction %d resolved aborted (no coordinator decision); frames truncated", fr.prepGtx)
				break
			}
			a := blocks[fr.blockIdx].Addr + uint64(fr.blockOff)
			w.persistMark(a, commitValue)
			scanned[i].commit = true
			lastCommit = i
			rep.eventf("in-doubt transaction %d resolved committed from the coordinator record; provisional mark flipped at block %#x off %d",
				fr.prepGtx, blocks[fr.blockIdx].Addr, fr.blockOff)
		}
	}
	kept := scanned[:lastCommit+1]
	if frozenDamaged {
		rep.LiveDropped = true
		rep.FramesDropped += len(scanned) + info.ghosts
		rep.eventf("live generation (salt %d) dropped: %d frames discarded to keep survivors a prefix of commit order", liveSalt, len(scanned)+info.ghosts)
		kept = nil
		lastCommit = -1
	} else {
		rep.FramesDropped += len(scanned) - len(kept) + info.ghosts
	}
	w.indexFrames(kept)
	rep.FramesKept += len(kept)
	w.chain = chainSeed(liveSalt)
	if lastCommit >= 0 {
		w.chain = kept[lastCommit].chainAfter
	}

	// Resume point: right after the last committed frame. Blocks beyond
	// it held only discarded frames — free them (or quarantine the ones
	// media errors implicated) and cut the chain.
	if lastCommit < 0 {
		w.truncateAfter(-1)
		w.tailUsed = blockLinkSize
		if len(w.blocks) == 0 {
			w.tailUsed = 0
		}
	} else {
		last := kept[lastCommit]
		resumeOff := last.blockOff + align8(frameHdrSize+len(last.payload))
		w.truncateAfter(last.blockIdx)
		w.tailUsed = resumeOff
		// Discarded frames at the resume point are chain-valid continuations
		// of the kept log. If they were left in place and the next commit
		// happened to start in a fresh block, a later recovery would
		// resurrect them — so the torn frame slot is invalidated physically.
		tail := w.blocks[len(w.blocks)-1]
		if resumeOff+frameHdrSize <= tail.Size() {
			a := tail.Addr + uint64(resumeOff)
			w.dev.Write(a, zeroFrameHdr[:])
			w.persistRange(a, frameHdrSize)
		}
		if w.isBad(tail.Addr) {
			// The kept tail block took a media error past the resume
			// point: seal it so new frames land in a fresh block, and let
			// the next checkpoint quarantine it.
			w.tailUsed = tail.Size()
			rep.eventf("tail block %#x sealed after media error; new frames go to a fresh block", tail.Addr)
		}
	}

	w.m.Inc(metrics.FramesSalvaged, int64(rep.FramesKept))
	w.m.Inc(metrics.FramesDropped, int64(rep.FramesDropped))
	if ckBlk == 0 {
		return nil
	}
	if frozenLost {
		// Sealed frames of the interrupted round are gone, and the crashed
		// backfill may already have pushed their page images — whole or
		// torn — into the database file. Rewriting only the kept prefix
		// cannot undo that, and no copy of the lost frames exists to
		// finish the job, so the database file itself can no longer be
		// trusted to match any transaction boundary. The round stays
		// pending (the next recovery reaches the same verdict from the
		// same durable state) and the report is flagged so the database
		// layer opens degraded read-only.
		rep.DBFileDamaged = true
		rep.eventf("frozen generation (salt %d) lost sealed frames mid-backfill: database file may hold partially backfilled pages; round left pending, opening degraded", ckSalt)
		return nil
	}
	// Finish the round as Checkpoint does after phase A: each page with a
	// frame below the watermark goes back at its image there, built as any
	// read builds it. A base that cannot be read, or a failed writeback,
	// leaves the round pending — the record still names it, the next
	// recovery runs it again — and the page pending, for a later read to
	// retry; the report is flagged so the database layer opens degraded.
	st := &ckptState{watermark: watermark, blocks: frozenBlocks, salt: ckSalt}
	for pgno := range w.pages {
		if e := &w.pages[pgno]; len(e.frames) == 0 || e.frames[0] >= watermark {
			continue
		}
		img, _, _, err := w.imageAt(uint32(pgno), watermark)
		if err != nil {
			rep.DBFileDamaged = true
			rep.eventf("frozen generation (salt %d): %v — round left pending, opening degraded", ckSalt, err)
			return nil
		}
		st.pages = append(st.pages, ckptPage{pgno: uint32(pgno), img: img})
	}
	w.ckpt = st
	if err := w.backfill(st); err != nil {
		rep.DBFileDamaged = true
		rep.eventf("recovered checkpoint: %v — round left pending, opening degraded", err)
		return nil
	}
	return w.completeCheckpoint(st, rep)
}

// plausiblePageSize reports whether n could be a configured page size (a
// power of two in SQLite's range) as opposed to a bit-flipped one.
func plausiblePageSize(n int) bool {
	return n >= 512 && n <= 65536 && n&(n-1) == 0
}

// rebuildHeader reinitializes a header that failed validation: fresh
// salt (derived deterministically from the corrupt content, so a
// replayed crash rebuilds identically), empty log, retired checkpoint
// record. The old log blocks are unreachable — without a trustworthy
// header there is no safe way to tell them from live data — and are
// conservatively leaked to the heap; the database file still holds the
// last completed checkpoint.
func (w *NVWAL) rebuildHeader(rep *SalvageReport, cause error) error {
	rep.HeaderRebuilt = true
	rep.eventf("header rebuilt: %v", cause)
	rep.eventf("previous log blocks are unreachable (leaked); database file retains the last completed checkpoint")
	salt := mix64(w.dev.Uint64(w.headerAddr)^mix64(w.dev.Uint64(w.headerAddr+hdrSaltOff))) | 1
	w.salt = salt
	w.blocks = nil
	w.tailUsed = 0
	w.chain = chainSeed(salt)
	w.writeHeader()
	w.writeCkptRecord(0, 0, ckptNone, 0, 0)
	return nil
}

// scanGeneration walks one generation's block chain from firstAddr,
// collecting the frames that validate against its salt and checksum
// chain. clearDangling enables the §4.3 dangling-reference repair, which
// only the live generation needs: a frozen chain's links were all
// persisted long before it froze. An uncorrectable media error ends the
// scan and marks the block it hit for quarantine. seen is shared by the
// scans of one recovery.
func (w *NVWAL) scanGeneration(firstAddr, salt uint64, prevLink uint64, clearDangling bool, seen map[uint64]bool, rep *SalvageReport) ([]heapo.Block, []scannedFrame, scanInfo) {
	var blocks []heapo.Block
	var scanned []scannedFrame
	var info scanInfo
	chain := chainSeed(salt)
	addr := firstAddr
	for addr != 0 {
		blk, err := w.heap.BlockAt(addr)
		if err != nil || w.heapStateInUse(addr) != nil {
			// Dangling reference: the target was reclaimed as pending
			// after a crash between persisting the link and marking the
			// block in-use. Clear it (§4.3).
			if clearDangling {
				w.clearLink(prevLink)
			}
			break
		}
		if seen[addr] {
			// No append ever links to the header block or to a block a
			// chain already holds: the link word is damaged. Following it
			// would loop forever, or let truncation or a finished round
			// free a block the log still owns. Cut the chain here, as for
			// a dangling reference.
			rep.eventf("gen %d: link to block %#x, the header or a block already in a chain — chain cut", salt, addr)
			if clearDangling {
				w.clearLink(prevLink)
			}
			break
		}
		seen[addr] = true
		blocks = append(blocks, blk)
		// Frames are packed within the block; a frame that would not
		// fit was placed at the start of the next block, so an invalid
		// region here just ends this block's frames. The chained
		// checksum makes a false continuation in the next block
		// impossible, so validation resumes in every block; the invalid
		// remainder of a block is probed structurally only to count the
		// frames a chain break orphaned.
		off := blockLinkSize
		probing := false
		for off+frameHdrSize <= blk.Size() {
			if probing {
				n, plausible := w.probeFrame(blk, off, salt)
				if !plausible {
					break
				}
				info.ghosts++
				off += n
				continue
			}
			fr, next, ok, err := w.readFrame(blk, off, chain, salt)
			if err != nil {
				info.mediaErrs++
				rep.MediaReadErrors++
				w.markBad(blk.Addr)
				rep.eventf("gen %d frame %d (block %#x off %d): %v — scan stopped, block marked for quarantine",
					salt, len(scanned), blk.Addr, off, err)
				return blocks, scanned, info
			}
			if !ok {
				probing = true
				continue
			}
			fr.blockIdx = len(blocks) - 1
			fr.blockOff = off
			scanned = append(scanned, fr)
			chain = next
			off += align8(frameHdrSize + len(fr.payload))
		}
		prevLink = blk.Addr
		var link [8]byte
		if err := w.dev.ReadChecked(blk.Addr, link[:]); err != nil {
			info.mediaErrs++
			rep.MediaReadErrors++
			w.markBad(blk.Addr)
			rep.eventf("gen %d: unreadable link word in block %#x: %v — scan stopped, block marked for quarantine",
				salt, blk.Addr, err)
			return blocks, scanned, info
		}
		addr = binary.LittleEndian.Uint64(link[:])
	}
	return blocks, scanned, info
}

// probeFrame structurally parses the frame at off without checksum
// validation: salt, page number, mark and size bounds only. It is used
// past a chain break to count the orphaned frames being dropped; a
// corrupt size field just ends the count early.
func (w *NVWAL) probeFrame(blk heapo.Block, off int, salt uint64) (int, bool) {
	if off+frameHdrSize > blk.Size() {
		return 0, false
	}
	hdr := make([]byte, frameHdrSize)
	if err := w.dev.ReadChecked(blk.Addr+uint64(off), hdr); err != nil {
		return 0, false
	}
	mark := binary.LittleEndian.Uint64(hdr[0:])
	frSalt := binary.LittleEndian.Uint64(hdr[8:])
	pgno := binary.LittleEndian.Uint32(hdr[16:])
	size := int(binary.LittleEndian.Uint32(hdr[24:]))
	if frSalt != salt || pgno == 0 || !validMark(mark) ||
		size <= 0 || size > w.pageSize || off+frameHdrSize+size > blk.Size() {
		return 0, false
	}
	return align8(frameHdrSize + size), true
}

// indexFrames enters a generation's kept frames into the history and the
// per-page index, and leaves every page they touch pending: its images
// are built on first use (version), not here.
func (w *NVWAL) indexFrames(kept []scannedFrame) {
	for _, fr := range kept {
		e := w.entry(fr.pgno)
		if !e.pending {
			e.pending = true
			w.pending++
		}
		e.frames = w.appendFrame(e.frames, w.histBase+len(w.history))
		w.history = append(w.history, histFrame{pgno: fr.pgno, off: fr.off, full: fr.full, payload: fr.payload})
	}
}

// freeOldChain finishes freeing a frozen generation whose pages are
// already durable (phase "freeing"). Phase C frees tail-first, so the
// head-first walk sees the still-allocated prefix; it stops at the
// first block that is no longer in-use, or whose first frame does not
// carry the frozen generation's salt (the block was freed and already
// recycled into the new generation — freeing it again would corrupt the
// live log; a conservatively leaked block is reclaimable, a freed live
// block is not). An unreadable block is quarantined — its pages are
// durable, only the media is suspect — and ends the walk.
func (w *NVWAL) freeOldChain(firstAddr, salt uint64, rep *SalvageReport) {
	addr := firstAddr
	for addr != 0 {
		blk, err := w.heap.BlockAt(addr)
		if err != nil || w.heapStateInUse(addr) != nil {
			return
		}
		if blk.Size() >= blockLinkSize+frameHdrSize {
			var frSalt [8]byte
			if err := w.dev.ReadChecked(blk.Addr+blockLinkSize+8, frSalt[:]); err != nil {
				rep.MediaReadErrors++
				rep.eventf("freeing frozen chain: unreadable block %#x: %v — quarantined", blk.Addr, err)
				w.quarantineNow(blk, rep)
				return
			}
			if binary.LittleEndian.Uint64(frSalt[:]) != salt {
				return
			}
		}
		var link [8]byte
		if err := w.dev.ReadChecked(blk.Addr, link[:]); err != nil {
			rep.MediaReadErrors++
			rep.eventf("freeing frozen chain: unreadable link in block %#x: %v — quarantined", blk.Addr, err)
			w.quarantineNow(blk, rep)
			return
		}
		next := binary.LittleEndian.Uint64(link[:])
		if w.heap.NVFree(blk) != nil {
			return
		}
		addr = next
	}
}

// heapStateInUse verifies the block at addr is marked in-use.
func (w *NVWAL) heapStateInUse(addr uint64) error {
	st, err := w.heap.StateOf(addr)
	if err != nil {
		return err
	}
	if st != heapo.StateInUse {
		return fmt.Errorf("nvwal: block %#x in state %d", addr, st)
	}
	return nil
}

// clearLink persistently zeroes a dangling block reference.
func (w *NVWAL) clearLink(linkAddr uint64) {
	w.dev.PutUint64(linkAddr, 0)
	w.persistRange(linkAddr, 8)
}

// truncateAfter frees all blocks after index keepIdx (-1 frees all) and
// clears the tail link of the kept block. Blocks media errors
// implicated are quarantined instead of freed.
func (w *NVWAL) truncateAfter(keepIdx int) {
	for i := len(w.blocks) - 1; i > keepIdx; i-- {
		// Best effort: a block that cannot be freed is leaked, never
		// corrupted.
		w.releaseBlock(w.blocks[i], false, w.salvage)
	}
	w.blocks = w.blocks[:keepIdx+1]
	w.clearLink(w.linkAddrForNext())
}

// readFrame parses and validates the frame at offset off of blk against
// the running checksum chain and the generation's salt. A non-nil error
// is an uncorrectable media read error; ok=false with a nil error means
// the bytes simply do not form a valid next frame (the ordinary end of
// a log).
func (w *NVWAL) readFrame(blk heapo.Block, off int, prev uint32, salt uint64) (scannedFrame, uint32, bool, error) {
	if off+frameHdrSize > blk.Size() {
		return scannedFrame{}, 0, false, nil
	}
	hdr := make([]byte, frameHdrSize)
	if err := w.dev.ReadChecked(blk.Addr+uint64(off), hdr); err != nil {
		return scannedFrame{}, 0, false, err
	}
	mark := binary.LittleEndian.Uint64(hdr[0:])
	frSalt := binary.LittleEndian.Uint64(hdr[8:])
	pgno := binary.LittleEndian.Uint32(hdr[16:])
	offWord := binary.LittleEndian.Uint32(hdr[20:])
	full := offWord&offFullFlag != 0
	inOff := int(offWord & offInOffMask)
	stream := (offWord &^ offFullFlag) >> offStreamShift
	size := int(binary.LittleEndian.Uint32(hdr[24:]))
	stored := binary.LittleEndian.Uint32(hdr[28:])
	if frSalt != salt || pgno == 0 || !validMark(mark) {
		return scannedFrame{}, 0, false, nil
	}
	if size <= 0 || size > w.pageSize || inOff < 0 || inOff+size > w.pageSize {
		return scannedFrame{}, 0, false, nil
	}
	if off+frameHdrSize+size > blk.Size() {
		return scannedFrame{}, 0, false, nil
	}
	payload := make([]byte, size)
	if err := w.dev.ReadChecked(blk.Addr+uint64(off+frameHdrSize), payload); err != nil {
		return scannedFrame{}, 0, false, err
	}
	sum := crc32.Update(prev, crcTab, hdr[8:28])
	sum = crc32.Update(sum, crcTab, payload)
	if mask := w.cfg.effMask(); sum&mask != stored&mask {
		return scannedFrame{}, 0, false, nil
	}
	fr := scannedFrame{
		pgno:       pgno,
		off:        inOff,
		full:       full,
		payload:    payload,
		commit:     mark == commitValue,
		stream:     stream,
		chainAfter: sum,
	}
	if mark&preparedFlag != 0 {
		fr.prepGtx = mark &^ preparedFlag
	}
	return fr, sum, true, nil
}

// validMark reports whether a frame's mark word is one the engine
// writes: clear (mid-group), committed, or prepared (2PC provisional).
func validMark(mark uint64) bool {
	return mark == 0 || mark == commitValue || (mark&preparedFlag != 0 && mark&^preparedFlag != 0)
}
