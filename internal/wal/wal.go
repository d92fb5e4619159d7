// Package wal implements SQLite-style write-ahead logging on a file
// system over flash storage — the baseline NVWAL is compared against in
// Figures 8 and 9. Two modes are provided:
//
//   - ModeStock: the SQLite 3.8 layout, where every frame is a 24-byte
//     header followed by the full page; frames are therefore misaligned
//     with file-system blocks and a single-page commit writes two device
//     blocks (§5.4).
//   - ModeOptimized: the paper's two ad-hoc improvements — frames merged
//     into one aligned block (paired with the B+tree's 24-byte reserved
//     tail from the early-split algorithm) and WALDIO-style
//     pre-allocation with doubling, which avoids most EXT4
//     block-allocation journaling.
//
// Commit durability follows SQLite: all frames plus the commit mark in
// the last frame's header are flushed by a single fsync (§2). Frame
// checksums are chained so recovery stops at the first frame that does
// not continue the sequence, which also fences stale frames left over
// from before a crash.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
	"sync"
	"time"

	"repro/internal/ext4"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// Mode selects the stock or optimized on-disk layout.
type Mode int

const (
	// ModeStock is the misaligned SQLite 3.8 layout.
	ModeStock Mode = iota
	// ModeOptimized aligns frames to file-system blocks and
	// pre-allocates log pages.
	ModeOptimized
)

func (m Mode) String() string {
	if m == ModeOptimized {
		return "optimized"
	}
	return "stock"
}

// On-file sizes.
const (
	headerSize      = 32
	frameHeaderSize = 24
	// TagWAL labels WAL traffic in block traces (Figure 8).
	TagWAL = "db-wal"
)

// Options configures a WAL.
type Options struct {
	Mode Mode
	// InitialPrealloc is the page count of the first pre-allocation in
	// optimized mode (the paper pre-allocates 8 pages, doubling each
	// time the pre-allocated region fills, §5.4).
	InitialPrealloc int
}

var walMagic = []byte("SQLTWAL1")

// ErrCorrupt reports an unrecoverable WAL header.
var ErrCorrupt = errors.New("wal: corrupt log header")

var crcTable = crc64.MakeTable(crc64.ECMA)

type frameInfo struct {
	pgno   uint32
	commit bool
}

// WAL is one write-ahead log file. It implements pager.Journal and
// pager.SnapshotJournal. All methods are safe for concurrent use:
// snapshot readers share a reader-writer lock that CommitTransaction and
// Checkpoint take exclusively.
type WAL struct {
	file     *ext4.File
	db       pager.DBFile
	pageSize int
	opts     Options
	m        *metrics.Counters

	// mu guards the volatile log index below.
	mu       sync.RWMutex
	salt     uint64
	frames   []frameInfo
	index    map[uint32]int   // pgno -> latest committed frame
	byPage   map[uint32][]int // pgno -> ascending frame indices (wal-index)
	chain    uint64           // running checksum of the last frame
	prealloc int              // next pre-allocation size in pages
	// nBackfill is the backfill watermark: frames below it are already
	// durable in the database file (SQLite's nBackfill). The log only
	// resets (truncate + fresh salt) when fully backfilled and no
	// snapshot reader is open; otherwise a checkpoint just advances the
	// watermark and commits keep appending.
	nBackfill int
	// epoch counts log resets. Marks encode it in their high bits so a
	// mark taken before a reset can never index frames appended after
	// it — such readers fall back to the (fully backfilled) database
	// file instead.
	epoch int
	// encBuf is commit-path scratch, reused across transactions (guarded
	// by w.mu; ext4.WriteAt copies into the page cache, so the buffer is
	// free again as soon as the write returns).
	encBuf []byte
	// ckptMu serializes checkpointers; never held by commits or reads.
	ckptMu sync.Mutex
}

// markBits is the width of the frame-index part of an encoded mark.
const markBits = 32

func (w *WAL) encodeMark(frame int) int { return w.epoch<<markBits | frame }

// Open attaches to (or creates) the write-ahead log file name on fs.
// Existing committed frames are recovered; a trailing uncommitted or
// torn transaction is discarded, as in SQLite's recovery (§4.3).
func Open(fs *ext4.FS, name string, db pager.DBFile, opts Options, m *metrics.Counters) (*WAL, error) {
	if opts.InitialPrealloc <= 0 {
		opts.InitialPrealloc = 8
	}
	if m == nil {
		m = &metrics.Counters{}
	}
	f, err := fs.OpenOrCreate(name, TagWAL)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		file:     f,
		db:       db,
		pageSize: db.PageSize(),
		opts:     opts,
		m:        m,
		index:    make(map[uint32]int),
		byPage:   make(map[uint32][]int),
		prealloc: opts.InitialPrealloc,
	}
	if f.Size() == 0 {
		w.salt = 1
		if err := w.writeHeader(); err != nil {
			return nil, err
		}
		if err := f.Fsync(); err != nil {
			return nil, err
		}
		return w, nil
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	return w, nil
}

// headerBytes encodes the WAL header.
func (w *WAL) headerBytes() []byte {
	h := make([]byte, headerSize)
	copy(h, walMagic)
	binary.LittleEndian.PutUint32(h[8:], 1) // format version
	binary.LittleEndian.PutUint32(h[12:], uint32(w.pageSize))
	binary.LittleEndian.PutUint64(h[16:], w.salt)
	binary.LittleEndian.PutUint64(h[24:], crc64.Checksum(h[:24], crcTable))
	return h
}

func (w *WAL) writeHeader() error {
	if _, err := w.file.WriteAt(w.headerBytes(), 0); err != nil {
		return err
	}
	w.chain = w.salt
	return nil
}

// frameSlot returns the file offset of frame i.
func (w *WAL) frameSlot(i int) int64 {
	if w.opts.Mode == ModeOptimized {
		// Header occupies the first block; each frame is one aligned
		// block merging the 24-byte header with the page content (the
		// page's reserved tail makes room).
		return int64(w.pageSize) * int64(1+i)
	}
	return headerSize + int64(i)*int64(frameHeaderSize+w.pageSize)
}

// frameBytes returns the on-file size of one frame.
func (w *WAL) frameBytes() int {
	if w.opts.Mode == ModeOptimized {
		return w.pageSize
	}
	return frameHeaderSize + w.pageSize
}

// encodeFrame builds one frame image in the reusable w.encBuf scratch
// (valid until the next encodeFrame call; w.mu serializes callers). The
// checksum chains from the previous frame so recovery can detect where
// a valid sequence ends.
func (w *WAL) encodeFrame(pgno uint32, data []byte, commit bool, prevChain uint64) ([]byte, uint64, error) {
	payload := data
	if w.opts.Mode == ModeOptimized {
		// The early-split B+tree keeps the last frameHeaderSize bytes of
		// every page zero; refusing non-zero tails catches a
		// misconfigured pairing instead of corrupting data.
		for _, b := range data[w.pageSize-frameHeaderSize:] {
			if b != 0 {
				return nil, 0, fmt.Errorf("wal: optimized mode requires pages with a zero %d-byte tail (pair with the early-split btree)", frameHeaderSize)
			}
		}
		payload = data[:w.pageSize-frameHeaderSize]
	}
	if cap(w.encBuf) < frameHeaderSize+len(payload) {
		w.encBuf = make([]byte, frameHeaderSize+len(payload))
	}
	buf := w.encBuf[:frameHeaderSize+len(payload)]
	binary.LittleEndian.PutUint32(buf[0:], pgno)
	// The commit word is written unconditionally: the scratch may hold a
	// stale commit mark from the previous transaction's last frame.
	commitWord := uint32(0)
	if commit {
		commitWord = 1
	}
	binary.LittleEndian.PutUint32(buf[4:], commitWord)
	binary.LittleEndian.PutUint64(buf[8:], w.salt)
	copy(buf[frameHeaderSize:], payload)
	sum := crc64.Update(prevChain, crcTable, buf[:16])
	sum = crc64.Update(sum, crcTable, payload)
	binary.LittleEndian.PutUint64(buf[16:], sum)
	return buf, sum, nil
}

// decodeFrame validates frame i against the running chain and returns
// its header info.
func (w *WAL) decodeFrame(i int, prevChain uint64) (frameInfo, uint64, bool) {
	buf := make([]byte, w.frameBytes())
	if n, err := w.file.ReadAt(buf, w.frameSlot(i)); err != nil || n < len(buf) {
		return frameInfo{}, 0, false
	}
	pgno := binary.LittleEndian.Uint32(buf[0:])
	commit := binary.LittleEndian.Uint32(buf[4:]) == 1
	salt := binary.LittleEndian.Uint64(buf[8:])
	stored := binary.LittleEndian.Uint64(buf[16:])
	if pgno == 0 || salt != w.salt {
		return frameInfo{}, 0, false
	}
	sum := crc64.Update(prevChain, crcTable, buf[:16])
	sum = crc64.Update(sum, crcTable, buf[frameHeaderSize:])
	if sum != stored {
		return frameInfo{}, 0, false
	}
	return frameInfo{pgno: pgno, commit: commit}, sum, true
}

// recover scans the log, keeping the longest checksum-chained prefix
// ending at a commit frame.
func (w *WAL) recover() error {
	hdr := make([]byte, headerSize)
	if n, err := w.file.ReadAt(hdr, 0); err != nil && n < headerSize {
		return ErrCorrupt
	}
	if string(hdr[:8]) != string(walMagic) {
		return ErrCorrupt
	}
	if binary.LittleEndian.Uint64(hdr[24:]) != crc64.Checksum(hdr[:24], crcTable) {
		return ErrCorrupt
	}
	if int(binary.LittleEndian.Uint32(hdr[12:])) != w.pageSize {
		return fmt.Errorf("wal: page size mismatch")
	}
	w.salt = binary.LittleEndian.Uint64(hdr[16:])
	w.chain = w.salt

	var scanned []frameInfo
	chain := w.salt
	lastCommit := -1
	for i := 0; ; i++ {
		fi, next, ok := w.decodeFrame(i, chain)
		if !ok {
			break
		}
		scanned = append(scanned, fi)
		chain = next
		if fi.commit {
			lastCommit = i
			w.chain = chain
		}
	}
	// Keep only frames up to the last commit; later frames belong to a
	// transaction that never committed.
	w.frames = scanned[:lastCommit+1]
	for i, fi := range w.frames {
		w.index[fi.pgno] = i
		w.byPage[fi.pgno] = append(w.byPage[fi.pgno], i)
	}
	return nil
}

// lockWriter takes the exclusive writer lock, charging a contended
// wait to the commit-stall metric (wall time: the simulated clock does
// not advance while a goroutine waits on a mutex). An uncontended
// acquisition charges nothing.
func (w *WAL) lockWriter() {
	if w.mu.TryLock() {
		return
	}
	start := time.Now()
	w.mu.Lock()
	w.m.Inc(metrics.CommitStallNanos, time.Since(start).Nanoseconds())
}

// CommitTransaction implements pager.Journal: append one frame per
// dirty page, the last carrying the commit mark, then fsync once. A
// mid-append failure leaves the frame slots unreferenced (w.frames never
// advanced); the next commit overwrites them.
func (w *WAL) CommitTransaction(frames []pager.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	w.lockWriter()
	defer w.mu.Unlock()
	base := len(w.frames)
	if w.opts.Mode == ModeOptimized {
		w.ensurePrealloc(base + len(frames))
	}
	chain := w.chain
	for i, fr := range frames {
		buf, next, err := w.encodeFrame(fr.Pgno, fr.Data, i == len(frames)-1, chain)
		if err != nil {
			return err
		}
		if _, err := w.file.WriteAt(buf, w.frameSlot(base+i)); err != nil {
			return err
		}
		chain = next
	}
	if err := w.file.Fsync(); err != nil {
		return err
	}
	w.chain = chain
	for i, fr := range frames {
		w.frames = append(w.frames, frameInfo{pgno: fr.Pgno, commit: i == len(frames)-1})
		w.index[fr.Pgno] = base + i
		w.byPage[fr.Pgno] = append(w.byPage[fr.Pgno], base+i)
	}
	w.m.Inc(metrics.WALFrames, int64(len(frames)))
	w.m.Inc(metrics.Transactions, 1)
	return nil
}

// ensurePrealloc extends the file allocation to cover frame count
// frames, doubling the pre-allocation each time it fills (§5.4).
func (w *WAL) ensurePrealloc(frameCount int) {
	needPages := int(w.frameSlot(frameCount-1))/w.pageSize + 1
	for w.file.AllocatedPages() < needPages {
		w.file.Preallocate(w.prealloc)
		w.prealloc *= 2
	}
}

// PageVersion implements pager.Journal: reconstruct the latest committed
// image of pgno from its newest frame, into a fresh buffer (the pager
// caches it as it is).
func (w *WAL) PageVersion(pgno uint32) ([]byte, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.pageVersionLocked(pgno)
}

func (w *WAL) pageVersionLocked(pgno uint32) ([]byte, bool) {
	i, ok := w.index[pgno]
	if !ok {
		return nil, false
	}
	page := make([]byte, w.pageSize)
	if !w.readPayloadInto(i, page) {
		return nil, false
	}
	return page, true
}

// readPayloadInto reads frame i's payload into buf (a full page). In
// optimized mode the payload omits the page's zero tail, which is
// restored here.
func (w *WAL) readPayloadInto(i int, buf []byte) bool {
	payload := w.frameBytes() - frameHeaderSize
	if n, err := w.file.ReadAt(buf[:payload], w.frameSlot(i)+frameHeaderSize); err != nil || n < payload {
		return false
	}
	for j := payload; j < len(buf); j++ {
		buf[j] = 0
	}
	return true
}

// FramesSinceCheckpoint implements pager.Journal: frames not yet
// backfilled into the database file.
func (w *WAL) FramesSinceCheckpoint() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.frames) - w.nBackfill
}

// Mark implements pager.SnapshotJournal: the end of the committed log,
// tagged with the reset epoch so marks stay monotone across log resets.
func (w *WAL) Mark() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.encodeMark(len(w.frames))
}

// PageVersionAt implements pager.SnapshotJournal: the newest frame for
// pgno below the mark wins (every file-WAL frame is a full page image),
// found by binary search in the per-page index. A mark from an earlier
// epoch predates a log reset — a reset requires the log fully
// backfilled, so the database file serves that snapshot exactly.
func (w *WAL) PageVersionAt(pgno uint32, mark int) ([]byte, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if mark>>markBits != w.epoch {
		return nil, false
	}
	idxs := w.byPage[pgno]
	n := sort.SearchInts(idxs, mark&(1<<markBits-1))
	if n == 0 {
		return nil, false
	}
	page := make([]byte, w.pageSize)
	if !w.readPayloadInto(idxs[n-1], page) {
		return nil, false
	}
	return page, true
}

// Checkpoint implements pager.Journal as a blocking alias: one
// incremental round with no reader gate.
func (w *WAL) Checkpoint() error { return w.CheckpointIncremental(nil) }

// CheckpointIncremental implements pager.IncrementalJournal: write the
// unbackfilled frames' pages to the database file and fsync with no
// lock held — commits keep appending, since frame slots below the
// watermark are never rewritten — then advance the backfill watermark.
// The log file itself only resets (truncate + fresh salt, invalidating
// frame indices) when it is fully backfilled and the gate confirms no
// snapshot reader is open at all; a growing log between resets is the
// price of not blocking, exactly as in SQLite.
//
// gate, when non-nil, is consulted with the candidate watermark before
// any page is written back; returning false aborts the round with
// pager.ErrCheckpointPending.
func (w *WAL) CheckpointIncremental(gate func(watermark int) bool) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()

	// Snapshot the dirty region under the lock. index[pgno] is the
	// page's newest frame; it is below the watermark by construction.
	w.mu.RLock()
	watermark := len(w.frames)
	dirty := make(map[uint32]int)
	for i := w.nBackfill; i < watermark; i++ {
		pgno := w.frames[i].pgno
		dirty[pgno] = w.index[pgno]
	}
	frames := len(w.frames)
	w.mu.RUnlock()
	if watermark == w.nBackfill && frames == 0 {
		return nil
	}

	// The writeback below makes images newer than some marks visible in
	// the database file; the gate guarantees no open reader would see
	// them through its fallback path.
	if gate != nil && !gate(w.encodeMark(watermark)) {
		return pager.ErrCheckpointPending
	}

	if len(dirty) > 0 {
		start := time.Now()
		page := make([]byte, w.pageSize)
		for pgno, i := range dirty {
			if !w.readPayloadInto(i, page) {
				return fmt.Errorf("wal: lost frame for page %d during checkpoint", pgno)
			}
			if err := w.db.WritePage(pgno, page); err != nil {
				return err
			}
		}
		if err := w.db.Sync(); err != nil {
			return err
		}
		w.m.Inc(metrics.CheckpointPages, int64(len(dirty)))
		w.m.Inc(metrics.CheckpointNanos, time.Since(start).Nanoseconds())
	}

	// Resetting the log invalidates frame indices, so it needs the log
	// fully backfilled and no reader open at any mark (every open mark
	// is at most the current end): probe the gate one past the end.
	// Checked before re-taking w.mu — the gate takes the database
	// layer's reader-registry lock, which readers hold while calling
	// Mark. A reader slipping in after the probe still reads correctly:
	// its epoch-tagged mark falls back to the database file, which the
	// reset just made exact.
	allowReset := gate == nil || gate(w.encodeMark(watermark)+1)

	w.mu.Lock()
	defer w.mu.Unlock()
	w.nBackfill = watermark
	didReset := false
	if allowReset && len(w.frames) == watermark && watermark > 0 {
		// A new salt fences any stale frames left in the file.
		w.salt++
		w.file.Truncate(0)
		if err := w.writeHeader(); err != nil {
			return err
		}
		if err := w.file.Fsync(); err != nil {
			return err
		}
		w.frames = nil
		w.index = make(map[uint32]int)
		w.byPage = make(map[uint32][]int)
		w.nBackfill = 0
		w.epoch++
		w.prealloc = w.opts.InitialPrealloc
		didReset = true
	}
	if len(dirty) > 0 || didReset {
		w.m.Inc(metrics.Checkpoints, 1)
	}
	return nil
}

// Mode reports the WAL layout mode.
func (w *WAL) Mode() Mode { return w.opts.Mode }
