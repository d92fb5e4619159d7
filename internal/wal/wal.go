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

// WAL is one write-ahead log file. It implements pager.Journal with one
// writer at a time: CommitTransaction and Checkpoint take the log's lock
// exclusively, PageVersion shares it. Point-in-time reads are NVWAL's
// alone; the file WAL is the paper's single-writer baseline.
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
	index    map[uint32]int // pgno -> latest committed frame
	chain    uint64         // running checksum of the last frame
	prealloc int            // next pre-allocation size in pages
	// encBuf is commit-path scratch, reused across transactions (guarded
	// by w.mu; ext4.WriteAt copies into the page cache, so the buffer is
	// free again as soon as the write returns).
	encBuf []byte
}

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
	}
	return nil
}

// CommitTransaction implements pager.Journal: append one frame per
// dirty page, the last carrying the commit mark, then fsync once. A
// mid-append failure leaves the frame slots unreferenced (w.frames never
// advanced); the next commit overwrites them.
func (w *WAL) CommitTransaction(frames []pager.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	w.mu.Lock()
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

// FramesSinceCheckpoint implements pager.Journal: every committed frame
// is one not yet written back, since a checkpoint resets the log.
func (w *WAL) FramesSinceCheckpoint() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.frames)
}

// Checkpoint implements pager.Journal as SQLite's blocking checkpoint
// (§2), one round under the writer lock: write the newest frame of every
// logged page back to the database file and fsync it, then truncate the
// log, give it a fresh salt (fencing any stale frames left in the file)
// and fsync the header.
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.frames) == 0 {
		return nil
	}
	start := time.Now()
	page := make([]byte, w.pageSize)
	for pgno, i := range w.index {
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
	w.m.Inc(metrics.CheckpointPages, int64(len(w.index)))
	w.m.Inc(metrics.CheckpointNanos, time.Since(start).Nanoseconds())

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
	w.prealloc = w.opts.InitialPrealloc
	w.m.Inc(metrics.Checkpoints, 1)
	return nil
}

// Mode reports the WAL layout mode.
func (w *WAL) Mode() Mode { return w.opts.Mode }
