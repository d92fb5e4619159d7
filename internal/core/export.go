// Generation export: the replication hook. A primary ships its log to
// replicas as ranges of committed frames addressed by the same mark
// space PageVersionAt and checkpoints use. The export stream re-chains
// the frames with the NVWAL frame-CRC construction (crc32-Castagnoli
// over the frame identity and payload, seeded from the previous
// frame's value), so a receiver verifies shipped ranges exactly the
// way salvage verifies a log tail: a torn or corrupted shipment breaks
// the chain and is rejected, and the §4.2 asynchronous-commit argument
// carries over the wire — a replica holding a chain-valid prefix can
// recover from it.
//
// The hook deliberately exposes only committed state. history gains
// frames solely in whole commit/group units under w.mu, so any mark
// range is a union of complete transactions; an exporter can never
// observe half a commit.
//
// Retention follows the subscribers, not the checkpoint. What an export
// reads is the volatile history mirror (payloads aliasing immutable page
// images), never the NVRAM blocks, so a checkpoint frees its blocks and
// advances the backfill watermark exactly as it does with no subscriber;
// the retired frames at or above the lowest registered ExportCursor move
// into a DRAM-only tail instead of being dropped (their payloads copied
// out of the images, so the tail holds payload bytes only), and the tail
// is trimmed as cursors advance or close. Only a range below every
// cursor — or any retired range when none is registered — is gone:
// ExportSince reports !ok and the subscriber must re-seed from a full
// snapshot. How long a subscriber may keep its cursor is the
// subscriber's policy (repl.Primary), not the log's.
package core

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
)

// ExportFrame is one committed log frame in wire form: the page it
// patches, the byte extent, and whether the payload is a full-page
// image (Off is 0 and trailing zeros may be trimmed).
type ExportFrame struct {
	Pgno    uint32
	Off     uint32
	Full    bool
	Payload []byte
}

// ExportBatch is the contiguous committed mark range [From, To).
// Backfill is the watermark of the exporter's newest checkpoint round at
// or below To when the batch was cut — a round still writing back counts
// from the moment it froze its generation, so the commit that triggered
// an inline round announces it even to a subscriber that ships before the
// round completes; 0 = no round at or below To is known. It is never
// above To. A subscriber that checkpoints on the batch that brings it to
// a watermark it has not yet checkpointed at runs one round per exporter
// round, on the same boundary.
type ExportBatch struct {
	From, To int
	Backfill int
	Frames   []ExportFrame
}

// ExportCursor is one subscriber's registered position in the export
// stream: while it is open, every frame at or above it stays exportable
// across checkpoints. Its methods are safe for concurrent use.
type ExportCursor struct {
	w *NVWAL
	// Guarded by w.mu. behind is w.published as of pos: the payload bytes
	// of every frame below the cursor on the log's running count.
	pos    int
	behind int64
	closed bool
}

// ExportRetention describes the export tail: the retired frames (and
// their payload bytes) it holds now, and the most it has held since the
// log was opened.
type ExportRetention struct {
	Frames, Bytes         int
	PeakFrames, PeakBytes int
}

// OpenExportCursor registers a cursor at the current mark, which is
// always exportable; Seek moves it to where the subscriber stands.
func (w *NVWAL) OpenExportCursor() *ExportCursor {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := &ExportCursor{w: w, pos: w.histBase + len(w.history), behind: w.published}
	w.cursors = append(w.cursors, c)
	return c
}

// Seek moves the cursor to mark — forward as the subscriber acknowledges
// frames, or back to where a reconnecting subscriber says it stands —
// and reports whether [mark, Mark()) is exportable. When it is not (mark
// lies below the retained floor or past the log's mark, or the cursor is
// closed) the cursor stays where it was.
func (c *ExportCursor) Seek(mark int) bool {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if c.closed || mark < w.exportFloor() || mark > w.histBase+len(w.history) {
		return false
	}
	tail, live := w.retained(min(c.pos, mark), max(c.pos, mark))
	moved := payloadBytes(tail) + payloadBytes(live)
	if mark < c.pos {
		moved = -moved
	}
	c.pos, c.behind = mark, c.behind+moved
	w.trimTail()
	return true
}

// Backlog is the payload bytes of the frames at or above the cursor:
// what the subscriber has still to be shipped.
func (c *ExportCursor) Backlog() int64 {
	c.w.mu.RLock()
	defer c.w.mu.RUnlock()
	return c.w.published - c.behind
}

// Close unregisters the cursor and releases what only it retained.
func (c *ExportCursor) Close() {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for i, o := range w.cursors {
		if o == c {
			w.cursors = append(w.cursors[:i], w.cursors[i+1:]...)
			break
		}
	}
	w.trimTail()
}

// ExportRetention reports the export tail's size and high-water mark.
func (w *NVWAL) ExportRetention() ExportRetention {
	w.mu.RLock()
	defer w.mu.RUnlock()
	r := w.tailPeak
	r.Frames, r.Bytes = len(w.tail), int(payloadBytes(w.tail))
	return r
}

// exportFloor is the lowest exportable mark. Caller holds w.mu.
func (w *NVWAL) exportFloor() int {
	if len(w.tail) > 0 {
		return w.tailBase
	}
	return w.histBase
}

// retained returns the frames of [lo, hi) as the part the export tail
// holds and the part still in history. Caller holds w.mu and has checked
// exportFloor() <= lo <= hi <= Mark().
func (w *NVWAL) retained(lo, hi int) (tail, live []histFrame) {
	if lo < w.histBase {
		tail = w.tail[lo-w.tailBase : min(hi, w.histBase)-w.tailBase]
	}
	if hi > w.histBase {
		live = w.history[max(lo, w.histBase)-w.histBase : hi-w.histBase]
	}
	return tail, live
}

func payloadBytes(frames []histFrame) int64 {
	n := 0
	for i := range frames {
		n += len(frames[i].payload)
	}
	return int64(n)
}

// retainForExport keeps, of the history prefix a completing checkpoint
// retires, the frames at or above the lowest registered cursor. The tail
// stays contiguous with history: it is non-empty only while some cursor
// stands below histBase, and then everything retired is at or above that
// cursor. A history payload aliases the whole page image it was logged
// from, so the kept payloads are copied into one arena here: the tail
// then holds the payload bytes Backlog and ExportRetention count — what
// a subscriber's budget bounds — and not a page per frame. Caller holds
// w.mu, before histBase advances.
func (w *NVWAL) retainForExport(retired []histFrame) {
	if len(w.cursors) == 0 {
		return
	}
	from := w.histBase + len(retired)
	for _, c := range w.cursors {
		from = min(from, c.pos)
	}
	from = max(from, w.histBase)
	keep := retired[from-w.histBase:]
	if len(keep) == 0 {
		return
	}
	if len(w.tail) == 0 {
		w.tailBase = from
	}
	arena := make([]byte, payloadBytes(keep))
	for _, hf := range keep {
		n := copy(arena, hf.payload)
		hf.payload, arena = arena[:n:n], arena[n:]
		w.tail = append(w.tail, hf)
	}
	// The tail only grows here, once per checkpoint round: its peak is
	// worth a walk.
	w.tailPeak.PeakFrames = max(w.tailPeak.PeakFrames, len(w.tail))
	w.tailPeak.PeakBytes = max(w.tailPeak.PeakBytes, int(payloadBytes(w.tail)))
}

// trimTail drops the retained frames no registered cursor stands at or
// below — all of them once the last cursor has passed histBase or
// closed. Caller holds w.mu.
func (w *NVWAL) trimTail() {
	if len(w.tail) == 0 {
		return
	}
	low := w.histBase
	for _, c := range w.cursors {
		low = min(low, c.pos)
	}
	n := low - w.tailBase
	switch {
	case n <= 0:
	case n >= len(w.tail):
		w.tail = nil
	default:
		clear(w.tail[:n]) // the dropped frames' payload arenas must not stay reachable
		w.tail, w.tailBase = w.tail[n:], low
	}
}

// ExportSince returns every committed frame in [from, to), read across
// the export tail and the live history. It reports ok=false when the
// range is gone: from precedes the retained floor (the backfill
// watermark, or the lowest registered cursor that was below it when the
// frames retired), lies beyond to, or to lies beyond the current mark —
// either way the caller's cursor has an unhealable gap and must re-seed
// from a full snapshot. An empty batch (From==To) with ok=true means the
// caller is caught up to to.
//
// Payload slices alias the log's immutable history images; callers
// must not mutate them. A batch with frames is out until the caller
// hands it back with ExportDone, and no checkpoint round recycles an
// image while any batch is out (recycle.go): call it once the payloads
// are no longer read. The frame list is built in frames' array (the
// batch's Frames is frames[:0] with the range appended), so a shipper
// that cuts batch after batch keeps one list; nil allocates a fresh one.
func (w *NVWAL) ExportSince(from, to int, frames []ExportFrame) (ExportBatch, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if from < w.exportFloor() || from > to || to > w.histBase+len(w.history) {
		return ExportBatch{}, false
	}
	b := ExportBatch{From: from, To: to}
	switch {
	case w.ckpt != nil && w.ckpt.watermark <= to:
		b.Backfill = w.ckpt.watermark
	case w.histBase <= to:
		b.Backfill = w.histBase
	}
	if from == to {
		return b, true
	}
	w.exporting.Add(1)
	b.Frames = slices.Grow(frames[:0], to-from)
	tail, live := w.retained(from, to)
	for _, part := range [2][]histFrame{tail, live} {
		for _, hf := range part {
			b.Frames = append(b.Frames, ExportFrame{
				Pgno:    hf.pgno,
				Off:     uint32(hf.off),
				Full:    hf.full,
				Payload: hf.payload,
			})
		}
	}
	return b, true
}

// ExportDone hands back a batch with frames that ExportSince returned:
// its payloads are no longer read.
func (w *NVWAL) ExportDone() { w.exporting.Add(-1) }

// ChainExport folds a batch into a running export-stream CRC chain,
// frame by frame, using the on-NVRAM frame checksum construction. Both
// ends of a replication stream run it independently; a divergence in
// the resulting value proves the streams saw different bytes.
func ChainExport(chain uint32, b ExportBatch) uint32 {
	for _, fr := range b.Frames {
		off := fr.Off
		if fr.Full {
			off |= 1 << 31
		}
		chain = crcWord(chain, fr.Pgno)
		chain = crcWord(chain, off)
		chain = crcWord(chain, uint32(len(fr.Payload)))
		chain = crc32.Update(chain, crcTab, fr.Payload)
	}
	return chain
}

// crcWord folds v's four little-endian bytes into crc: crc32.Update over
// them, a byte at a time through crcTab, with no buffer for the frame
// header to escape into (crc32.Update's would, once per frame).
func crcWord(crc, v uint32) uint32 {
	crc = ^crc
	for i := 0; i < 4; i++ {
		crc = crcTab[byte(crc)^byte(v)] ^ crc>>8
		v >>= 8
	}
	return ^crc
}

// ExportChainSeed derives the initial chain value for an export stream
// seeded at a snapshot: both ends fold the snapshot identity (mark) so
// streams rooted at different snapshots cannot be confused.
func ExportChainSeed(mark int) uint32 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(mark))
	return crc32.Checksum(b[:], crcTab)
}
