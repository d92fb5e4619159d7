package core

import (
	"fmt"

	"repro/internal/pager"
)

// Two-phase commit over commit marks (cross-shard transactions).
//
// A multi-shard transaction is made crash-atomic without any inter-shard
// ordering on the hot path, exploiting the same property Algorithm 1
// already relies on: a frame group is invisible to recovery until the
// 8-byte-atomic mark on its last frame says otherwise.
//
//   - Prepare (per shard): append the shard's frames exactly as a commit
//     would, but write preparedFlag|gtx instead of the commit value as
//     the mark and persist it. The frames are durable yet provisional.
//   - Decide (coordinator): persist gtx into the shared commit-sequence
//     record — one 8-byte-atomic store; this is the transaction's sole
//     commit point.
//   - Complete (per shard): flip the provisional mark to the commit
//     value in place (the mark word is outside the frame CRC chain, so
//     the flip never re-chains) and publish the frames to the volatile
//     index.
//
// Recovery on a shard that crashed between prepare and complete finds a
// prepared mark at its log tail and asks Config.PreparedResolver whether
// the coordinator decided: yes → flip the mark and keep the frames; no →
// truncate them like any uncommitted tail. Because the engine refuses
// ordinary commits and new checkpoint rounds while a prepare is pending,
// prepared frames are always the log tail and at most one transaction
// per shard is ever in doubt.

// PrepareTransaction appends frames under a provisional mark carrying
// the global transaction id gtx (phase one of 2PC). gtx must be nonzero
// and must not use the top bit. On success the transaction is pending:
// the engine accepts no other append until CompletePrepared or
// AbortPrepared resolves it. On failure the log is unwound and intact
// (ErrLogFull is retryable, as on the commit path).
func (w *NVWAL) PrepareTransaction(frames []pager.Frame, gtx uint64) error {
	if gtx == 0 || gtx&preparedFlag != 0 {
		return fmt.Errorf("nvwal: invalid global transaction id %#x", gtx)
	}
	w.lockWriter()
	defer w.mu.Unlock()
	if err := w.writable(); err != nil {
		return err
	}
	// The staged images and history records are held until the decision,
	// so the prepare stages into a stream of its own, not the writer's
	// scratch one.
	s := w.newStream(0)
	if err := w.stageFrames(&s, frames); err != nil {
		return err
	}
	return w.appendStreams([]*Stream{&s}, preparedFlag|gtx, 0)
}

// CompletePrepared commits the pending prepared transaction: the
// provisional mark is flipped to the commit value with the same 8-byte-
// atomic persist discipline as a commit mark, and the frames are
// published to the volatile index. Call only after the coordinator's
// decide record is durable.
func (w *NVWAL) CompletePrepared(gtx uint64) error {
	w.lockWriter()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	p := w.pendingPrep
	if p == nil || p.gtx != gtx {
		return fmt.Errorf("%w: gtx %d", ErrNoPrepared, gtx)
	}
	if len(p.hist) > 0 {
		w.persistMark(p.markAddr, commitValue)
	}
	w.publish(p.chainAfter, p.hist, p.streams, 1)
	w.pendingPrep = nil
	return nil
}

// AbortPrepared rolls the pending prepared transaction back: its frames
// are unwound from the log (fresh blocks freed, tail cursor restored,
// first garbage slot scrubbed) exactly like a failed append. Call when
// the coordinator decides abort — the provisional mark was never a
// commit, so nothing was ever visible.
func (w *NVWAL) AbortPrepared(gtx uint64) error {
	w.lockWriter()
	defer w.mu.Unlock()
	p := w.pendingPrep
	if p == nil || p.gtx != gtx {
		return fmt.Errorf("%w: gtx %d", ErrNoPrepared, gtx)
	}
	w.pendingPrep = nil
	if len(p.hist) == 0 {
		return nil
	}
	return w.abortAppend(p.undoBlocks, p.undoTail, nil)
}

// PreparedGtx returns the pending prepared transaction's global id, or
// zero when none is pending.
func (w *NVWAL) PreparedGtx() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.pendingPrep == nil {
		return 0
	}
	return w.pendingPrep.gtx
}
