// Two-phase commit front-end for cross-shard transactions. A sharded
// deployment runs one DB per shard; a transaction touching several
// shards opens one Tx per shard, Prepares them all, persists a single
// decide record (the coordinator's job — see internal/shard), then
// Completes each. The per-shard half implemented here maps directly
// onto the journal's prepared-transaction API (core.PrepareTransaction
// etc.): Prepare makes the shard's frames durable-but-provisional while
// the transaction keeps its writer slot and open pager transaction, so
// Complete and Abort are cheap, local and cannot hit NVRAM exhaustion.
package db

import (
	"errors"
	"fmt"

	"repro/internal/pager"
)

// ErrNotPrepared is returned by CompletePrepared/AbortPrepared on a
// transaction that has not been through a successful Prepare.
var ErrNotPrepared = errors.New("db: transaction is not prepared")

// ErrPrepared is returned by Commit on a prepared transaction: its fate
// belongs to the coordinator, so only CompletePrepared or AbortPrepared
// may resolve it.
var ErrPrepared = errors.New("db: transaction is prepared; use CompletePrepared or AbortPrepared")

// preparedJournal is the journal surface Prepare needs. The NVWAL
// journal implements it; rollback journals do not, so Prepare on a
// JournalRollback database fails cleanly.
type preparedJournal interface {
	PrepareTransaction(frames []pager.Frame, gtx uint64) error
	CompletePrepared(gtx uint64) error
	AbortPrepared(gtx uint64) error
}

// Prepare runs phase one of 2PC for this shard: the transaction's
// frames are appended to the journal under a provisional mark carrying
// the global transaction id gtx, durable but invisible. On success the
// transaction stays open — it holds the writer slot and its pager
// transaction until CompletePrepared or AbortPrepared — and the journal
// refuses any other append, so the prepared frames remain the log tail
// for recovery to find. On failure the transaction is rolled back
// entirely, like a failed Commit.
//
// NVRAM exhaustion is absorbed the same way Commit absorbs it
// (retryLogFull). A failed prepare leaves no pending state in the
// journal, so the retry's checkpoint rounds are never refused.
func (tx *Tx) Prepare(gtx uint64) error {
	if err := tx.guard(); err != nil {
		return err
	}
	if tx.prepared {
		return fmt.Errorf("db: transaction already prepared (gtx %d)", tx.gtx)
	}
	d := tx.db
	pj, ok := d.pg.Journal().(preparedJournal)
	if !ok {
		tx.Rollback()
		return fmt.Errorf("db: journal %T does not support prepared transactions", d.pg.Journal())
	}
	// Flush the sessions already queued first, as a commit does: the
	// prepared frames build on their pages and must follow them in the
	// journal, which refuses any other append until the decision.
	if err := d.gc.flushPending(); err != nil {
		tx.Rollback()
		return err
	}
	d.chargeCPU(d.opts.CPU.TxnFixed)
	frames, err := d.pg.PrepareCommit()
	if err != nil {
		tx.Rollback()
		return err
	}
	err = d.retryLogFull(d.newDeadline(tx.ctx), "prepare-log-full", func() error { return pj.PrepareTransaction(frames, gtx) })
	if err != nil {
		tx.Rollback()
		return fmt.Errorf("pager: prepare failed, transaction rolled back: %w", err)
	}
	tx.prepared = true
	tx.gtx = gtx
	// The pager's frame list stays valid while its transaction is open,
	// and a prepared transaction keeps it open until the decision.
	tx.frames = frames
	return nil
}

// CompletePrepared commits a prepared transaction after the
// coordinator's decide record is durable: the provisional mark flips to
// a commit mark, the frames publish, and the transaction closes like a
// committed one (sequence number assigned, slot released, scrub and
// auto-checkpoint nudged).
func (tx *Tx) CompletePrepared() error {
	if !tx.prepared || tx.done {
		return ErrNotPrepared
	}
	d := tx.db
	pj := d.pg.Journal().(preparedJournal)
	if err := pj.CompletePrepared(tx.gtx); err != nil {
		// The journal still holds the prepared transaction (or is
		// broken); the caller may retry or abort. Nothing released.
		return err
	}
	tx.done = true
	tx.prepared = false
	gc := d.gc
	gc.mu.Lock()
	tx.seq = gc.stamp(tx.frames)
	gc.mu.Unlock()
	tx.frames = nil
	d.pg.FinishCommit()
	d.releaseSlot()
	d.maybeKickScrub()
	return d.AutoCheckpoint(false)
}

// AbortPrepared rolls a prepared transaction back after the coordinator
// decides abort (or a sibling shard's prepare fails): the provisional
// frames are unwound from the journal, the pager transaction rolls
// back, and the slot is released. The provisional mark was never a
// commit, so nothing was ever visible.
func (tx *Tx) AbortPrepared() error {
	if !tx.prepared || tx.done {
		return ErrNotPrepared
	}
	d := tx.db
	pj := d.pg.Journal().(preparedJournal)
	err := pj.AbortPrepared(tx.gtx)
	tx.done = true
	tx.prepared = false
	d.pg.Rollback()
	d.releaseSlot()
	return err
}

// Gtx returns the global transaction id set by a successful Prepare.
func (tx *Tx) Gtx() uint64 { return tx.gtx }
