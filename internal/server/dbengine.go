// DBEngine adapts a local db.DB to the Engine interface: the
// single-node serving path, and the building block repl.Primary wraps.
// Writes queue on the database's writer slot, whose wait the request
// context bounds, so a stalled commit sheds waiters as Busy instead of
// piling goroutines onto the journal lock. Concurrent writers need a
// database opened Concurrent: a legacy-mode one refuses a second writer
// with db.ErrTxnOpen.
package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/db"
)

// DBEngine serves requests from a local database.
type DBEngine struct {
	d     *db.DB
	epoch uint64
}

// NewDBEngine wraps d. epoch is reported in Status (fencing is
// enforced by the Server, which carries its own epoch).
func NewDBEngine(d *db.DB, epoch uint64) *DBEngine {
	return &DBEngine{d: d, epoch: epoch}
}

// DB exposes the wrapped database (replication hooks need it).
func (e *DBEngine) DB() *db.DB { return e.d }

// Get reads the latest committed version.
func (e *DBEngine) Get(table string, key []byte) ([]byte, bool, error) {
	return e.d.Get(table, key)
}

// AppendGet is Get appending the value to dst (AppendGetter).
func (e *DBEngine) AppendGet(dst []byte, table string, key []byte) ([]byte, bool, error) {
	return e.d.AppendGet(dst, table, key)
}

// Apply runs ops as one transaction: the durable commit, then the
// database's auto-checkpoint. A failure after
// Begin rolls the transaction back, so a non-nil error (other than
// ErrIndeterminate, which DBEngine never returns) means "not applied".
func (e *DBEngine) Apply(ctx context.Context, table string, ops []Op) (uint64, error) {
	return e.apply(ctx, table, ops, true)
}

// ApplyDurable is Apply without the auto-checkpoint, for an engine that
// has its own work to do between the commit and the round (repl.Primary
// ships the commit and collects acks first); that caller owes the database
// an AutoCheckpoint.
func (e *DBEngine) ApplyDurable(ctx context.Context, table string, ops []Op) (uint64, error) {
	return e.apply(ctx, table, ops, false)
}

func (e *DBEngine) apply(ctx context.Context, table string, ops []Op, checkpoint bool) (uint64, error) {
	tx, err := e.d.BeginCtx(ctx)
	if err != nil {
		return 0, err
	}
	for _, op := range ops {
		if op.Delete {
			_, err = tx.Delete(table, op.Key)
		} else {
			err = tx.Insert(table, op.Key, op.Value)
		}
		if err != nil {
			tx.Rollback()
			return 0, err
		}
	}
	if err := tx.CommitDurableCtx(ctx); err != nil {
		return 0, err
	}
	if checkpoint {
		// The write is durable and has its seq whatever becomes of the
		// round: a failed one is counted (metrics.CheckpointErrors), latches
		// Degraded if the device is gone for good, and is retried by the
		// next due commit.
		_ = e.d.AutoCheckpoint(false)
	}
	return tx.Seq(), nil
}

// Status reports the primary view of a standalone database.
func (e *DBEngine) Status() Status {
	mark := 0
	if w, ok := e.d.Journal().(*core.NVWAL); ok {
		mark = w.Mark()
	}
	return Status{
		Role:     "primary",
		Epoch:    e.epoch,
		Mark:     mark,
		Applied:  mark,
		Degraded: e.d.Degraded() != nil,
	}
}
