// Media-fault handling for the database layer: bounded retry of
// transient block-device errors, the degraded read-only latch for
// permanent database-file damage, and the background media scrubber
// auditing the NVRAM log's durable image.
package db

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pager"
	"repro/internal/simclock"
)

// ErrDegraded is the sentinel wrapped by every operation refused in
// degraded read-only mode. A DB degrades when the database file itself
// is damaged beyond the WAL's ability to repair it: recovery found
// unreadable checkpointed pages (SalvageReport.DBFileDamaged), or a
// runtime write hit a permanent device error. The handle stays open —
// reads keep serving the last good snapshot out of the page cache and
// the log — but Begin, CreateTable, DropTable and Checkpoint fail with
// an error matching errors.Is(err, ErrDegraded).
var ErrDegraded = errors.New("db: degraded read-only mode")

// Retry policy for transient device errors: up to ioRetryLimit retries
// per operation with doubling backoff, so a controller hiccup
// (blockdev's transient EIO) is invisible to callers.
const (
	ioRetryLimit   = 2
	ioRetryBackoff = 100 * time.Microsecond
)

// retryFile wraps the database file with the retry policy. Every
// consumer of the file — pager misses, journal backfill, checkpoint
// writeback — goes through it, so a transient EIO anywhere on the db
// path is absorbed identically. A permanent device error is reported to
// onPermanent (the DB's degraded latch) before being returned.
type retryFile struct {
	inner       pager.DBFile
	clock       *simclock.Clock
	m           *metrics.Counters
	onPermanent func(error)
}

func newRetryFile(inner pager.DBFile, clock *simclock.Clock, m *metrics.Counters, onPermanent func(error)) *retryFile {
	return &retryFile{inner: inner, clock: clock, m: m, onPermanent: onPermanent}
}

func (r *retryFile) PageSize() int { return r.inner.PageSize() }

// do runs op, retrying transient errors with doubling backoff. The
// backoff is charged to the virtual clock — retries cost simulated
// time, like everything else on the device path.
func (r *retryFile) do(op func() error) error {
	err := op()
	for attempt := 0; attempt < ioRetryLimit && blockdev.IsTransient(err); attempt++ {
		r.clock.Advance(ioRetryBackoff << attempt)
		r.m.Inc(metrics.IORetries, 1)
		err = op()
	}
	if err != nil && errors.Is(err, blockdev.ErrIO) && !blockdev.IsTransient(err) && r.onPermanent != nil {
		r.onPermanent(err)
	}
	return err
}

func (r *retryFile) ReadPage(pgno uint32, buf []byte) error {
	return r.do(func() error { return r.inner.ReadPage(pgno, buf) })
}

func (r *retryFile) WritePage(pgno uint32, data []byte) error {
	return r.do(func() error { return r.inner.WritePage(pgno, data) })
}

func (r *retryFile) Sync() error {
	return r.do(func() error { return r.inner.Sync() })
}

// degrade latches the DB into degraded read-only mode. First cause
// wins; later calls are no-ops.
func (d *DB) degrade(cause error) {
	d.degradedMu.Lock()
	if d.degradedErr == nil {
		d.degradedErr = fmt.Errorf("%w: %v", ErrDegraded, cause)
	}
	d.degradedMu.Unlock()
}

// ForceDegrade latches the degraded read-only mode exactly as a
// permanent device error would — a fault-injection hook for harnesses
// staging multi-fault scenarios (e.g. a replication source degrading
// mid-re-seed). Irreversible, like the real latch.
func (d *DB) ForceDegrade(cause error) {
	if cause == nil {
		cause = errors.New("fault injection")
	}
	d.degrade(cause)
}

// Degraded returns the latched degraded-mode error (matching
// errors.Is(err, ErrDegraded)), or nil while the DB is healthy.
func (d *DB) Degraded() error {
	d.degradedMu.Lock()
	defer d.degradedMu.Unlock()
	return d.degradedErr
}

// Salvage returns the journal's crash-recovery salvage report (nvwal
// mode after recovering an existing log; nil otherwise).
func (d *DB) Salvage() *core.SalvageReport {
	if d.nv == nil {
		return nil
	}
	return d.nv.Salvage()
}

// maybeKickScrub nudges the background scrubber once ScrubEvery commits
// have accumulated since the last pass.
func (d *DB) maybeKickScrub() {
	if d.scrubKick == nil {
		return
	}
	if d.scrubSince.Add(1) < int64(d.opts.ScrubEvery) {
		return
	}
	d.scrubSince.Store(0)
	select {
	case d.scrubKick <- struct{}{}:
	default:
	}
}

// scrubLoop is the background media scrubber (Options.ScrubEvery):
// each kick audits the durable image of the log's committed frames
// against their chained CRCs — catching silent media rot (a stuck
// NVRAM line, decayed cells) while the volatile copies are still good,
// instead of discovering it in the next crash's salvage. When a pass
// finds bad frames the implicated blocks are already marked for
// quarantine; a checkpoint then rewrites the affected pages from DRAM
// and retires the blocks — the self-healing path.
func (d *DB) scrubLoop(nv *core.NVWAL) {
	defer close(d.scrubDone)
	tr := d.health.Tracker("scrubber")
	for {
		select {
		case <-d.scrubQuit:
			return
		case <-d.scrubKick:
		}
		tr.Arm()
		start := d.plat.Clock.Now()
		res := nv.Scrub()
		tr.Observe(d.plat.Clock.Now() - start)
		tr.Beat()
		tr.Disarm()
		if res.BadFrames == 0 || d.Degraded() != nil {
			continue
		}
		// Best effort: a busy snapshot defers healing to the next kick.
		if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrBusySnapshot) {
			d.ckptErrMu.Lock()
			if d.ckptErr == nil {
				d.ckptErr = fmt.Errorf("db: scrub-triggered checkpoint: %w", err)
			}
			d.ckptErrMu.Unlock()
		}
	}
}

// stopBackground shuts down the background checkpointer and scrubber
// goroutines, at most once.
func (d *DB) stopBackground() {
	d.closeOnce.Do(func() {
		if d.ckptQuit != nil {
			close(d.ckptQuit)
			<-d.ckptDone
		}
		if d.scrubQuit != nil {
			close(d.scrubQuit)
			<-d.scrubDone
		}
	})
}
