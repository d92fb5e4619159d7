// NVRAM-space backpressure for the database layer. The heap's
// commit-time reservations (heapo.Reserve) make exhaustion an up-front
// ErrLogFull instead of a mid-append surprise; this file turns that
// clean refusal into a survivable workload property:
//
//   - watermarks: when the heap's available pages fall below the soft
//     watermark an urgent checkpoint is kicked early (before the
//     CheckpointLimit would), and below the hard watermark NEW write
//     transactions stall at Begin — in-flight ones keep running — until
//     checkpointing frees space;
//   - deadlines: Options.CommitTimeout (virtual time) and the contexts
//     of BeginCtx/CommitCtx bound every stall; expiry surfaces as a
//     clean ErrBusy with the transaction rolled back;
//   - the degradation ladder's last rung: when the log is fully
//     checkpointed and space is still short, no checkpoint can ever
//     help, so the DB latches ErrDegraded read-only instead of
//     spinning.
package db

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/heapo"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// ErrBusy is returned when a write stalled by NVRAM-space backpressure
// outlives its deadline (Options.CommitTimeout, or the context given to
// BeginCtx/CommitCtx). The transaction is rolled back cleanly: nothing
// reached the journal, and a later retry may succeed once a checkpoint
// frees space.
var ErrBusy = errors.New("db: stalled past deadline by NVRAM backpressure")

// Stall re-probe policy: exponential backoff charged to the virtual
// clock (so CommitTimeout expires deterministically) with a capped real
// sleep in Concurrent mode so checkpointers and closing readers get CPU.
const (
	stallBackoffMin = 100 * time.Microsecond
	stallBackoffMax = 5 * time.Millisecond
)

// pressureState holds the free-space watermarks for a JournalNVWAL
// database. Watermarks are in heap pages and derived from the heap
// size: hard ≈ total/32 and soft ≈ total/8, clamped so tiny fuzzing
// heaps keep a sane gap and huge heaps don't hoard megabytes.
type pressureState struct {
	heap *heapo.Manager
	soft int // kick an urgent checkpoint below this
	hard int // stall new writers below this
}

func newPressureState(heap *heapo.Manager) *pressureState {
	total := heap.TotalPages()
	hard := total / 32
	if hard < 2 {
		hard = 2
	}
	if hard > 64 {
		hard = 64
	}
	soft := total / 8
	if soft < hard+2 {
		soft = hard + 2
	}
	if soft > 256 {
		soft = 256
	}
	return &pressureState{heap: heap, soft: soft, hard: hard}
}

// avail is the page count a checkpoint-free allocation can draw on:
// free runs plus the recycled block pool (pool blocks are immediately
// reusable for log appends without consuming free pages).
func (p *pressureState) avail() int { return p.heap.FreePages() + p.heap.RecycledPages() }

// Pressure reports the space situation the admission watermarks gate
// on: heap pages available, and the soft and hard watermarks. ok is
// false for journal modes without NVRAM backpressure. The serving
// layer probes it to shed load with retry advice before a stall would
// even begin.
func (d *DB) Pressure() (avail, soft, hard int, ok bool) {
	p := d.pressure
	if p == nil {
		return 0, 0, 0, false
	}
	return p.avail(), p.soft, p.hard, true
}

// deadline bounds one backpressure stall: a context (real
// cancellation) plus a virtual-clock expiry derived from
// Options.CommitTimeout. The zero until means no virtual deadline.
// terminal marks a stall whose work cannot be rolled back (a group
// flush): giving up on it degrades the database instead of returning a
// clean, retryable ErrBusy.
type deadline struct {
	d        *DB
	ctx      context.Context
	until    time.Duration
	terminal bool
}

func (d *DB) newDeadline(ctx context.Context) deadline {
	dl := deadline{d: d, ctx: ctx}
	if d.opts.CommitTimeout > 0 {
		dl.until = d.plat.Clock.Now() + d.opts.CommitTimeout
	}
	return dl
}

// expired returns the structured ErrBusy once the deadline passed.
// where names the stall site (see BusyError.Watermark).
func (dl deadline) expired(where string) error {
	if dl.ctx != nil {
		select {
		case <-dl.ctx.Done():
			return dl.busy(where, dl.ctx.Err())
		default:
		}
	}
	if dl.until > 0 && dl.d.plat.Clock.Now() >= dl.until {
		return dl.busy(where, fmt.Errorf("CommitTimeout %v elapsed", dl.d.opts.CommitTimeout))
	}
	return nil
}

// stallStep spends one backoff interval and returns the next (doubled,
// capped). The interval is charged to the virtual clock — stalls cost
// simulated time like any other wait — and, in Concurrent mode, a
// bounded real sleep lets the background checkpointer and closing
// readers run.
func (d *DB) stallStep(backoff time.Duration) time.Duration {
	d.plat.Clock.Advance(backoff)
	d.plat.Metrics.Inc(metrics.PressureStallNs, backoff.Nanoseconds())
	if d.opts.Concurrent {
		real := backoff
		if real > time.Millisecond {
			real = time.Millisecond
		}
		time.Sleep(real)
	}
	if backoff *= 2; backoff > stallBackoffMax {
		backoff = stallBackoffMax
	}
	return backoff
}

// admitWriter gates a NEW write transaction: a degraded database
// refuses it, and otherwise it waits on the space watermarks. Above
// hard it admits immediately (kicking an urgent checkpoint if below
// soft); below hard it stalls with backoff until checkpointing frees
// space, the deadline expires (ErrBusy), or exhaustion is proven
// permanent (ErrDegraded latch). Callers hold no locks — the stall must
// not block the checkpointer, readers, or the in-flight writer.
func (d *DB) admitWriter(ctx context.Context) error {
	if err := d.Degraded(); err != nil {
		return err
	}
	p := d.pressure
	if p == nil {
		return nil
	}
	if a := p.avail(); a >= p.hard {
		if a < p.soft {
			d.urgentCheckpoint()
		}
		return nil
	}
	dl := d.newDeadline(ctx)
	d.plat.Metrics.Inc(metrics.PressureStalls, 1)
	backoff := stallBackoffMin
	for {
		if err := d.Degraded(); err != nil {
			return err
		}
		drained := d.jrn.FramesSinceCheckpoint() == 0
		d.urgentCheckpoint()
		if p.avail() >= p.hard {
			return nil
		}
		if drained {
			// The log held nothing to checkpoint and available space is
			// still below the hard watermark: the space is owned by
			// checkpointed state or other heap users, and no amount of
			// checkpointing can free it. Stalling forever would hang every
			// writer — latch read-only instead.
			d.degrade(fmt.Errorf("NVRAM heap exhausted: log empty, %d pages available, hard watermark %d",
				p.avail(), p.hard))
			return d.Degraded()
		}
		if err := dl.expired("begin-admission"); err != nil {
			d.plat.Metrics.Inc(metrics.CommitTimeouts, 1)
			return err
		}
		// Gray-failure escalation: if the background checkpointer is
		// STALLED — armed with pending rounds but silent past its health
		// budget — more stalling cannot help; the component that frees
		// space is itself wedged (a gray-slow fsync, a degraded device).
		// Shed the write cleanly instead of hanging Begin, which with
		// CommitTimeout=0 would otherwise stall unboundedly behind a
		// fault the deadline machinery never sees.
		if d.ckptKick != nil && d.health.Tracker("checkpointer").State() == health.Stalled {
			d.plat.Metrics.Inc(metrics.CommitTimeouts, 1)
			return dl.busy("checkpointer-stalled",
				errors.New("background checkpointer stalled past health budget"))
		}
		backoff = d.stallStep(backoff)
	}
}

// urgentCheckpoint starts a checkpoint round ahead of CheckpointLimit:
// with a background checkpointer it only kicks the goroutine (the loop
// also drains on the soft watermark); inline it try-acquires the writer
// slot and checkpoints synchronously. A busy slot or an open snapshot
// defers to the caller's re-probe loop.
func (d *DB) urgentCheckpoint() {
	if d.Degraded() != nil || d.jrn.FramesSinceCheckpoint() == 0 {
		return
	}
	d.plat.Metrics.Inc(metrics.UrgentCheckpoints, 1)
	if d.ckptKick != nil {
		d.kickCheckpoint()
		return
	}
	if !d.tryAcquireSlot() {
		return
	}
	defer d.releaseSlot()
	_ = d.checkpointLocked(false)
}

// flushSolo commits one transaction's frames through the journal,
// absorbing NVRAM exhaustion (retryLogFull). On failure the caller rolls
// the pager back. Called with the writer slot held.
func (d *DB) flushSolo(dl deadline, frames []pager.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	jrn := d.pg.Journal() // the pager's journal: fault wrappers included
	return d.retryLogFull(dl, "commit-log-full", func() error { return jrn.CommitTransaction(frames) })
}

// retryLogFull runs one journal append, absorbing NVRAM exhaustion. The
// journal returns ErrLogFull before any NVRAM mutation (the commit-time
// reservation failed), so the identical attempt can be repeated after a
// checkpoint and a backoff until space frees, the deadline expires
// (ErrBusy naming the stall site where; a terminal deadline also
// degrades the database), or exhaustion is proven permanent (ErrDegraded
// latch). Callers hold the writer slot and possibly gc.mu; reclaim takes
// neither.
func (d *DB) retryLogFull(dl deadline, where string, attempt func() error) error {
	var backoff time.Duration
	drained := false
	for {
		err := attempt()
		if err == nil || !errors.Is(err, core.ErrLogFull) {
			return err
		}
		switch {
		case backoff == 0:
			d.plat.Metrics.Inc(metrics.PressureStalls, 1)
			backoff = stallBackoffMin
		case drained:
			// The log held nothing to free on the previous round and the
			// append still does not fit: no future checkpoint can ever
			// make it fit.
			d.degrade(fmt.Errorf("NVRAM heap exhausted: %v", err))
			return d.Degraded()
		default:
			if derr := dl.expired(where); derr != nil {
				d.plat.Metrics.Inc(metrics.CommitTimeouts, 1)
				if dl.terminal {
					d.degrade(fmt.Errorf("%s: abandoned at its deadline under NVRAM exhaustion: %v", where, err))
				}
				return derr
			}
			backoff = d.stallStep(backoff)
		}
		// Sampled before the checkpoint, judged after the next attempt.
		drained = d.jrn.FramesSinceCheckpoint() == 0
		if rerr := d.reclaim(); rerr != nil {
			return rerr
		}
	}
}

// reclaim runs one incremental checkpoint round for the commit-path
// retry loops. Those loops already hold the writer slot and possibly
// gc.mu, so it must not call Checkpoint/checkpointLocked (which take
// them); NVWAL serializes rounds internally. A round a reader's pinned
// mark refuses returns nil — the caller backs off and retries as the
// reader closes.
func (d *DB) reclaim() error {
	if d.nv == nil || d.nv.FramesSinceCheckpoint() == 0 {
		return nil
	}
	d.plat.Metrics.Inc(metrics.UrgentCheckpoints, 1)
	err := d.nv.Checkpoint()
	if errors.Is(err, pager.ErrCheckpointPending) {
		return nil
	}
	return err
}
