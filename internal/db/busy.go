// Structured backpressure errors. The ErrBusy sentinel stays the
// programmatic contract (errors.Is keeps working everywhere), but the
// value surfaced from a Begin/commit stall is a *BusyError carrying
// what an operator — or the serving layer's retry-advice wire field —
// needs: which limit tripped, the space situation at the trip, which
// shard, and a suggested backoff.
package db

import (
	"errors"
	"fmt"
	"time"
)

// SuggestedBusyBackoff is the default retry advice attached to shed
// writes: the stall loop's backoff cap, long enough for an urgent
// checkpoint round to free space.
const SuggestedBusyBackoff = stallBackoffMax

// BusyError is the structured form of ErrBusy: a write stalled by
// NVRAM backpressure past its deadline and was rolled back cleanly.
// errors.Is(err, ErrBusy) matches it; errors.As extracts it.
type BusyError struct {
	// Shard is the engine shard that shed the write, or -1 for an
	// unsharded database (the shard layer annotates it on the way out).
	Shard int
	// Watermark names the limit that tripped: "begin-admission" (hard
	// watermark at Begin), "commit-log-full" (ErrLogFull retry loop),
	// "group-deadline" (group commit abandoned), "prepare-log-full"
	// (2PC prepare), "mvcc-commit" (concurrent session commit),
	// "checkpointer-stalled" (the health watchdog latched the
	// background checkpointer stalled, so waiting cannot help),
	// "writer-slot" (the context ended while Begin waited for the
	// writer slot in Concurrent mode).
	Watermark string
	// Avail and Hard are the heap pages available and the hard
	// watermark at the moment the deadline expired.
	Avail, Hard int
	// Backoff is the suggested wait before retrying — long enough for
	// an urgent checkpoint round to free space.
	Backoff time.Duration
	// Cause is the deadline that expired (a context error or the
	// CommitTimeout description).
	Cause error
}

func (e *BusyError) Error() string {
	msg := fmt.Sprintf("%v [%s: %d pages available, hard watermark %d, retry after %v",
		ErrBusy, e.Watermark, e.Avail, e.Hard, e.Backoff)
	if e.Shard >= 0 {
		msg += fmt.Sprintf(", shard %d", e.Shard)
	}
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg + "]"
}

// Unwrap makes errors.Is(err, ErrBusy) and errors.Is against the
// underlying cause (e.g. context.DeadlineExceeded) both match.
func (e *BusyError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrBusy, e.Cause}
	}
	return []error{ErrBusy}
}

// busy builds the structured error for one expired stall, sampling the
// space situation at the trip.
func (dl deadline) busy(where string, cause error) *BusyError {
	be := &BusyError{Shard: -1, Watermark: where, Backoff: stallBackoffMax, Cause: cause}
	if dl.d != nil && dl.d.pressure != nil {
		be.Avail = dl.d.pressure.avail()
		be.Hard = dl.d.pressure.hard
	}
	return be
}

// WithShard returns err with the shard id annotated when err carries a
// BusyError that has none yet; any other error passes through. The
// shard layer calls it so multi-engine callers learn which engine shed.
func WithShard(err error, shard int) error {
	var be *BusyError
	if errors.As(err, &be) && be.Shard < 0 {
		cp := *be
		cp.Shard = shard
		return &cp
	}
	return err
}
