package experiments

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/db"
	"repro/internal/simclock"
)

// The extension sweeps (checkpoint, pressure, shards, mvcc)
// share one shape: W writer goroutines run transaction loops against one
// freshly opened database, and a cell's row is the loops' outcome mapped
// onto that sweep's columns. Each sweep supplies only its grid, its
// per-transaction body (built on commitTxn) and that mapping.

// sweep is what driveWriters reports for one cell.
type sweep struct {
	committed, busy int
	lats            []time.Duration // committed transactions' latencies, ascending
}

// driveWriters runs txn(w, i) for i < perWriter on each of `writers`
// goroutines. A nil error is a commit and its latency is kept; ErrBusy
// is a clean rollback and is counted; any other error stops that writer,
// and the first such error is returned once every writer has stopped.
func driveWriters(writers, perWriter int, txn func(w, i int) (time.Duration, error)) (sweep, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		out     sweep
		hardErr error
	)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				lat, err := txn(w, i)
				mu.Lock()
				switch {
				case err == nil:
					out.committed++
					out.lats = append(out.lats, lat)
				case !stops(err):
					out.busy++
				case hardErr == nil:
					hardErr = err
				}
				mu.Unlock()
				if stops(err) {
					return
				}
			}
		}()
	}
	wg.Wait()
	slices.Sort(out.lats)
	return out, hardErr
}

// stops reports whether err ends a writer's loop: anything but a commit
// or an ErrBusy rollback.
func stops(err error) bool { return err != nil && !errors.Is(err, db.ErrBusy) }

// commitStats is the part of a row every commit-latency sweep reports
// the same way. Rows embed it, so its JSON keys sit beside their own.
type commitStats struct {
	Committed   int     `json:"committed"`
	Busy        int     `json:"busy"` // ErrBusy outcomes (clean deadline rollbacks)
	P50CommitNs int64   `json:"p50_commit_ns"`
	P99CommitNs int64   `json:"p99_commit_ns"`
	Throughput  float64 `json:"txn_per_sec"` // virtual-time transactions/sec
}

// stats maps the outcome onto commitStats over the cell's virtual elapsed
// time.
func (s sweep) stats(elapsed time.Duration) commitStats {
	return commitStats{
		Committed:   s.committed,
		Busy:        s.busy,
		P50CommitNs: int64(quantile(s.lats, 0.50)),
		P99CommitNs: int64(quantile(s.lats, 0.99)),
		Throughput:  simclock.Throughput(s.committed, elapsed),
	}
}

// quantile returns the q-quantile of ascending values, the element at
// index ⌊(n−1)·q⌋ (so q = 1 is the maximum), or 0 when there is none.
// Every percentile an experiment reports goes through it.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(float64(len(sorted)-1)*q)]
}

// commitTxn runs one transaction — begin, ops, then a Commit timed on
// now — and returns the Commit's duration. Every error before the commit
// rolls the transaction back: in Concurrent mode a transaction left open
// holds the writer slot, and every other writer would block in Begin. A
// failed Commit has already rolled itself back.
func commitTxn[T interface {
	Commit() error
	Rollback()
}](begin func() (T, error), now func() time.Duration, ops func(T) error) (time.Duration, error) {
	tx, err := begin()
	if err != nil {
		return 0, err
	}
	if err := ops(tx); err != nil {
		tx.Rollback()
		return 0, err
	}
	t0 := now()
	err = tx.Commit()
	return now() - t0, err
}

// Find returns the first of rows that match accepts, or nil: the one
// lookup over every result's rows, cells and points.
func Find[R any](rows []R, match func(R) bool) *R {
	for i := range rows {
		if match(rows[i]) {
			return &rows[i]
		}
	}
	return nil
}
