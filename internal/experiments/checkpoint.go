package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
)

// CheckpointRow is one (mode, writer count) cell of the checkpoint
// stall sweep. Commit latencies are wall-clock (they capture the real
// blocking a caller experiences, including inline checkpoint I/O and
// lock waits); throughput stays on the calibrated virtual clock like
// every other experiment.
type CheckpointRow struct {
	Mode            string  `json:"mode"` // "blocking" or "background"
	Writers         int     `json:"writers"`
	Txns            int     `json:"txns"`
	P50CommitNs     int64   `json:"p50_commit_ns"`
	P99CommitNs     int64   `json:"p99_commit_ns"`
	MaxCommitNs     int64   `json:"max_commit_ns"`
	Checkpoints     int64   `json:"checkpoints"`
	CheckpointPages int64   `json:"checkpoint_pages"`
	CheckpointNs    int64   `json:"checkpoint_ns_total"`
	CommitStallNs   int64   `json:"commit_stall_ns"`
	Throughput      float64 `json:"txns_per_vsec"`
}

// CheckpointResult holds the blocking-versus-background sweep.
type CheckpointResult struct {
	LatencyNs int64           `json:"nvram_latency_ns"`
	Limit     int             `json:"checkpoint_limit"`
	Rows      []CheckpointRow `json:"rows"`
}

// CheckpointStall measures what auto-checkpointing costs the commit
// path. The blocking baseline runs the checkpoint inline from the
// committing goroutine (the pre-incremental behaviour: every
// CheckpointLimit-th commit absorbs the whole page writeback + fsync,
// which is exactly SQLite's checkpoint hiccup); the background mode
// hands the same work to the checkpointer goroutine, whose phase B runs
// outside the writer lock. The headline number is the p99 commit
// latency collapsing toward the p50 when the stall moves off-path.
//
// The board is Tuna at the slow end of the NVRAM range with a small
// checkpoint limit, so rounds are frequent and the stall is visible.
func CheckpointStall(txns int) (*CheckpointResult, error) {
	if txns <= 0 {
		txns = 400
	}
	const (
		latency = 1942 * time.Nanosecond
		limit   = 16
	)
	res := &CheckpointResult{LatencyNs: latency.Nanoseconds(), Limit: limit}
	for _, background := range []bool{false, true} {
		for _, writers := range []int{1, 4} {
			row, err := runCheckpointStall(background, writers, txns, latency, limit)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runCheckpointStall(background bool, writers, txns int, latency time.Duration, limit int) (CheckpointRow, error) {
	s, err := newSetup(Tuna.at(latency), db.Options{
		Journal:              db.JournalNVWAL,
		NVWAL:                core.VariantUHLSDiff(),
		CPU:                  Tuna.cpu(),
		CheckpointLimit:      limit,
		Concurrent:           true,
		BackgroundCheckpoint: background,
	}, "bench")
	if err != nil {
		return CheckpointRow{}, err
	}
	perWriter := txns / writers
	total := perWriter * writers
	before := s.Plat.Metrics.Snapshot()
	start := s.Plat.Clock.Now()
	wall := time.Now()
	sinceWall := func() time.Duration { return time.Since(wall) }
	val := make([]byte, 100)
	out, err := driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		key := []byte(fmt.Sprintf("w%02d-%06d", w, i))
		return commitTxn(s.DB.Begin, sinceWall, func(tx *db.Tx) error { return tx.Insert("bench", key, val) })
	})
	if err != nil {
		return CheckpointRow{}, err
	}
	elapsed := s.Plat.Clock.Now() - start

	// Let the background checkpointer finish in-flight rounds so both
	// modes report comparable checkpoint totals, then stop it.
	if background {
		deadline := time.Now().Add(5 * time.Second)
		for s.DB.Journal().FramesSinceCheckpoint() >= limit && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	delta := s.Plat.Metrics.Snapshot().Sub(before)
	if err := s.DB.Close(); err != nil {
		return CheckpointRow{}, err
	}
	mode := "blocking"
	if background {
		mode = "background"
	}
	return CheckpointRow{
		Mode:            mode,
		Writers:         writers,
		Txns:            total,
		P50CommitNs:     int64(quantile(out.lats, 0.50)),
		P99CommitNs:     int64(quantile(out.lats, 0.99)),
		MaxCommitNs:     int64(quantile(out.lats, 1)),
		Checkpoints:     delta.Count(metrics.Checkpoints),
		CheckpointPages: delta.Count(metrics.CheckpointPages),
		CheckpointNs:    delta.Count(metrics.CheckpointNanos),
		CommitStallNs:   delta.Count(metrics.CommitStallNanos),
		Throughput:      perSecond(total, elapsed),
	}, nil
}

// Print renders the sweep.
func (r *CheckpointResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Checkpoint stall (NVWAL UH+LS+Diff, Tuna @ %v NVRAM latency, limit %d frames)\n",
		time.Duration(r.LatencyNs), r.Limit)
	fmt.Fprintf(w, "%-11s %-8s %-6s %10s %10s %10s %6s %8s %12s\n",
		"mode", "writers", "txns", "p50(µs)", "p99(µs)", "max(µs)", "ckpts", "pages", "stall(µs)")
	for _, row := range r.Rows {
		us := func(ns int64) float64 { return float64(ns) / 1000 }
		fmt.Fprintf(w, "%-11s %-8d %-6d %10.1f %10.1f %10.1f %6d %8d %12.1f\n",
			row.Mode, row.Writers, row.Txns,
			us(row.P50CommitNs), us(row.P99CommitNs), us(row.MaxCommitNs),
			row.Checkpoints, row.CheckpointPages, us(row.CommitStallNs))
	}
	fmt.Fprintln(w, "latencies are wall-clock per Commit call; background mode moves the")
	fmt.Fprintln(w, "writeback+fsync off the commit path, so p99 falls toward p50")
}
