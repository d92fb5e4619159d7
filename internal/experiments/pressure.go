package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/heapo"
	"repro/internal/metrics"
	"repro/internal/nvram"
	"repro/internal/platform"
)

// PressureRow is one (heap size, writer count) cell of the exhaustion
// sweep: a sustained overwrite workload against a heap far smaller than
// the data it logs, so survival depends entirely on the watermark
// backpressure (urgent checkpoints, admission stalls, commit-side
// retries). Latencies are virtual-clock nanoseconds.
type PressureRow struct {
	HeapPages int `json:"heap_pages"`
	Writers   int `json:"writers"`
	Txns      int `json:"txns"`
	commitStats
	Stalls      int64 `json:"pressure_stalls"`
	StallNs     int64 `json:"pressure_stall_ns"`
	UrgentCkpts int64 `json:"urgent_checkpoints"`
	Timeouts    int64 `json:"commit_timeouts"`
}

// PressureResult holds the heap-size × writer sweep.
type PressureResult struct {
	ValueBytes    int           `json:"value_bytes"`
	CommitTimeout time.Duration `json:"commit_timeout_ns"`
	Rows          []PressureRow `json:"rows"`
}

// Pressure measures commit behavior under NVRAM-space exhaustion. Each
// cell cycles full-content overwrites of a small key set (every byte of
// the value changes per write, so differential logging produces real
// log volume) against heaps sized for a handful of transactions. Before
// this PR's reservations and watermarks the workload died on a raw
// allocation error; now every transaction either commits — the common
// case, stalled briefly while an urgent checkpoint frees space — or
// rolls back cleanly with ErrBusy at its deadline.
func Pressure(txns int) (*PressureResult, error) {
	if txns <= 0 {
		txns = 400
	}
	res := &PressureResult{
		ValueBytes:    1024,
		CommitTimeout: 20 * time.Millisecond,
	}
	for _, pages := range []int{24, 48, 96, 192} {
		for _, writers := range []int{1, 4} {
			row, err := runPressure(pages, writers, txns, res.ValueBytes, res.CommitTimeout)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runPressure(pages, writers, txns, valueBytes int, timeout time.Duration) (PressureRow, error) {
	s, err := newSetup(configured(platform.Config{NVRAM: nvram.Config{Size: heapo.SizeForPages(pages)}}), db.Options{
		Journal:       db.JournalNVWAL,
		NVWAL:         core.VariantUHLSDiff(),
		Concurrent:    writers > 1,
		GroupCommit:   writers,
		CommitTimeout: timeout,
	}, "bench")
	if err != nil {
		return PressureRow{}, err
	}
	perWriter := txns / writers
	before := s.Plat.Metrics.Snapshot()
	start := s.Plat.Clock.Now()
	out, err := driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		// Full-content overwrite: 8 keys per writer, every value byte
		// varies with the iteration.
		key := []byte(fmt.Sprintf("w%d-k%d", w, i%8))
		val := make([]byte, valueBytes)
		benchValue(val, w, i)
		return commitTxn(s.DB.Begin, s.Plat.Clock.Now, func(tx *db.Tx) error { return tx.Insert("bench", key, val) })
	})
	if err != nil {
		return PressureRow{}, fmt.Errorf("heap=%d writers=%d: %w", pages, writers, err)
	}
	delta := s.Plat.Metrics.Snapshot().Sub(before)
	return PressureRow{
		HeapPages:   pages,
		Writers:     writers,
		Txns:        perWriter * writers,
		commitStats: out.stats(s.Plat.Clock.Now() - start),
		Stalls:      delta.Count(metrics.PressureStalls),
		StallNs:     delta.Count(metrics.PressureStallNs),
		UrgentCkpts: delta.Count(metrics.UrgentCheckpoints),
		Timeouts:    delta.Count(metrics.CommitTimeouts),
	}, nil
}

// Print renders the sweep.
func (r *PressureResult) Print(w io.Writer) {
	fmt.Fprintf(w, "NVRAM-space exhaustion sweep (UH+LS+Diff, %dB full-content overwrites, CommitTimeout %v)\n",
		r.ValueBytes, r.CommitTimeout)
	fmt.Fprintf(w, "%-6s %-8s %-6s %-10s %-5s %12s %12s %8s %12s %8s %9s %10s\n",
		"pages", "writers", "txns", "committed", "busy", "p50(ns)", "p99(ns)",
		"stalls", "stall(ns)", "urgent", "timeouts", "txn/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-6d %-8d %-6d %-10d %-5d %12d %12d %8d %12d %8d %9d %10.0f\n",
			row.HeapPages, row.Writers, row.Txns, row.Committed, row.Busy,
			row.P50CommitNs, row.P99CommitNs, row.Stalls, row.StallNs,
			row.UrgentCkpts, row.Timeouts, row.Throughput)
	}
	fmt.Fprintln(w, "every transaction commits or rolls back cleanly; raw allocation errors never escape")
}
