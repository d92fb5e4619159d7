package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
)

// ConcurrentRow is one (writer count, group size) cell of the sweep.
type ConcurrentRow struct {
	Writers     int
	GroupSize   int
	Txns        int
	BarriersTxn float64 // persist barriers per transaction
	Groups      int64   // batched flushes taken
	Throughput  float64 // transactions per virtual second
}

// ConcurrentResult holds the writers × group-size sweep.
type ConcurrentResult struct {
	Latency time.Duration
	Rows    []ConcurrentRow
}

// Concurrent measures group commit on the real engine under goroutine
// concurrency — the end-to-end version of the GroupCommit ablation.
// W writer sessions run single-insert transaction loops against one
// Concurrent-mode NVWAL database; the group committer batches the
// overlapping commits through one Algorithm 1 sequence per group
// (Figure: persist barriers per transaction fall toward 1/min(W, K) of
// the solo cost as the group widens).
//
// The board is Tuna at the slow end of the NVRAM latency range, where
// ordering overhead is most visible (§5.2), with auto-checkpointing off
// so the commit path dominates.
func Concurrent(txns int) (*ConcurrentResult, error) {
	if txns <= 0 {
		txns = 240
	}
	const latency = 1942 * time.Nanosecond
	res := &ConcurrentResult{Latency: latency}
	for _, writers := range []int{1, 2, 4, 8} {
		for _, group := range []int{1, 4, 8} {
			row, err := runConcurrent(writers, group, txns, latency)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func runConcurrent(writers, group, txns int, latency time.Duration) (ConcurrentRow, error) {
	s, err := newSetup(Tuna.at(latency), db.Options{
		Journal:         db.JournalNVWAL,
		NVWAL:           core.VariantUHLSDiff(),
		CPU:             Tuna.cpu(),
		CheckpointLimit: -1,
		Concurrent:      true,
		GroupCommit:     group,
	}, "bench")
	if err != nil {
		return ConcurrentRow{}, err
	}
	perWriter := txns / writers
	total := perWriter * writers
	// Register every session before the first commit so the group
	// committer forms deterministic groups of min(writers, group).
	sessions := make([]*db.Writer, writers)
	for i := range sessions {
		sessions[i] = s.DB.Writer()
	}
	before := s.Plat.Metrics.Snapshot()
	start := s.Plat.Clock.Now()
	val := make([]byte, 100)
	_, err = driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		key := []byte(fmt.Sprintf("w%02d-%06d", w, i))
		lat, err := commitTxn(sessions[w].Begin, s.Plat.Clock.Now, func(tx *db.Tx) error {
			return tx.Insert("bench", key, val)
		})
		if stops(err) || i == perWriter-1 {
			sessions[w].Close() // a group waits for every registered session
		}
		return lat, err
	})
	if err != nil {
		return ConcurrentRow{}, err
	}
	delta := s.Plat.Metrics.Snapshot().Sub(before)
	return ConcurrentRow{
		Writers:     writers,
		GroupSize:   group,
		Txns:        total,
		BarriersTxn: float64(delta.Count(metrics.PersistBarrier)) / float64(max(total, 1)),
		Groups:      delta.Count(metrics.GroupCommits),
		Throughput:  perSecond(total, s.Plat.Clock.Now()-start),
	}, nil
}

// Print renders the sweep.
func (r *ConcurrentResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Concurrent group commit (NVWAL UH+LS+Diff, Tuna @ %v NVRAM latency)\n", r.Latency)
	fmt.Fprintf(w, "%-8s %-6s %-6s %14s %8s %12s\n",
		"writers", "K", "txns", "barriers/txn", "groups", "txn/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-6d %-6d %14.2f %8d %12.0f\n",
			row.Writers, row.GroupSize, row.Txns, row.BarriersTxn, row.Groups, row.Throughput)
	}
	fmt.Fprintln(w, "groups of min(writers, K) share one flush batch + one commit-mark persist")
}
