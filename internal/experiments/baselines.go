package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/mobibench"
)

// BaselineRow is one journal mode's measurement under the standard
// insert workload.
type BaselineRow struct {
	Mode         string
	Throughput   float64
	FsyncsPerTx  float64
	BlockIOPerTx float64 // flash pages written per transaction
	NVRAMPerTx   float64 // NVRAM log bytes per transaction
}

// BaselinesResult compares every journaling scheme in the repository.
type BaselinesResult struct {
	Rows []BaselineRow
}

// Baselines quantifies the §1/§2 motivation: rollback journaling needs
// more fsyncs and I/O than WAL ("WAL needs fewer fsync() calls as it
// modifies a single log file instead of two"), the optimized WAL trims
// the EXT4 overhead, and NVWAL removes block I/O from the commit path
// entirely. Nexus 5, 100-byte single-insert transactions.
func Baselines(txns int) (*BaselinesResult, error) {
	if txns <= 0 {
		txns = 300
	}
	modes := []struct {
		name string
		opts db.Options
	}{
		{"Rollback journal", db.Options{Journal: db.JournalRollback}},
		{"Stock WAL", db.Options{Journal: db.JournalWAL}},
		{"Optimized WAL", db.Options{Journal: db.JournalOptimizedWAL}},
		{"NVWAL UH+LS+Diff", db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff()}},
	}
	res := &BaselinesResult{}
	for _, m := range modes {
		m.opts.CPU, m.opts.CheckpointLimit = Nexus5.cpu(), db1000
		s, err := newSetup(Nexus5, m.opts)
		if err != nil {
			return nil, err
		}
		w, err := mobibench.Prepare(s.DB, mobibench.Workload{
			Op: mobibench.Insert, Transactions: txns, OpsPerTxn: 1, Seed: 17,
		})
		if err != nil {
			return nil, err
		}
		before := s.Plat.Metrics.Snapshot()
		r, err := mobibench.Run(s.DB, s.Plat.Clock, w)
		if err != nil {
			return nil, err
		}
		delta := s.Plat.Metrics.Snapshot().Sub(before)
		n := float64(txns)
		res.Rows = append(res.Rows, BaselineRow{
			Mode:         m.name,
			Throughput:   r.Throughput(),
			FsyncsPerTx:  float64(delta.Count(metrics.Fsync)) / n,
			BlockIOPerTx: float64(delta.Count(metrics.BlockWrite)) / n,
			NVRAMPerTx:   float64(delta.Count(core.MetricLoggedBytes)) / n,
		})
	}
	return res, nil
}

// Print renders the comparison.
func (r *BaselinesResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Journaling baselines (§1/§2 motivation): 100B single-insert transactions, Nexus 5")
	fmt.Fprintf(w, "%-18s %10s %12s %14s %14s\n",
		"mode", "txn/sec", "fsyncs/txn", "flash pg/txn", "NVRAM B/txn")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-18s %10.0f %12.1f %14.1f %14.0f\n",
			row.Mode, row.Throughput, row.FsyncsPerTx, row.BlockIOPerTx, row.NVRAMPerTx)
	}
}
