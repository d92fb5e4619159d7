package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// MVCCRow is one (mode, writer count) cell of the multi-writer MVCC
// sweep over an OVERLAPPING keyspace: every writer updates the same
// shared key set, so the legacy mode serializes on the writer slot
// while MVCC sessions build their frame chains in parallel and pay only
// for real page conflicts at commit. Latencies are virtual-clock
// nanoseconds on the platform clock (the parent of the per-writer
// lanes, so it reads the max over parallel writers).
type MVCCRow struct {
	Mode    string `json:"mode"` // "legacy" (slot-serialized Begin) or "mvcc" (sessions)
	Writers int    `json:"writers"`
	Txns    int    `json:"txns"`
	commitStats
	Conflicts   int64   `json:"conflicts"`    // commit-time validation losses (retried)
	ConflictPct float64 `json:"conflict_pct"` // conflicts / commit attempts
	BarriersTxn float64 `json:"barriers_txn"` // persist barriers per committed txn
}

// MVCCResult holds the mode × writer-count sweep.
type MVCCResult struct {
	ValueBytes int           `json:"value_bytes"`
	SharedKeys int           `json:"shared_keys"`
	Latency    time.Duration `json:"nvram_latency_ns"`
	Rows       []MVCCRow     `json:"rows"`
}

// MVCC measures multi-writer commit throughput on one shared keyspace
// at 8–64 writers, legacy slot transactions versus MVCC sessions. The
// keyspace is pre-populated so the tree shape is stable and conflicts
// come from data-page contention, not structural splits. Each MVCC
// writer charges its CPU to its own simclock lane (independent cores);
// the journal flush itself still charges the shared platform clock, so
// what the MVCC rows demonstrate is exactly the tentpole claim: with
// per-writer streams the serialized portion shrinks to one merged
// Algorithm 1 flush per group, and throughput grows with writers
// instead of staying flat.
func MVCC(txns int) (*MVCCResult, error) {
	if txns <= 0 {
		txns = 4000
	}
	res := &MVCCResult{
		ValueBytes: 128,
		SharedKeys: 512,
		Latency:    500 * time.Nanosecond,
	}
	for _, mode := range []string{"legacy", "mvcc"} {
		for _, writers := range []int{8, 16, 32, 64} {
			row, err := runMVCCCell(mode, writers, txns, res)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// mvccBenchRetries bounds conflict retries per transaction; the bench
// counts every loss and retries with a fresh snapshot, which is how a
// real client uses ErrConflict.
const mvccBenchRetries = 128

func runMVCCCell(mode string, writers, txns int, res *MVCCResult) (MVCCRow, error) {
	opts := shardBenchOpts()
	opts.GroupCommit = writers // batches the mvcc rows' sessions; a legacy Tx commits alone
	// The paper's point (§5.1) is that query-processing CPU dominates
	// transactions. Charging the calibrated profile is what the sweep
	// measures: legacy writers burn that CPU serialized on the writer
	// slot (one shared clock), MVCC sessions burn it on per-writer lanes
	// (independent cores), so only the merged flush stays serial.
	opts.CPU = db.CPUTuna
	s, err := newSetup(configured(shardBenchConfig(res.Latency)), opts, "bench")
	if err != nil {
		return MVCCRow{}, err
	}
	d, clock := s.DB, s.Plat.Clock
	keys := make([][]byte, res.SharedKeys)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("k%04d", k))
	}
	// Pre-populate the whole shared keyspace so the sweep measures
	// data-page contention on a stable tree.
	for lo := 0; lo < len(keys); lo += 64 {
		if _, err := commitTxn(d.Begin, clock.Now, func(tx *db.Tx) error {
			val := make([]byte, res.ValueBytes)
			for k := lo; k < lo+64 && k < len(keys); k++ {
				benchValue(val, k, 0)
				if err := tx.Insert("bench", keys[k], val); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return MVCCRow{}, err
		}
	}

	perWriter := txns / writers
	before := s.Plat.Metrics.Snapshot()
	start := clock.Now()
	// All lanes are created at the sweep origin, BEFORE any writer runs:
	// a lane created lazily inside its goroutine would start at whatever
	// time the other writers had already pushed the parent clock to, and
	// the sweep would serialize in virtual time exactly when the host
	// scheduler staggers goroutine start-up.
	lanes := make([]*simclock.Clock, writers)
	rngs := make([]*rand.Rand, writers)
	for w := range lanes {
		lanes[w] = clock.NewLane()
		rngs[w] = rand.New(rand.NewSource(int64(w)*7919 + 17))
	}
	out, err := driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		key := keys[rngs[w].Intn(len(keys))]
		val := make([]byte, res.ValueBytes)
		benchValue(val, w, i+1)
		if mode == "legacy" {
			// A slot transaction: Begin serializes on the writer slot, so
			// concurrent legacy writers queue no matter how many cores
			// they have.
			return commitTxn(d.Begin, clock.Now, func(tx *db.Tx) error { return tx.Insert("bench", key, val) })
		}
		// An MVCC session on the writer's own CPU lane, retrying
		// first-committer-wins losses with a fresh snapshot.
		begin := func() (*db.CTx, error) {
			tx, err := d.BeginConcurrent()
			if err == nil {
				tx.SetClock(lanes[w])
			}
			return tx, err
		}
		for try := 0; try <= mvccBenchRetries; try++ {
			lat, err := commitTxn(begin, clock.Now, func(tx *db.CTx) error { return tx.Insert("bench", key, val) })
			if !errors.Is(err, db.ErrConflict) {
				return lat, err
			}
		}
		return 0, fmt.Errorf("mvcc txn still conflicting after %d retries", mvccBenchRetries)
	})
	if err != nil {
		return MVCCRow{}, fmt.Errorf("%s writers=%d: %w", mode, writers, err)
	}
	delta := s.Plat.Metrics.Snapshot().Sub(before)
	conflicts := delta.Count(metrics.MVCCConflicts)
	row := MVCCRow{
		Mode:        mode,
		Writers:     writers,
		Txns:        perWriter * writers,
		commitStats: out.stats(clock.Now() - start),
		Conflicts:   conflicts,
	}
	if attempts := int64(out.committed) + conflicts; attempts > 0 {
		row.ConflictPct = 100 * float64(conflicts) / float64(attempts)
	}
	if out.committed > 0 {
		row.BarriersTxn = float64(delta.Count(metrics.PersistBarrier)) / float64(out.committed)
	}
	return row, nil
}

// Print renders the sweep with per-mode scaling factors against the
// 8-writer row.
func (r *MVCCResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-writer MVCC sweep (UH+LS+Diff, %dB txns over %d SHARED keys, %v NVRAM; legacy = slot-serialized Begin, mvcc = per-writer stream sessions on independent CPU lanes)\n",
		r.ValueBytes, r.SharedKeys, r.Latency)
	fmt.Fprintf(w, "%-7s %-8s %-6s %-10s %-10s %-9s %-9s %12s %12s %10s %8s\n",
		"mode", "writers", "txns", "committed", "conflicts", "confl%", "barr/txn", "p50(ns)", "p99(ns)", "txn/sec", "scale")
	for _, row := range r.Rows {
		scale := "-"
		if base := Find(r.Rows, func(b MVCCRow) bool { return b.Mode == row.Mode && b.Writers == 8 }); base != nil && base.Throughput > 0 {
			scale = fmt.Sprintf("%.2fx", row.Throughput/base.Throughput)
		}
		fmt.Fprintf(w, "%-7s %-8d %-6d %-10d %-10d %-9.1f %-9.2f %12d %12d %10.0f %8s\n",
			row.Mode, row.Writers, row.Txns, row.Committed, row.Conflicts,
			row.ConflictPct, row.BarriersTxn, row.P50CommitNs, row.P99CommitNs,
			row.Throughput, scale)
	}
	fmt.Fprintln(w, "legacy throughput stays flat as writers grow (one slot, one flush per txn); mvcc grows with writers as streams merge under fewer, larger group flushes")
}
