package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/shard"
	"repro/internal/simclock"
)

// ShardRow is one (shard count, writer count) cell of the scale-out
// sweep. Shards == 0 is the direct single-engine baseline: the same
// workload against one db.DB with no shard layer at all, which is what
// the shards == 1 row must stay within 10% of — the router and the
// coordinator record may not tax the single-shard path. Latencies are
// virtual-clock nanoseconds measured on the committing shard's lane.
type ShardRow struct {
	Shards  int `json:"shards"` // 0 = unsharded baseline
	Writers int `json:"writers"`
	Txns    int `json:"txns"`
	commitStats
}

// ShardsResult holds the shard-count × writer sweep.
type ShardsResult struct {
	ValueBytes int           `json:"value_bytes"`
	Latency    time.Duration `json:"nvram_latency_ns"`
	Rows       []ShardRow    `json:"rows"`
}

// Shards measures single-key scale-out across engine shards. Each
// writer is bound to a home shard and commits single-key transactions
// against keys pre-routed there, so every transaction runs shard-local:
// no 2PC, no cross-shard coordination. The laned platform gives each
// shard its own virtual core — the parent clock advances by the max
// over lanes — so throughput measures genuine parallelism: N shards
// commit N transactions in the virtual time one shard commits one.
func Shards(txns int) (*ShardsResult, error) {
	if txns <= 0 {
		txns = 4000
	}
	res := &ShardsResult{
		ValueBytes: 256,
		Latency:    500 * time.Nanosecond,
	}
	for _, shards := range []int{0, 1, 2, 4, 8} {
		for _, writers := range []int{1, 8, 32} {
			row, err := runShardCell(shards, writers, txns, res.ValueBytes, res.Latency)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func shardBenchConfig(latency time.Duration) platform.Config {
	return platform.Config{
		NVRAM: nvram.Config{
			Size:              64 << 20,
			CacheLineSize:     64,
			NVRAMWriteLatency: latency,
		},
	}
}

func shardBenchOpts() db.Options {
	return db.Options{
		Journal:         db.JournalNVWAL,
		NVWAL:           core.VariantUHLSDiff(),
		Concurrent:      true,
		GroupCommit:     1,
		CheckpointLimit: -1,
	}
}

// benchValue fills a value whose every byte varies per iteration, so
// differential logging produces real log volume.
func benchValue(val []byte, w, i int) {
	for j := range val {
		val[j] = byte(i + j + w)
	}
}

// runShardCell is one cell: writers bound to home shards round-robin,
// keys pre-routed, commits timed on the home shard's lane. Shards == 0
// runs the same loop on a bare engine, no shard layer.
func runShardCell(shards, writers, txns, valueBytes int, latency time.Duration) (ShardRow, error) {
	var (
		clock *simclock.Clock
		route func(key []byte) (*db.DB, *simclock.Clock)
		st    *shard.DB
	)
	if shards == 0 {
		s, err := newSetup(configured(shardBenchConfig(latency)), shardBenchOpts(), "bench")
		if err != nil {
			return ShardRow{}, err
		}
		clock = s.Plat.Clock
		route = func([]byte) (*db.DB, *simclock.Clock) { return s.DB, s.Plat.Clock }
	} else {
		plat, err := shard.NewLaned(shardBenchConfig(latency), shards)
		if err != nil {
			return ShardRow{}, err
		}
		if st, err = shard.Open(plat, "bench.db", shard.Options{DB: shardBenchOpts()}); err != nil {
			return ShardRow{}, err
		}
		if err := st.CreateTable("bench"); err != nil {
			return ShardRow{}, err
		}
		clock = plat.Clock
		route = func(key []byte) (*db.DB, *simclock.Clock) {
			home := st.ShardOf(key) // the routed, shard-local path
			return st.Shard(home), plat.View(home).Clock
		}
	}
	// 8 keys per writer. Sharded cells pre-route them to the writer's home
	// shard; the suffix search stands in for a client hashing its working
	// set.
	keys := make([][][]byte, writers)
	for w := range keys {
		keys[w] = make([][]byte, 8)
		for k := range keys[w] {
			if shards == 0 {
				keys[w][k] = []byte(fmt.Sprintf("w%d-k%d", w, k))
				continue
			}
			for n := 0; keys[w][k] == nil; n++ {
				if cand := []byte(fmt.Sprintf("w%d-k%d-%d", w, k, n)); st.ShardOf(cand) == w%shards {
					keys[w][k] = cand
				}
			}
		}
	}
	perWriter := txns / writers
	start := clock.Now()
	out, err := driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		key := keys[w][i%8]
		val := make([]byte, valueBytes)
		benchValue(val, w, i)
		d, lane := route(key)
		return commitTxn(d.Begin, lane.Now, func(tx *db.Tx) error { return tx.Insert("bench", key, val) })
	})
	if err != nil {
		return ShardRow{}, fmt.Errorf("shards=%d writers=%d: %w", shards, writers, err)
	}
	return ShardRow{
		Shards:      shards,
		Writers:     writers,
		Txns:        perWriter * writers,
		commitStats: out.stats(clock.Now() - start),
	}, nil
}

// Print renders the sweep with per-writer-count scaling factors.
func (r *ShardsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Shard scale-out sweep (UH+LS+Diff, %dB single-key txns, %v NVRAM, one lane per shard; shards=0 is the bare-engine baseline)\n",
		r.ValueBytes, r.Latency)
	fmt.Fprintf(w, "%-7s %-8s %-6s %-10s %-5s %12s %12s %10s %8s\n",
		"shards", "writers", "txns", "committed", "busy", "p50(ns)", "p99(ns)", "txn/sec", "scale")
	for _, row := range r.Rows {
		scale := "-"
		if row.Shards >= 1 {
			if one := Find(r.Rows, func(o ShardRow) bool { return o.Shards == 1 && o.Writers == row.Writers }); one != nil && one.Throughput > 0 {
				scale = fmt.Sprintf("%.2fx", row.Throughput/one.Throughput)
			}
		}
		fmt.Fprintf(w, "%-7d %-8d %-6d %-10d %-5d %12d %12d %10.0f %8s\n",
			row.Shards, row.Writers, row.Txns, row.Committed, row.Busy,
			row.P50CommitNs, row.P99CommitNs, row.Throughput, scale)
	}
	fmt.Fprintln(w, "single-key transactions never cross shards; throughput scales with the shard count while per-commit latency holds")
}
