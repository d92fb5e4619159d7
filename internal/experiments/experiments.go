// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated platforms:
//
//	Table 1   cache-line flushes per transaction vs. inserts/txn
//	Table 2   bytes written to NVRAM, full-page vs. differential logging
//	Figure 5  memcpy / dccmvac / dmb time, lazy vs. eager sync
//	Figure 6  ordering-constraint overhead as % of query time
//	Figure 7  throughput vs. NVRAM latency for the six NVWAL variants
//	Figure 8  block I/O trace, stock vs. optimized WAL on EXT4
//	Figure 9  throughput vs. NVRAM latency, NVWAL vs. WAL on flash
//
// and the studies the paper raises beside them: persistency models
// (§4.4), WALDIO pre-allocation (§5.4), the journaling baselines
// (§1/§2), the asynchronous-commit checksum (§4.2) and group commit
// (§3.3). These are the twelve sections cmd/nvwal-bench prints.
//
// Absolute numbers come from the calibrated virtual clock; the shapes
// (who wins, by what factor, where crossovers fall) are the
// reproduction targets recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/mobibench"
	"repro/internal/platform"
)

// Setup is one assembled platform + open database.
type Setup struct {
	Plat *platform.Platform
	DB   *db.DB
}

// Board selects the evaluation platform.
type Board int

const (
	// Tuna is the NVRAM emulation board (§5.1–5.3): 32 B lines,
	// 400–2000 ns NVRAM latency, ARM Cortex-A9 CPU costs.
	Tuna Board = iota
	// Nexus5 is the smartphone platform (§5.4): 64 B lines, eMMC flash,
	// Snapdragon 800 CPU costs.
	Nexus5
)

func (b Board) String() string {
	if b == Nexus5 {
		return "nexus5"
	}
	return "tuna"
}

func (b Board) newPlatform() (*platform.Platform, error) {
	if b == Nexus5 {
		return platform.NewNexus5()
	}
	return platform.NewTuna()
}

func (b Board) cpu() db.CPUProfile {
	if b == Nexus5 {
		return db.CPUNexus5
	}
	return db.CPUTuna
}

// newSetup opens bench.db with opts on a fresh board.
func newSetup(b Board, opts db.Options) (*Setup, error) {
	plat, err := b.newPlatform()
	if err != nil {
		return nil, err
	}
	d, err := db.Open(plat, "bench.db", opts)
	if err != nil {
		return nil, err
	}
	return &Setup{Plat: plat, DB: d}, nil
}

// NewNVWALSetup opens an NVWAL-journaled database on the given board.
func NewNVWALSetup(b Board, cfg core.Config, checkpointLimit int) (*Setup, error) {
	return newSetup(b, db.Options{
		Journal:         db.JournalNVWAL,
		NVWAL:           cfg,
		CPU:             b.cpu(),
		CheckpointLimit: checkpointLimit,
	})
}

// NewWALSetup opens a flash-WAL database (stock or optimized) on the
// given board.
func NewWALSetup(b Board, optimized bool, checkpointLimit int) (*Setup, error) {
	mode := db.JournalWAL
	if optimized {
		mode = db.JournalOptimizedWAL
	}
	return newSetup(b, db.Options{Journal: mode, CPU: b.cpu(), CheckpointLimit: checkpointLimit})
}

// runWorkload prepares and runs a mobibench workload, returning the
// result.
func (s *Setup) runWorkload(w mobibench.Workload) (mobibench.Result, error) {
	w, err := mobibench.Prepare(s.DB, w)
	if err != nil {
		return mobibench.Result{}, err
	}
	return mobibench.Run(s.DB, s.Plat.Clock, w)
}

// usec renders a duration as microseconds with one decimal.
func usec(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// kSweep is the inserts-per-transaction sweep of §5.1 (Figures 5/6,
// Tables 1/2).
var kSweep = []int{1, 2, 4, 8, 16, 32}

// tunaLatencies is the Figure 7 NVRAM write-latency sweep (§5.3 varies
// 400–1900 ns; 1942 ns appears in the text as the slowest setting).
var tunaLatencies = []time.Duration{
	437 * time.Nanosecond,
	700 * time.Nanosecond,
	1000 * time.Nanosecond,
	1300 * time.Nanosecond,
	1600 * time.Nanosecond,
	1942 * time.Nanosecond,
}

// nexusLatencies is the Figure 9 emulated-latency sweep (2–230 µs).
var nexusLatencies = []time.Duration{
	2 * time.Microsecond,
	5 * time.Microsecond,
	10 * time.Microsecond,
	22 * time.Microsecond,
	47 * time.Microsecond,
	100 * time.Microsecond,
	160 * time.Microsecond,
	230 * time.Microsecond,
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
