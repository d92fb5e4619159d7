package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ext4"
	"repro/internal/mobibench"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Fig8Side is the block trace of one WAL mode.
type Fig8Side struct {
	Mode      string
	Events    []trace.Event
	ByTag     map[string]int // bytes per stream
	BatchTime time.Duration  // virtual time of the 10-transaction batch
}

// Fig8Result holds both sides of Figure 8.
type Fig8Result struct {
	Stock     Fig8Side
	Optimized Fig8Side
}

// Figure8 reproduces the §5.4 block-trace experiment on the Nexus 5: 10
// single-insert transactions in stock WAL mode versus the optimized WAL
// mode, recording every block write (EXT4 journal, .db-wal, .db).
func Figure8() (*Fig8Result, error) {
	run := func(optimized bool) (Fig8Side, error) {
		s, err := NewWALSetup(Nexus5, optimized, db1000)
		if err != nil {
			return Fig8Side{}, err
		}
		w, err := mobibench.Prepare(s.DB, mobibench.Workload{
			Op: mobibench.Insert, Transactions: 10, OpsPerTxn: 1, Seed: 8,
		})
		if err != nil {
			return Fig8Side{}, err
		}
		rec := s.Plat.Flash.StartTrace()
		start := s.Plat.Clock.Now()
		if _, err := mobibench.Run(s.DB, s.Plat.Clock, w); err != nil {
			return Fig8Side{}, err
		}
		mode := "WAL"
		if optimized {
			mode = "Optimized WAL"
		}
		return Fig8Side{
			Mode:      mode,
			Events:    rec.Events(),
			ByTag:     rec.BytesByTag(),
			BatchTime: s.Plat.Clock.Now() - start,
		}, nil
	}
	stock, err := run(false)
	if err != nil {
		return nil, err
	}
	opt, err := run(true)
	if err != nil {
		return nil, err
	}
	return &Fig8Result{Stock: stock, Optimized: opt}, nil
}

// JournalReduction reports the EXT4-journal traffic saving of the
// optimized mode (paper: ~40%, 284 KB vs 172 KB).
func (r *Fig8Result) JournalReduction() float64 {
	s := r.Stock.ByTag[ext4.TagJournal]
	o := r.Optimized.ByTag[ext4.TagJournal]
	if s == 0 {
		return 0
	}
	return 1 - float64(o)/float64(s)
}

// Print prints the per-mode traffic summary and the block traces.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: Block trace of 10 SQLite insert transactions")
	for _, side := range []Fig8Side{r.Stock, r.Optimized} {
		fmt.Fprintf(w, "%-14s journal %6.0f KB   db-wal %6.0f KB   db %6.0f KB   batch %s usec\n",
			side.Mode,
			float64(side.ByTag[ext4.TagJournal])/1024,
			float64(side.ByTag[wal.TagWAL])/1024,
			float64(side.ByTag["db"])/1024,
			usec(side.BatchTime))
	}
	fmt.Fprintf(w, "EXT4 journal traffic reduction: %.0f%% (paper: ~40%%)\n", r.JournalReduction()*100)
	fmt.Fprintln(w, "\ntrace (time_us block stream):")
	for _, side := range []Fig8Side{r.Stock, r.Optimized} {
		fmt.Fprintf(w, "-- %s --\n", side.Mode)
		for _, e := range side.Events {
			fmt.Fprintf(w, "%10.1f %8d %s\n", float64(e.T.Microseconds()), e.Block, e.Tag)
		}
	}
}
