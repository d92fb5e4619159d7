package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mobibench"
)

// Fig5Cell is the per-transaction time breakdown of one (K, scheme)
// configuration.
type Fig5Cell struct {
	InsertsPerTxn int
	Lazy          bool
	Memcpy        time.Duration
	Dccmvac       time.Duration // flush issue + completion wait
	Dmb           time.Duration
	Syscall       time.Duration // kernel mode switches
	Persist       time.Duration
	Total         time.Duration // whole transaction
}

// Ordering reports the total ordering-constraint overhead (everything
// except memcpy and query CPU): the quantity Figure 6 divides by the
// transaction time.
func (c Fig5Cell) Ordering() time.Duration {
	return c.Dccmvac + c.Dmb + c.Syscall + c.Persist
}

// OverheadPercent is the Figure 6 y-axis.
func (c Fig5Cell) OverheadPercent() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Ordering()) / float64(c.Total)
}

// Fig5Result holds the lazy/eager sweep; it serves both Figure 5 (time
// breakdown) and Figure 6 (overhead percentage).
type Fig5Result struct {
	Cells []Fig5Cell
}

// Figure5 reproduces the §5.1 ordering-constraint experiment on Tuna at
// 500 ns NVRAM write latency: lazy (L) versus eager (E) synchronization
// with differential logging, varying inserts per transaction.
func Figure5(txns int) (*Fig5Result, error) {
	if txns <= 0 {
		txns = 200
	}
	res := &Fig5Result{}
	for _, k := range kSweep {
		for _, lazy := range []bool{true, false} {
			cfg := core.VariantUHLSDiff()
			if !lazy {
				cfg.Sync = core.SyncEager
			}
			s, err := NewNVWALSetup(Tuna, cfg, db1000)
			if err != nil {
				return nil, err
			}
			s.Plat.SetNVRAMLatency(500 * time.Nanosecond)
			w, err := mobibench.Prepare(s.DB, mobibench.Workload{
				Op: mobibench.Insert, Transactions: txns, OpsPerTxn: k, Seed: 5,
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
			n := time.Duration(txns)
			res.Cells = append(res.Cells, Fig5Cell{
				InsertsPerTxn: k,
				Lazy:          lazy,
				Memcpy:        delta.Time(metrics.TimeMemcpy) / n,
				Dccmvac:       delta.Time(metrics.TimeFlush) / n,
				Dmb:           delta.Time(metrics.TimeBarrier) / n,
				Syscall:       delta.Time(metrics.TimeSyscall) / n,
				Persist:       delta.Time(metrics.TimePersist) / n,
				Total:         r.PerTxn(),
			})
		}
	}
	return res, nil
}

// Print prints the Figure 5 series (times in µs per transaction).
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: Ordering-constraint time per transaction (usec), L=lazy E=eager")
	fmt.Fprintf(w, "%4s %4s %10s %10s %8s %10s %10s %12s\n",
		"K", "mode", "memcpy", "dccmvac", "dmb", "syscall", "persist", "txn total")
	for _, c := range r.Cells {
		mode := "E"
		if c.Lazy {
			mode = "L"
		}
		fmt.Fprintf(w, "%4d %4s %10s %10s %8s %10s %10s %12s\n",
			c.InsertsPerTxn, mode,
			usec(c.Memcpy), usec(c.Dccmvac), usec(c.Dmb),
			usec(c.Syscall), usec(c.Persist), usec(c.Total))
	}
}

// WriteFigure6 prints the Figure 6 view of the same data.
func (r *Fig5Result) WriteFigure6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: Ordering-constraint overhead as % of query execution time")
	fmt.Fprintf(w, "%4s %8s %8s\n", "K", "L (%)", "E (%)")
	for _, k := range kSweep {
		l := Find(r.Cells, func(c Fig5Cell) bool { return c.InsertsPerTxn == k && c.Lazy })
		e := Find(r.Cells, func(c Fig5Cell) bool { return c.InsertsPerTxn == k && !c.Lazy })
		if l != nil && e != nil {
			fmt.Fprintf(w, "%4d %8.1f %8.1f\n", k, l.OverheadPercent(), e.OverheadPercent())
		}
	}
}
