package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mobibench"
)

// Fig9Series names the four systems of Figure 9.
var Fig9Series = []string{
	"NVWAL UH+LS+Diff on NVRAM",
	"NVWAL LS on NVRAM",
	"Optimized WAL on eMMC",
	"WAL on eMMC",
}

// Fig9Point is one (series, latency) measurement.
type Fig9Point struct {
	Series     string
	Latency    time.Duration
	Throughput float64
}

// Fig9Result holds the Figure 9 sweep.
type Fig9Result struct {
	Latencies []time.Duration
	Points    []Fig9Point
}

// Figure9 reproduces the headline experiment (§5.4) on the Nexus 5:
// 1000 single-insert transactions of 100-byte records into an empty
// table, comparing NVWAL (UH+LS+Diff and plain LS) against the stock
// and optimized file WAL on eMMC as the emulated NVRAM write latency
// sweeps 2–230 µs. The flash WAL baselines do not depend on the NVRAM
// latency and are measured once. Checkpointing is amortized across the
// 1000 transactions via SQLite's default 1000-frame limit, as in the
// paper.
func Figure9(txns int) (*Fig9Result, error) {
	if txns <= 0 {
		txns = 1000
	}
	res := &Fig9Result{Latencies: nexusLatencies}
	workload := mobibench.Workload{Op: mobibench.Insert, Transactions: txns, OpsPerTxn: 1, Seed: 9}

	measureNVWAL := func(series string, cfg core.Config) error {
		for _, lat := range res.Latencies {
			s, err := NewNVWALSetup(Nexus5, cfg, db1000)
			if err != nil {
				return err
			}
			s.Plat.SetNVRAMLatency(lat)
			r, err := s.runWorkload(workload)
			if err != nil {
				return err
			}
			res.Points = append(res.Points, Fig9Point{series, lat, r.Throughput()})
		}
		return nil
	}
	if err := measureNVWAL(Fig9Series[0], core.VariantUHLSDiff()); err != nil {
		return nil, err
	}
	if err := measureNVWAL(Fig9Series[1], core.VariantLS()); err != nil {
		return nil, err
	}
	for i, optimized := range []bool{true, false} {
		s, err := NewWALSetup(Nexus5, optimized, db1000)
		if err != nil {
			return nil, err
		}
		r, err := s.runWorkload(workload)
		if err != nil {
			return nil, err
		}
		for _, lat := range res.Latencies {
			res.Points = append(res.Points, Fig9Point{Fig9Series[2+i], lat, r.Throughput()})
		}
	}
	return res, nil
}

// walBaseline is the optimized WAL's throughput, which does not depend
// on the NVRAM latency.
func (r *Fig9Result) walBaseline() float64 {
	return Find(r.Points, func(p Fig9Point) bool { return p.Series == Fig9Series[2] }).Throughput
}

// Speedup reports NVWAL UH+LS+Diff at the given latency over the
// optimized WAL baseline (the paper's "at least 10x" headline holds at
// 2 µs: 5812 vs 541 ins/sec).
func (r *Fig9Result) Speedup(lat time.Duration) float64 {
	p := Find(r.Points, func(p Fig9Point) bool { return p.Series == Fig9Series[0] && p.Latency == lat })
	if p == nil || r.walBaseline() == 0 {
		return 0
	}
	return p.Throughput / r.walBaseline()
}

// Crossover returns the smallest swept latency at which the series
// drops to or below the optimized-WAL baseline (paper: ~47 µs for LS,
// ~230 µs for UH+LS+Diff), or 0 if it stays above throughout.
func (r *Fig9Result) Crossover(series string) time.Duration {
	for _, p := range r.Points { // each series in ascending latency
		if p.Series == series && p.Throughput <= r.walBaseline() {
			return p.Latency
		}
	}
	return 0
}

// Print prints the Figure 9 series.
func (r *Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: Transaction throughput (txn/sec) vs emulated NVRAM latency")
	fmt.Fprintf(w, "%-28s", "series \\ latency")
	for _, lat := range r.Latencies {
		fmt.Fprintf(w, "%8dus", lat.Microseconds())
	}
	fmt.Fprintln(w)
	for _, s := range Fig9Series {
		fmt.Fprintf(w, "%-28s", s)
		for _, lat := range r.Latencies {
			p := Find(r.Points, func(p Fig9Point) bool { return p.Series == s && p.Latency == lat })
			fmt.Fprintf(w, "%10.0f", p.Throughput)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "speedup of UH+LS+Diff over optimized WAL at %v: %.1fx (paper: >= 10x)\n",
		r.Latencies[0], r.Speedup(r.Latencies[0]))
	if c := r.Crossover(Fig9Series[1]); c > 0 {
		fmt.Fprintf(w, "NVWAL LS crosses WAL at ~%v (paper: ~47us)\n", c)
	}
	if c := r.Crossover(Fig9Series[0]); c > 0 {
		fmt.Fprintf(w, "NVWAL UH+LS+Diff crosses WAL at ~%v (paper: ~230us)\n", c)
	}
}
