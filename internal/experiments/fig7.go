package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mobibench"
)

// Fig7Point is one (variant, latency) measurement.
type Fig7Point struct {
	Variant    string
	Latency    time.Duration
	Throughput float64 // transactions per second
}

// Fig7Result is one operation panel of Figure 7.
type Fig7Result struct {
	Op        mobibench.Op
	Latencies []time.Duration
	Variants  []string
	Points    []Fig7Point
}

// Figure7 reproduces one panel of Figure 7 on Tuna: transaction
// throughput of the six NVWAL variants as the NVRAM write latency
// sweeps 400–1900 ns. Transactions are single-operation with 100-byte
// records; periodic checkpointing is included, as on the Tuna board
// (§5.4 notes Tuna results are sustained-minus... peak including
// checkpoints).
func Figure7(op mobibench.Op, txns int) (*Fig7Result, error) {
	if txns <= 0 {
		txns = 1000
	}
	res := &Fig7Result{Op: op, Latencies: tunaLatencies}
	for _, v := range core.Figure7Variants() {
		res.Variants = append(res.Variants, v.Name)
		for _, lat := range res.Latencies {
			s, err := NewNVWALSetup(Tuna, v.Cfg, db1000)
			if err != nil {
				return nil, err
			}
			s.Plat.SetNVRAMLatency(lat)
			r, err := s.runWorkload(mobibench.Workload{
				Op: op, Transactions: txns, OpsPerTxn: 1, Seed: 7,
			})
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, Fig7Point{
				Variant:    v.Name,
				Latency:    lat,
				Throughput: r.Throughput(),
			})
		}
	}
	return res, nil
}

// Print prints the panel as the paper's series.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 7(%s): Transaction throughput (txn/sec) vs NVRAM write latency\n", r.Op)
	fmt.Fprintf(w, "%-18s", "variant \\ latency")
	for _, lat := range r.Latencies {
		fmt.Fprintf(w, "%9dns", lat.Nanoseconds())
	}
	fmt.Fprintln(w)
	for _, v := range r.Variants {
		fmt.Fprintf(w, "%-18s", v)
		for _, lat := range r.Latencies {
			p := Find(r.Points, func(p Fig7Point) bool { return p.Variant == v && p.Latency == lat })
			fmt.Fprintf(w, "%11.0f", p.Throughput)
		}
		fmt.Fprintln(w)
	}
}
