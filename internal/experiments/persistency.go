package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mobibench"
)

// PersistencyPoint is one (model, latency) measurement of the §4.4
// ablation.
type PersistencyPoint struct {
	Model      string
	Latency    time.Duration
	Throughput float64
	Flushes    float64 // dccmvac instructions per txn (0 under hardware models)
	Syscalls   float64 // kernel-mode switches per txn
}

// PersistencyResult holds the ablation sweep.
type PersistencyResult struct {
	Latencies []time.Duration
	Models    []string
	Points    []PersistencyPoint
}

// Persistency runs the evaluation the paper could not (§4.4: "Due to
// the unavailability of real hardware that can implement strict and
// relaxed persistency, we leave a performance evaluation of NVWAL under
// various memory persistency models to our future work"): NVWAL under
// strict and epoch persistency versus the software eager/lazy schemes,
// on the Tuna board across the NVRAM latency sweep.
func Persistency(txns int) (*PersistencyResult, error) {
	if txns <= 0 {
		txns = 500
	}
	res := &PersistencyResult{Latencies: tunaLatencies}
	for _, v := range core.PersistencyVariants() {
		res.Models = append(res.Models, v.Name)
		for _, lat := range res.Latencies {
			s, err := NewNVWALSetup(Tuna, v.Cfg, db1000)
			if err != nil {
				return nil, err
			}
			s.Plat.SetNVRAMLatency(lat)
			w, err := mobibench.Prepare(s.DB, mobibench.Workload{
				Op: mobibench.Insert, Transactions: txns, OpsPerTxn: 1, Seed: 44,
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
			res.Points = append(res.Points, PersistencyPoint{
				Model:      v.Name,
				Latency:    lat,
				Throughput: r.Throughput(),
				Flushes:    float64(delta.Count(metrics.CacheLineFlush)) / float64(txns),
				Syscalls:   float64(delta.Count(metrics.Syscall)) / float64(txns),
			})
		}
	}
	return res, nil
}

// Print renders the ablation table.
func (r *PersistencyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Persistency-model ablation (§4.4 future work): insert txn/sec vs NVRAM latency")
	fmt.Fprintf(w, "%-20s", "model \\ latency")
	for _, lat := range r.Latencies {
		fmt.Fprintf(w, "%9dns", lat.Nanoseconds())
	}
	fmt.Fprintln(w)
	point := func(m string, lat time.Duration) *PersistencyPoint {
		return Find(r.Points, func(p PersistencyPoint) bool { return p.Model == m && p.Latency == lat })
	}
	for _, m := range r.Models {
		fmt.Fprintf(w, "%-20s", m)
		for _, lat := range r.Latencies {
			fmt.Fprintf(w, "%11.0f", point(m, lat).Throughput)
		}
		fmt.Fprintln(w)
	}
	lat := r.Latencies[0]
	fmt.Fprintf(w, "per-txn instrumentation at %v:\n", lat)
	for _, m := range r.Models {
		p := point(m, lat)
		fmt.Fprintf(w, "  %-20s %6.1f dccmvac, %5.1f kernel switches\n", m, p.Flushes, p.Syscalls)
	}
}
