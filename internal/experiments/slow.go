// Gray-failure serving experiment: hedged versus plain replica reads
// under one gray-degraded replica. The reader is pinned (by endpoint
// order) to the replica that then degrades — the realistic worst case:
// a gray failure hurts exactly the clients attached to the sick node.
// Hedging must recover the tail (p99) by duplicating the late read to
// the healthy replica, while costing near-zero extra reads when the
// cluster is healthy.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/repl"
	"repro/internal/server"
)

// SlowReadRow is one (scenario, mode) cell of the gray-failure sweep.
type SlowReadRow struct {
	Scenario    string  `json:"scenario"` // healthy | degraded
	Hedged      bool    `json:"hedged"`
	Reads       int     `json:"reads"`
	P50Ns       int64   `json:"p50_ns"`       // median virtual read latency
	P99Ns       int64   `json:"p99_ns"`       // tail virtual read latency
	HedgedReads int64   `json:"hedged_reads"` // reads duplicated to a 2nd replica
	HedgeWins   int64   `json:"hedge_wins"`
	AmplPct     float64 `json:"read_amplification_pct"` // extra reads / reads
}

// SlowResult holds the gray-failure read experiment.
type SlowResult struct {
	ValueBytes      int           `json:"value_bytes"`
	Keys            int           `json:"keys"`
	NetLatency      time.Duration `json:"net_latency_ns"`
	DegradedLatency time.Duration `json:"degraded_latency_ns"`
	HedgeDelay      time.Duration `json:"hedge_delay_ns"`
	Rows            []SlowReadRow `json:"rows"`
	// P99RecoveryX is plain p99 / hedged p99 with one degraded replica —
	// the headline number (acceptance floor: 2×).
	P99RecoveryX float64 `json:"p99_recovery_x"`
	// HealthyAmplPct is the hedged mode's extra-read cost when nothing
	// is wrong (acceptance ceiling: 5%).
	HealthyAmplPct float64 `json:"healthy_ampl_pct"`
}

// Slow runs the gray-failure read experiment. txns scales the read
// count per cell (default 2000).
func Slow(txns int) (*SlowResult, error) {
	if txns <= 0 {
		txns = 2000
	}
	res := &SlowResult{
		ValueBytes:      256,
		Keys:            200,
		NetLatency:      20 * time.Microsecond,
		DegradedLatency: 2 * time.Millisecond,
		HedgeDelay:      100 * time.Microsecond,
	}

	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: res.NetLatency}, 7, "n0", "n1", "n2")
	if err != nil {
		return nil, err
	}
	pn, err := c.StartPrimary("n0", repl.DefaultDBOptions(), repl.PrimaryOptions{Epoch: 1}, server.Options{})
	if err != nil {
		return nil, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return nil, err
	}
	val := make([]byte, res.ValueBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < res.Keys; i++ {
		ops := []server.Op{{Key: []byte(fmt.Sprintf("k%04d", i)), Value: val}}
		if _, err := pn.Repl.Apply(context.Background(), "kv", ops); err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			return nil, err
		}
		defer rn.Stop()
		pn.Attach(c, name)
		if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 10*time.Second) {
			return nil, fmt.Errorf("slow: replica %s never caught up", name)
		}
	}

	// The reader lists n1 first, so both modes start pinned to n1 —
	// the replica the degraded scenario then slows down.
	addrs := []string{"n1", "n2"}
	healDegrade := func() {
		base := netsim.Config{Latency: res.NetLatency}
		for _, rd := range []string{"rd-plain-d", "rd-hedge-d"} {
			c.Net.SetLink("n1", rd, base)
			c.Net.SetLink(rd, "n1", base)
		}
	}
	degrade := func(rd string) {
		bad := netsim.Config{Latency: res.DegradedLatency}
		c.Net.SetLink("n1", rd, bad)
		c.Net.SetLink(rd, "n1", bad)
	}

	for _, cell := range []struct {
		scenario string
		hedged   bool
		rd       string
	}{
		{"healthy", false, "rd-plain-h"},
		{"healthy", true, "rd-hedge-h"},
		{"degraded", false, "rd-plain-d"},
		{"degraded", true, "rd-hedge-d"},
	} {
		if cell.scenario == "degraded" {
			degrade(cell.rd)
		}
		row, err := runSlowReadCell(c, addrs, cell.rd, cell.hedged, txns, res.Keys, res.HedgeDelay)
		if err != nil {
			return nil, err
		}
		row.Scenario = cell.scenario
		res.Rows = append(res.Rows, row)
	}
	healDegrade()

	var plainD, hedgeD, hedgeH *SlowReadRow
	for i := range res.Rows {
		r := &res.Rows[i]
		switch {
		case r.Scenario == "degraded" && !r.Hedged:
			plainD = r
		case r.Scenario == "degraded" && r.Hedged:
			hedgeD = r
		case r.Scenario == "healthy" && r.Hedged:
			hedgeH = r
		}
	}
	if hedgeD != nil && hedgeD.P99Ns > 0 {
		res.P99RecoveryX = float64(plainD.P99Ns) / float64(hedgeD.P99Ns)
	}
	if hedgeH != nil {
		res.HealthyAmplPct = hedgeH.AmplPct
	}
	return res, nil
}

// runSlowReadCell issues reads from a fresh client on its own clock
// lane and reports virtual-latency percentiles.
func runSlowReadCell(c *repl.Cluster, addrs []string, rd string, hedged bool, reads, keys int, hedgeDelay time.Duration) (SlowReadRow, error) {
	lane := c.Clock.NewLane()
	c.Net.Register(rd, lane)
	m := c.Registry.Counters(rd)
	opts := server.ClientOptions{ReadAnywhere: true, Metrics: m, Seed: 13}
	if hedged {
		opts.HedgeDelay = hedgeDelay
		opts.Clock = lane
	}
	cli := server.NewClient(c.Dialer(rd), addrs, opts)
	defer cli.Close()

	lats := make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		key := []byte(fmt.Sprintf("k%04d", i%keys))
		t0 := lane.Now()
		if _, found, err := cli.Get("kv", key); err != nil || !found {
			return SlowReadRow{}, fmt.Errorf("read %s via %s: found=%v err=%v", key, rd, found, err)
		}
		lats = append(lats, lane.Now()-t0)
	}
	slices.Sort(lats)
	row := SlowReadRow{
		Hedged:      hedged,
		Reads:       reads,
		P50Ns:       int64(quantile(lats, 0.50)),
		P99Ns:       int64(quantile(lats, 0.99)),
		HedgedReads: m.Count(metrics.HedgedReads),
		HedgeWins:   m.Count(metrics.HedgeWins),
	}
	row.AmplPct = 100 * float64(row.HedgedReads) / float64(reads)
	return row, nil
}

// Print writes the human-readable report.
func (r *SlowResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Gray-failure reads (%dB values, %d keys, %v links, degraded replica at %v, hedge floor %v)\n",
		r.ValueBytes, r.Keys, r.NetLatency, r.DegradedLatency, r.HedgeDelay)
	fmt.Fprintf(w, "%-10s %-7s %-8s %-12s %-12s %-8s %-6s %s\n",
		"scenario", "hedged", "reads", "p50(vus)", "p99(vus)", "hedges", "wins", "ampl")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-7t %-8d %-12.1f %-12.1f %-8d %-6d %.2f%%\n",
			row.Scenario, row.Hedged, row.Reads,
			float64(row.P50Ns)/1e3, float64(row.P99Ns)/1e3,
			row.HedgedReads, row.HedgeWins, row.AmplPct)
	}
	fmt.Fprintf(w, "p99 recovery with one degraded replica: %.1fx (plain/hedged); healthy read amplification %.2f%%\n",
		r.P99RecoveryX, r.HealthyAmplPct)
}
