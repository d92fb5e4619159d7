// Replication serving experiments: read scale-out across WAL-shipping
// replicas, the shipping steady state (what a write costs the replicas
// between and across primary checkpoints), and acked-write durability
// across a forced failover. All run through the simulated network
// against a laned cluster (one virtual core per node), so read
// throughput is virtual-time parallelism — N nodes serve N reads in the
// virtual time one node serves one — and the failover numbers come from
// the same crash machinery the torture chains use.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/simclock"
)

// ReplReadRow is one replica-count cell of the read scale-out sweep.
type ReplReadRow struct {
	Replicas    int     `json:"replicas"`
	Readers     int     `json:"readers"` // one per serving node
	Reads       int     `json:"reads"`
	ElapsedNs   int64   `json:"elapsed_ns"` // max over node lanes
	ReadsPerSec float64 `json:"reads_per_sec"`
	Speedup     float64 `json:"speedup_vs_primary_only"`
}

// ReplFailoverResult is the forced-failover durability check: every
// client-acked write (semi-sync, quorum 1) must survive promotion of
// the most-caught-up replica.
type ReplFailoverResult struct {
	AckedWrites   int     `json:"acked_writes"`
	Survived      int     `json:"survived"`
	DurablePct    float64 `json:"durable_pct"`
	PromotedEpoch uint64  `json:"promoted_epoch"`
}

// ReplSteadyResult is the shipping steady state: semi-sync writes
// (quorum 1) into a primary with two attached, caught-up replicas, long
// enough to cross several primary checkpoints. Replica numbers are the
// mean over the two replicas, counted on their own machines.
type ReplSteadyResult struct {
	Writes             int `json:"writes"`
	PrimaryCheckpoints int `json:"primary_checkpoints"`
	// Seeds inside the measured window: 0 unless a link lost its pin.
	Seeds int `json:"seeds"`
	// Replica checkpoint rounds and the pages they wrote, per 1 000 writes;
	// the primary's own rounds per 1 000 writes beside them.
	PrimaryRoundsPerKWrite float64 `json:"primary_rounds_per_1000_writes"`
	ReplicaRoundsPerKWrite float64 `json:"replica_rounds_per_1000_writes"`
	ReplicaPagesPerKWrite  float64 `json:"replica_ckpt_pages_per_1000_writes"`
	// What one applied batch costs a replica's NVRAM in persist barriers,
	// kernel crossings and heap-manager allocations: the journal commit of
	// its frames, which also carries page 1 with the replica's position
	// (two barriers, nothing beside it — pinned by repl's
	// TestCursorApplyCostsItsImport), plus its share of the replica's
	// checkpoint rounds.
	ReplicaBarriersPerBatch   float64 `json:"replica_persist_barriers_per_batch"`
	ReplicaSyscallsPerBatch   float64 `json:"replica_syscalls_per_batch"`
	ReplicaHeapAllocsPerBatch float64 `json:"replica_heap_allocs_per_batch"`
	// The export tail's high-water mark on the primary: what checkpoints
	// kept in DRAM for the replicas at their worst.
	TailPeakFrames int `json:"retained_tail_peak_frames"`
	TailPeakBytes  int `json:"retained_tail_peak_bytes"`
	// What a primary checkpoint boundary costs the writer: the virtual time
	// of the writes above 20 ms (a round writes back a few hundred pages at
	// 180 µs each; nothing else on the write path comes near) per primary
	// round, and the writes between 1 and 20 ms — strays a boundary left on
	// later writes. With every node's round on the far side of its
	// acknowledgement the first is one round, not the sum of the nodes', and
	// the second is a handful.
	BoundaryMsPerRound float64 `json:"vboundary_ms_per_primary_round"`
	StrayWrites        int     `json:"writes_between_1ms_and_20ms"`
	// Mean virtual time from a batch handed to the wire to its ack's
	// delivery, over both links: link latency both ways plus the replica's
	// apply, and no flash time.
	ShipAckMeanUs float64 `json:"vship_to_ack_mean_us"`
	// Virtual write latency on the primary's lane, commit through ack.
	WriteP50Us  float64 `json:"vwrite_p50_us"`
	WriteP99Us  float64 `json:"vwrite_p99_us"`
	WriteP999Us float64 `json:"vwrite_p99_9_us"`
	WriteMaxUs  float64 `json:"vwrite_max_us"`
}

// ReplResult holds the replication experiments.
type ReplResult struct {
	ValueBytes int                `json:"value_bytes"`
	Keys       int                `json:"keys"`
	NetLatency time.Duration      `json:"net_latency_ns"`
	Rows       []ReplReadRow      `json:"rows"`
	Steady     ReplSteadyResult   `json:"steady"`
	Failover   ReplFailoverResult `json:"failover"`
}

func replPlatformConfig() platform.Config {
	return platform.Config{NVRAM: nvram.Config{
		Size:              16 << 20,
		CacheLineSize:     32,
		NVRAMWriteLatency: 500 * time.Nanosecond,
	}}
}

// Repl runs the replication serving experiments. txns scales the read
// count (default 3000 reads per row).
func Repl(txns int) (*ReplResult, error) {
	if txns <= 0 {
		txns = 3000
	}
	res := &ReplResult{
		ValueBytes: 256,
		Keys:       200,
		NetLatency: 20 * time.Microsecond,
	}
	var err error
	for _, replicas := range []int{0, 1, 2} {
		row, err := runReplReadRow(replicas, txns, res.Keys, res.ValueBytes, res.NetLatency)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if base := res.Rows[0].ReadsPerSec; base > 0 {
		for i := range res.Rows {
			res.Rows[i].Speedup = res.Rows[i].ReadsPerSec / base
		}
	}
	if res.Steady, err = runReplSteady(4*txns, res.ValueBytes); err != nil {
		return nil, err
	}
	fo, err := runReplFailover(400, res.ValueBytes)
	if err != nil {
		return nil, err
	}
	res.Failover = fo
	return res, nil
}

// runReplReadRow measures aggregate read throughput with the keyspace
// served by a primary plus `replicas` caught-up replicas, one pinned
// reader per node. Virtual elapsed is the max over node lanes: nodes
// are parallel virtual cores, so serving from more nodes divides the
// per-lane work.
func runReplReadRow(replicas, reads, keys, valueBytes int, latency time.Duration) (ReplReadRow, error) {
	names := []string{"n0", "n1", "n2"}[:replicas+1]
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: latency}, 5, names...)
	if err != nil {
		return ReplReadRow{}, err
	}
	pn, err := c.StartPrimary("n0", repl.DefaultDBOptions(), repl.PrimaryOptions{Epoch: 1}, server.Options{})
	if err != nil {
		return ReplReadRow{}, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return ReplReadRow{}, err
	}
	val := make([]byte, valueBytes)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < keys; i++ {
		ops := []server.Op{{Key: []byte(fmt.Sprintf("k%04d", i)), Value: val}}
		if _, err := pn.Repl.Apply(context.Background(), "kv", ops); err != nil {
			return ReplReadRow{}, err
		}
	}
	var rns []*repl.ReplicaNode
	for _, name := range names[1:] {
		rn, err := c.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			return ReplReadRow{}, err
		}
		defer rn.Stop()
		rns = append(rns, rn)
		pn.Attach(c, name)
	}
	target := pn.Repl.Status().Mark
	for _, rn := range rns {
		if !rn.WaitCaughtUp(target, 10*time.Second) {
			return ReplReadRow{}, fmt.Errorf("repl: replica %s never caught up", rn.Node.Name)
		}
	}

	// One reader per node, registered ON the node's lane (a colocated
	// client): all its virtual time accrues where it is served. The
	// readers run as driveWriters' loops.
	nodes := len(names)
	per := reads / nodes
	starts := make([]time.Duration, nodes)
	for i, name := range names {
		starts[i] = c.Node(name).Plat.Clock.Now()
	}
	clis := make([]*server.Client, nodes)
	for i, name := range names {
		rd := fmt.Sprintf("rd-%s", name)
		c.Net.Register(rd, c.Node(name).Plat.Clock)
		clis[i] = server.NewClient(c.Dialer(rd), []string{name}, server.ClientOptions{ReadAnywhere: true})
		defer clis[i].Close()
	}
	if _, err := driveWriters(nodes, per, func(i, j int) (time.Duration, error) {
		key := []byte(fmt.Sprintf("k%04d", (i*per+j)%keys))
		if _, found, err := clis[i].Get("kv", key); err != nil || !found {
			return 0, fmt.Errorf("read %s via %s: found=%v err=%v", key, names[i], found, err)
		}
		return 0, nil
	}); err != nil {
		return ReplReadRow{}, err
	}
	var elapsed time.Duration
	for i, name := range names {
		if d := c.Node(name).Plat.Clock.Now() - starts[i]; d > elapsed {
			elapsed = d
		}
	}
	total := per * nodes
	return ReplReadRow{
		Replicas:    replicas,
		Readers:     nodes,
		Reads:       total,
		ElapsedNs:   int64(elapsed),
		ReadsPerSec: simclock.Throughput(total, elapsed),
	}, nil
}

// runReplSteady measures the shipping steady state over `writes`
// semi-sync 256 B updates of a 2 000-key table (the database is loaded
// before the replicas attach, so both seed once, outside the window).
func runReplSteady(writes, valueBytes int) (ReplSteadyResult, error) {
	var zero ReplSteadyResult
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 7, "n0", "n1", "n2")
	if err != nil {
		return zero, err
	}
	pn, err := c.StartPrimary("n0", repl.DefaultDBOptions(), repl.PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		return zero, err
	}
	defer pn.Stop(false)
	if err := pn.DB.CreateTable("kv"); err != nil {
		return zero, err
	}
	const keys = 2000
	var ship shipTimes
	val := make([]byte, valueBytes)
	// Loaded straight into the database: there is no ack quorum to wait
	// for until the replicas attach.
	var eng server.Engine = server.NewDBEngine(pn.DB, 1)
	put := func(i int) error {
		val[0], val[1] = byte(i), byte(i>>8)
		_, err := eng.Apply(context.Background(), "kv", []server.Op{{Key: []byte(fmt.Sprintf("k%05d", i%keys)), Value: val}})
		return err
	}
	for i := 0; i < keys; i++ {
		if err := put(i); err != nil {
			return zero, err
		}
	}
	eng = pn.Repl
	var rns []*repl.ReplicaNode
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			return zero, err
		}
		defer rn.Stop()
		rns = append(rns, rn)
		dial := c.Dialer("n0")
		pn.Repl.AddReplica(repl.ReplAddr(name), func(addr string) (netsim.Conn, error) {
			conn, err := dial(addr)
			if err != nil {
				return nil, err
			}
			return &shipTimedConn{Conn: conn, lane: pn.Node.Plat.Clock, total: &ship}, nil
		})
	}
	settle := func() error {
		for _, rn := range rns {
			if !rn.WaitCaughtUp(pn.Repl.Status().Mark, 10*time.Second) {
				return fmt.Errorf("repl: replica %s never caught up", rn.Node.Name)
			}
		}
		return nil
	}
	if err := settle(); err != nil {
		return zero, err
	}

	before := map[string]metrics.Snapshot{"n0": pn.Node.M.Snapshot()}
	for _, rn := range rns {
		before[rn.Node.Name] = rn.Node.M.Snapshot()
	}
	lane := pn.Node.Plat.Clock
	lats := make([]time.Duration, 0, writes)
	sum0, n0 := ship.totals()
	var boundary time.Duration
	strays := 0
	for i := 0; i < writes; i++ {
		v0 := lane.Now()
		if err := put(i * 7); err != nil {
			return zero, err
		}
		lat := lane.Now() - v0
		lats = append(lats, lat)
		switch {
		case lat > 20*time.Millisecond:
			boundary += lat
		case lat > time.Millisecond:
			strays++
		}
	}
	if err := settle(); err != nil {
		return zero, err
	}
	sum1, n1 := ship.totals()

	prim := pn.Node.M.Snapshot().Sub(before["n0"])
	var reps []metrics.Snapshot
	for _, rn := range rns {
		reps = append(reps, rn.Node.M.Snapshot().Sub(before[rn.Node.Name]))
	}
	perReplica := func(name string) float64 {
		var n int64
		for _, d := range reps {
			n += d.Count(name)
		}
		return float64(n) / float64(len(reps))
	}
	perK := 1000 / float64(writes)
	batches := perReplica(metrics.ReplBatchesApplied)
	slices.Sort(lats)
	us := func(q float64) float64 { return float64(quantile(lats, q)) / 1e3 }
	ret := pn.DB.Journal().(*core.NVWAL).ExportRetention()
	return ReplSteadyResult{
		Writes:                    writes,
		PrimaryCheckpoints:        int(prim.Count(metrics.Checkpoints)),
		Seeds:                     int(prim.Count(metrics.ReplReseeds)),
		PrimaryRoundsPerKWrite:    float64(prim.Count(metrics.Checkpoints)) * perK,
		ReplicaRoundsPerKWrite:    perReplica(metrics.Checkpoints) * perK,
		ReplicaPagesPerKWrite:     perReplica(metrics.CheckpointPages) * perK,
		ReplicaBarriersPerBatch:   perReplica(metrics.PersistBarrier) / batches,
		ReplicaSyscallsPerBatch:   perReplica(metrics.Syscall) / batches,
		ReplicaHeapAllocsPerBatch: perReplica(metrics.HeapAlloc) / batches,
		TailPeakFrames:            ret.PeakFrames,
		TailPeakBytes:             ret.PeakBytes,
		BoundaryMsPerRound:        boundary.Seconds() * 1e3 / float64(max(1, prim.Count(metrics.Checkpoints))),
		StrayWrites:               strays,
		ShipAckMeanUs:             float64((sum1 - sum0).Nanoseconds()) / 1e3 / float64(max(1, n1-n0)),
		WriteP50Us:                us(0.50),
		WriteP99Us:                us(0.99),
		WriteP999Us:               us(0.999),
		WriteMaxUs:                us(1),
	}, nil
}

// shipTimes accumulates send→ack times over the links of one primary.
type shipTimes struct {
	mu  sync.Mutex
	sum time.Duration
	n   int64
}

func (s *shipTimes) totals() (sum time.Duration, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum, s.n
}

// shipTimedConn times a sender's conn in virtual time. The sender's loop is
// strictly one message, one ack, so every ack received (the hello is read
// with a plain Recv) answers the last Send: lane time at the Send to the
// ack's own delivery time. It forwards SendAt and RecvAt, so the primary
// behind it stamps and sees what it would on the bare conn.
type shipTimedConn struct {
	netsim.Conn
	lane  *simclock.Clock
	total *shipTimes
	sent  time.Duration
}

func (c *shipTimedConn) Send(msg []byte) error {
	c.sent = c.lane.Now()
	return c.Conn.Send(msg)
}

func (c *shipTimedConn) SendAt(msg []byte, at time.Duration) error {
	c.sent = at
	return netsim.SendAt(c.Conn, msg, at)
}

func (c *shipTimedConn) RecvAt(timeout time.Duration) ([]byte, time.Duration, error) {
	msg, at, _, err := netsim.RecvAt(c.Conn, timeout)
	if err == nil {
		c.total.mu.Lock()
		c.total.sum += at - c.sent
		c.total.n++
		c.total.mu.Unlock()
	}
	return msg, at, err
}

// runReplFailover writes `writes` acked single-key transactions
// through a semi-sync 3-node cluster, crash-fails the primary, and
// counts how many acked writes the promoted replica still serves.
func runReplFailover(writes, valueBytes int) (ReplFailoverResult, error) {
	c, err := repl.NewCluster(replPlatformConfig(), netsim.Config{Latency: 20 * time.Microsecond}, 9, "n0", "n1", "n2")
	if err != nil {
		return ReplFailoverResult{}, err
	}
	pn, err := c.StartPrimary("n0", repl.DefaultDBOptions(),
		repl.PrimaryOptions{Epoch: 1, AckReplicas: 1}, server.Options{})
	if err != nil {
		return ReplFailoverResult{}, err
	}
	if err := pn.DB.CreateTable("kv"); err != nil {
		return ReplFailoverResult{}, err
	}
	var rns []*repl.ReplicaNode
	for _, name := range []string{"n1", "n2"} {
		rn, err := c.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			return ReplFailoverResult{}, err
		}
		rns = append(rns, rn)
		pn.Attach(c, name)
	}

	cli := server.NewClient(c.Dialer("writer"), []string{"n0", "n1", "n2"}, server.ClientOptions{})
	defer cli.Close()
	val := make([]byte, valueBytes)
	acked := make(map[string]bool, writes)
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("w%05d", i)
		if _, err := cli.Put("kv", []byte(key), val); err != nil {
			return ReplFailoverResult{}, fmt.Errorf("acked write %d: %w", i, err)
		}
		acked[key] = true
	}

	// Forced failover: black-hole the primary, power-fail it, promote
	// the most-caught-up replica under the next epoch.
	c.IsolateNode("n0")
	pn.Node.Plat.PowerFail(memsim.FailDropAll, 1)
	pn.Stop(true)
	best := rns[0]
	if rns[1].R.Applied() > best.R.Applied() {
		best = rns[1]
	}
	bestName := best.Node.Name
	best.Stop()
	d, err := best.R.Promote(repl.DefaultDBOptions())
	if err != nil {
		return ReplFailoverResult{}, err
	}
	pn2, err := c.ServePromoted(bestName, d, repl.PrimaryOptions{Epoch: 2}, server.Options{})
	if err != nil {
		return ReplFailoverResult{}, err
	}
	defer pn2.Stop(false)
	for _, rn := range rns {
		if rn != best {
			defer rn.Stop()
		}
	}

	survived := 0
	for key := range acked {
		if _, found, err := pn2.Repl.Get("kv", []byte(key)); err == nil && found {
			survived++
		}
	}
	return ReplFailoverResult{
		AckedWrites:   len(acked),
		Survived:      survived,
		DurablePct:    100 * float64(survived) / float64(len(acked)),
		PromotedEpoch: 2,
	}, nil
}

// Print writes the human-readable report.
func (r *ReplResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Replicated serving sweep (%dB values, %d keys, %v link latency, one lane per node)\n",
		r.ValueBytes, r.Keys, r.NetLatency)
	fmt.Fprintf(w, "%-9s %-8s %-8s %-14s %-14s %s\n",
		"replicas", "readers", "reads", "elapsed(vms)", "reads/sec", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9d %-8d %-8d %-14.3f %-14.0f %.2fx\n",
			row.Replicas, row.Readers, row.Reads,
			float64(row.ElapsedNs)/1e6, row.ReadsPerSec, row.Speedup)
	}
	st := r.Steady
	fmt.Fprintf(w, "shipping steady state: %d semi-sync writes, 2 replicas, %d primary checkpoints, %d seeds in the window\n",
		st.Writes, st.PrimaryCheckpoints, st.Seeds)
	fmt.Fprintf(w, "  checkpoint rounds per 1000 writes: primary %.2f, each replica %.2f (%.0f pages)\n",
		st.PrimaryRoundsPerKWrite, st.ReplicaRoundsPerKWrite, st.ReplicaPagesPerKWrite)
	fmt.Fprintf(w, "  per applied batch on a replica: %.2f persist barriers, %.2f syscalls, %.2f heap allocations (journal commit carrying page 1's position)\n",
		st.ReplicaBarriersPerBatch, st.ReplicaSyscallsPerBatch, st.ReplicaHeapAllocsPerBatch)
	fmt.Fprintf(w, "  retained export tail, high-water mark: %d frames, %d bytes\n", st.TailPeakFrames, st.TailPeakBytes)
	fmt.Fprintf(w, "  per primary boundary: %.1f virtual ms in writes above 20 ms; %d writes between 1 and 20 ms; mean send-to-ack %.1f µs\n",
		st.BoundaryMsPerRound, st.StrayWrites, st.ShipAckMeanUs)
	fmt.Fprintf(w, "  virtual write latency (µs): p50 %.1f  p99 %.1f  p99.9 %.1f  max %.1f\n",
		st.WriteP50Us, st.WriteP99Us, st.WriteP999Us, st.WriteMaxUs)
	fmt.Fprintf(w, "forced failover: %d/%d acked writes survived (%.1f%%), promoted epoch %d\n",
		r.Failover.Survived, r.Failover.AckedWrites, r.Failover.DurablePct, r.Failover.PromotedEpoch)
}
