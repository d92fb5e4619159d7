package main

import (
	"runtime"
	"time"

	"repro/internal/metrics"
)

// layerInputs is everything the per-layer table is computed from: the
// traced window's stats, the spans' running sums, counter deltas taken
// at the window's edges, and the Go runtime's own counters.
type layerInputs struct {
	st       stats
	wall     time.Duration
	nodeVirt time.Duration    // advance of the primary machine's clock over the window
	sys      metrics.Snapshot // whole system
	node     metrics.Snapshot // the primary machine only
	tr       *tracer
	m0, m1   *runtime.MemStats
	rec      recovery
	lag      int
	lanes    int // drivers charging CPU side by side

	pageVersionNs          float64
	soloRate, untracedRate float64
	rssKB                  int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// table computes every per-layer metric. "Per write" and "per op" are
// per completed driver operation (a batch or a session is one write);
// "_us" figures are means, so a parent's figure minus its children's
// is its self time.
func (in *layerInputs) table() map[string]float64 {
	st, sys, node, tr := &in.st, in.sys, in.node, in.tr
	ops := float64(st.reads + st.writes)
	writes := float64(st.writes)
	// Client, server and replication counters are the whole system's;
	// engine counters (db down to blockdev) are the primary machine's.
	cnt := func(name string) float64 { return float64(sys.Count(name)) }
	eng := func(name string) float64 { return float64(node.Count(name)) }
	perOpUs := func(l layer) float64 { return ratio(tr.hostNs(l), ops) / 1e3 }
	meanUs := func(l layer) float64 { return tr.sums[l].host.Mean() / 1e3 }
	vshare := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += node.Time(n)
		}
		return ratio(float64(d), float64(in.nodeVirt))
	}
	// Session drivers charge CPU to one lane each, side by side: the
	// share of elapsed virtual time is the per-lane figure.
	vcpu := vshare(metrics.TimeCPU) / float64(in.lanes)
	ckpts := eng(metrics.Checkpoints)

	// Served requests: call ⊃ conn wait ⊃ server handling ⊃ engine.
	served := tr.count(spanConnWait) > 0
	var clientSelf, transit, vtransit, serverSelf float64
	if served {
		clientSelf = perOpUs(spanCall) - perOpUs(spanConnWait)
		transit = perOpUs(spanConnWait) - perOpUs(spanHandle)
		if cw := tr.sums[spanConnWait].vsum; cw > 0 { // 0: the client's end has no clock (real TCP)
			vtransit = ratio(float64(cw-tr.sums[spanHandle].vsum), ops) / 1e3
		}
		serverSelf = perOpUs(spanHandle) - perOpUs(spanApply) - perOpUs(spanGet) - perOpUs(spanReplicaGet)
	}
	// On a cluster Apply is repl.Primary's (local commit, shipping kick,
	// ack wait); on one node it is DBEngine's.
	replicated := cnt(metrics.ReplBatchesShipped) > 0
	var replApply, dbApply float64
	if replicated {
		replApply = meanUs(spanApply)
	} else {
		dbApply = meanUs(spanApply)
	}

	shares := map[string]float64{
		"db.vcpu_share":          vcpu,
		"core.vcheckpoint_share": vshare(metrics.TimeCheckpnt),
		"heapo.vshare":           vshare(metrics.TimeSyscall, metrics.TimeHeapAlloc),
		"memsim.vmemcpy_share":   vshare(metrics.TimeMemcpy),
		"memsim.vflush_share":    vshare(metrics.TimeFlush),
		"memsim.vdmb_share":      vshare(metrics.TimeBarrier),
		"memsim.vpersist_share":  vshare(metrics.TimePersist),
		"blockdev.vio_share":     vshare(metrics.TimeBlockIO),
	}
	// t_checkpoint spans whole checkpoint rounds, so the block I/O and
	// NVRAM work inside a round is in it and in its own column; the
	// ledger counts a round once, as checkpoint time.
	attributed := 0.0
	for name, v := range shares {
		if name != "core.vcheckpoint_share" {
			attributed += v
		}
	}
	unattributed := 1 - attributed
	if in.nodeVirt == 0 {
		unattributed = 0
	}

	out := map[string]float64{
		"client.self_us":        clientSelf,
		"client.retries_per_op": ratio(cnt(metrics.ClientRetries), ops),
		"netsim.transit_us":     transit,
		"netsim.send_us":        meanUs(spanSend),
		"netsim.msgs_per_op":    ratio(tr.count(spanSend), ops),
		"netsim.bytes_per_op":   ratio(float64(tr.sums[spanSend].bytes), ops),
		"netsim.vtransit_us":    vtransit,
		"server.handle_us":      meanUs(spanHandle),
		"server.self_us":        serverSelf,
		"server.shed_per_op":    ratio(cnt(metrics.ServerShed), ops),

		"repl.apply_us":                    replApply,
		"repl.ship_rtt_us":                 meanUs(spanShip),
		"repl.vship_rtt_us":                ratio(float64(tr.sums[spanShip].vsum), tr.count(spanShip)) / 1e3,
		"repl.batches_per_write":           ratio(cnt(metrics.ReplBatchesShipped), writes),
		"repl.bytes_shipped_per_user_byte": ratio(cnt(metrics.ReplBytesShipped), float64(st.userBytes)),
		"repl.ack_waits_per_write":         ratio(cnt(metrics.ReplAckWaits), writes),
		"repl.lag_frames_end":              float64(in.lag),
		"repl.replica_get_us":              meanUs(spanReplicaGet),

		"db.apply_us":                  dbApply,
		"db.get_us":                    meanUs(spanGet),
		"db.begin_us":                  meanUs(spanBegin),
		"db.op_us":                     meanUs(spanOp),
		"db.commit_us":                 meanUs(spanCommit),
		"db.scan_us":                   meanUs(spanScan),
		"db.conflicts_per_commit":      ratio(eng(metrics.MVCCConflicts), eng(metrics.MVCCCommits)),
		"db.group_size":                ratio(eng(metrics.Transactions), eng(metrics.GroupCommits)),
		"db.commit_stall_ns_per_write": ratio(eng(metrics.CommitStallNanos), writes),
		"db.pressure_stalls":           eng(metrics.PressureStalls),
		"db.worker_scaling":            ratio(in.untracedRate, in.soloRate),

		"pager.frames_per_write":   ratio(eng(metrics.WALFrames), writes),
		"core.log_bytes_per_write": ratio(eng(metrics.NVRAMBytes), writes),
		"core.checkpoints":         ckpts,
		"core.ckpt_pages_per_ckpt": ratio(eng(metrics.CheckpointPages), ckpts),
		"core.ckpt_wall_ms":        eng(metrics.CheckpointNanos) / 1e6,
		"core.page_version_ns":     in.pageVersionNs,
		"core.recover_frames":      float64(in.rec.frames),

		"heapo.syscalls_per_write": ratio(eng(metrics.Syscall), writes),
		"heapo.allocs_per_write":   ratio(eng(metrics.HeapAlloc), writes),
		"heapo.recycle_hit_rate":   ratio(eng(metrics.HeapRecycleHits), eng(metrics.HeapRecycleHits)+eng(metrics.HeapAlloc)),

		"memsim.flushes_per_write":          ratio(eng(metrics.CacheLineFlush), writes),
		"memsim.dmb_per_write":              ratio(eng(metrics.MemoryBarrier), writes),
		"memsim.persist_barriers_per_write": ratio(eng(metrics.PersistBarrier), writes),
		"memsim.line_writes_per_write":      ratio(eng(metrics.NVRAMLineWrites), writes),

		"blockdev.writes_per_write":    ratio(eng(metrics.BlockWrite), writes),
		"blockdev.reads_per_read":      ratio(eng(metrics.BlockRead), float64(st.reads)),
		"blockdev.fsyncs_per_ckpt":     ratio(eng(metrics.Fsync), ckpts),
		"ext4.journal_writes_per_ckpt": ratio(eng(metrics.JournalWrite), ckpts),

		"ledger.vunattributed_share": unattributed,

		"go.alloc_bytes_per_op": ratio(float64(in.m1.TotalAlloc-in.m0.TotalAlloc), ops),
		"go.gc_cycles":          float64(in.m1.NumGC - in.m0.NumGC),
		"go.gc_pause_ms":        float64(in.m1.PauseTotalNs-in.m0.PauseTotalNs) / 1e6,
		"go.rss_peak_mb":        float64(in.rssKB) / 1024,
		"host.read_p99_us":      st.read.Quantile(0.99) / 1e3,
		"host.write_p99_us":     st.write.Quantile(0.99) / 1e3,
		"host.recover_ms":       float64(in.rec.host) / 1e6,
		"host.fail_share":       ratio(float64(st.failed), float64(st.attempted)),
		"trace.overhead_pct":    100 * (1 - ratio(st.rate(in.wall), in.untracedRate)),
	}
	for name, v := range shares {
		out[name] = v
	}
	return out
}

// samplePageVersion times the journal's snapshot-read primitive, the
// call a session read makes for every page the log still holds: host
// ns per PageVersionAt hit over the low page numbers, against the log
// as the window left it.
func (r *rig) samplePageVersion() float64 {
	j, ok := r.d.Journal().(interface {
		Mark() int
		PageVersionAt(pgno uint32, mark int) ([]byte, bool)
	})
	if !ok {
		return 0
	}
	mark := j.Mark()
	var hits int
	var spent time.Duration
	for pgno := uint32(1); pgno <= 2048; pgno++ {
		t0 := time.Now()
		_, hit := j.PageVersionAt(pgno, mark)
		if d := time.Since(t0); hit {
			hits++
			spent += d
		}
	}
	return ratio(float64(spent), float64(hits))
}
