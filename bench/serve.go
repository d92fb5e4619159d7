package main

import (
	"fmt"
	"time"

	"repro/bench/workload"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/simclock"
)

// clients is a served workload's driver state: GETs go to rd, writes
// to wr (the same client when there is one endpoint).
type clients struct {
	rd, wr *server.Client
	// stale: reads come from replicas, which may lag the primary.
	stale bool
	ops   [workload.MaxBatch]server.Op
}

// execServed issues one GET, PUT or BATCH through server.Client. The
// client allows one outstanding request and the driver waits for each
// reply: a closed loop with one caller.
func execServed(w *worker, op *workload.Op) {
	m, c := w.r.model, w.ext.(*clients)
	if op.Kind == workload.Read {
		k := op.Keys[0]
		key := workload.AppendKey(w.keys[0][:0], k)
		lo := m.version(k)
		t0 := time.Now()
		val, found, err := c.rd.Get(table, key)
		if w.readDone(t0, time.Now(), err) {
			m.checkRead(k, val, found, lo, lo, 0, c.stale)
		}
		return
	}
	// Versions are handed out in op order; a key named twice in one
	// batch gets two consecutive versions and keeps the second.
	var vers [workload.MaxBatch]uint32
	bytes := 0
	for i := 0; i < op.N; i++ {
		k := op.Keys[i]
		vers[i] = m.version(k) + 1
		for j := 0; j < i; j++ {
			if op.Keys[j] == k {
				vers[i] = vers[j] + 1
			}
		}
		w.keys[i] = workload.AppendKey(w.keys[i][:0], k)
		val := w.vals[i][:op.Sizes[i]]
		workload.FillValue(val, k, vers[i])
		c.ops[i] = server.Op{Key: w.keys[i], Value: val}
		bytes += len(w.keys[i]) + len(val)
	}
	var seq uint64
	var err error
	v0, t0 := w.lane.Now(), time.Now()
	if op.N == 1 {
		seq, err = c.wr.Put(table, c.ops[0].Key, c.ops[0].Value)
	} else {
		seq, err = c.wr.Batch(table, c.ops[:op.N])
	}
	acked := w.writeDone(t0, time.Now(), v0, w.lane.Now(), bytes, err)
	m.mu.Lock()
	defer m.mu.Unlock()
	if acked {
		m.ackSeq(w.id, seq)
	}
	for i := 0; i < op.N; i++ {
		if acked {
			m.ackWrite(op.Keys[i], vers[i], op.Sizes[i], seq)
		} else {
			m.unsure[op.Keys[i]] = true
		}
	}
}

// buildServeTCP serves one primary the way cmd/nvwal-server assembles
// it (a Concurrent NVWAL database on the Tuna board behind a
// server.DBEngine) on a real loopback socket, to one client: 90 % GET,
// 9 % PUT, 1 % 8-op BATCH, zipfian keys, values from 64 B to 4 KiB (the
// largest take the btree's overflow path).
func buildServeTCP(cfg config, tr *tracer) (*rig, error) {
	plat, err := platform.NewTuna()
	if err != nil {
		return nil, err
	}
	opts := db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true}
	d, err := db.Open(plat, "serve.db", opts)
	if err != nil {
		return nil, err
	}
	r := &rig{
		cfg: cfg, tr: tr, model: newModel(cfg.scaled(100_000), 1),
		clock: plat.Clock, plat: plat, dbName: "serve.db", dbOpts: opts, d: d,
		// One process, one sink: the client counts into the machine's
		// counters too (their names do not overlap).
		sys: plat.Metrics.Snapshot, node: plat.Metrics.Snapshot, exec: execServed, tailKind: workload.Update,
	}
	sizes := []workload.SizeShare{{Bytes: 64, Weight: 50}, {Bytes: 256, Weight: 35}, {Bytes: 1024, Weight: 12}, {Bytes: 4096, Weight: 3}}
	if err := r.populate(sizes); err != nil {
		return nil, err
	}
	lis, err := netsim.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(tr.traceEngine(server.NewDBEngine(d, 1), plat.Clock, spanGet), server.Options{
		Epoch: 1, Clock: plat.Clock, Pressure: d.Pressure, Metrics: plat.Metrics,
	})
	served := make(chan struct{})
	go func() {
		srv.Serve(tr.traceListener(lis, plat.Clock))
		close(served)
	}()
	cli := server.NewClient(tr.traceDialer(netsim.DialTCP, nil, spanConnWait), []string{lis.Addr()},
		server.ClientOptions{Seed: cfg.seed, Metrics: plat.Metrics})
	r.stop = func() {
		cli.Close()
		srv.Close()
		<-served
	}
	err = r.newWorkers(1, workload.Spec{
		Mix: []workload.Share{
			{Kind: workload.Read, N: 1, Weight: 90},
			{Kind: workload.Update, N: 1, Weight: 9},
			{Kind: workload.Update, N: 8, Weight: 1},
		},
		Keys: len(r.model.ver), ZipfS: 1.1, Sizes: sizes,
	}, []*simclock.Clock{plat.Clock}) // one client, so the server's clock across the call is this call's
	if err != nil {
		r.stop()
		return nil, err
	}
	r.workers[0].ext = &clients{rd: cli, wr: cli}
	return r, nil
}

// buildServeRepl is a 3-node cluster on the simulated network (20 µs
// links, no faults): a primary that waits for one replica's ack per
// commit and two replicas. One driver alternates between a writer
// client, which discovers the primary, and a ReadAnywhere reader given
// only the replicas. The nodes are assembled here from the cluster's
// machines rather than by Cluster.StartPrimary/StartReplica so that a
// traced run can put its decorators between the pieces; an untraced
// run's pieces are the plain ones.
func buildServeRepl(cfg config, tr *tracer) (*rig, error) {
	names := []string{"n0", "n1", "n2"}
	c, err := repl.NewCluster(platform.Config{NVRAM: nvram.Config{
		Size: 32 << 20, CacheLineSize: 32, NVRAMWriteLatency: 500 * time.Nanosecond,
	}}, netsim.Config{Latency: 20 * time.Microsecond}, cfg.seed, names...)
	if err != nil {
		return nil, err
	}
	n0 := c.Node("n0")
	opts := repl.DefaultDBOptions()
	d, err := db.Open(n0.Plat, "n0.db", opts)
	if err != nil {
		return nil, err
	}
	r := &rig{
		cfg: cfg, tr: tr, model: newModel(cfg.scaled(20_000), 1),
		clock: c.Clock, plat: n0.Plat, dbName: "n0.db", dbOpts: opts, d: d,
		sys: c.Registry.Aggregate, node: n0.M.Snapshot, exec: execServed, tailKind: workload.Update,
	}
	sizes := []workload.SizeShare{{Bytes: 256, Weight: 1}}
	if err := r.populate(sizes); err != nil {
		return nil, err
	}

	var stops []func()
	r.stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	serve := func(node *repl.Node, eng server.Engine, getLayer layer, o server.Options) error {
		l, err := c.Net.Listen(node.Name)
		if err != nil {
			return err
		}
		o.Epoch, o.Clock, o.Metrics = 1, node.Plat.Clock, node.M
		srv := server.New(tr.traceEngine(eng, node.Plat.Clock, getLayer), o)
		done := make(chan struct{})
		go func() {
			srv.Serve(tr.traceListener(l, node.Plat.Clock))
			close(done)
		}()
		stops = append(stops, func() { srv.Close(); <-done })
		return nil
	}
	p, err := repl.NewPrimary(d, repl.PrimaryOptions{Epoch: 1, AckReplicas: 1, Clock: n0.Plat.Clock, Metrics: n0.M})
	if err != nil {
		return nil, err
	}
	stops = append(stops, p.Close)
	if err := serve(n0, p, spanGet, server.Options{Pressure: d.Pressure}); err != nil {
		r.stop()
		return nil, err
	}
	var replicas []*repl.Replica
	for _, name := range names[1:] {
		node := c.Node(name)
		rp, err := repl.NewReplica(node.Plat, name+".db", repl.ReplicaOptions{Epoch: 1, Metrics: node.M})
		if err == nil {
			var rl netsim.Listener
			if rl, err = c.Net.Listen(repl.ReplAddr(name)); err == nil {
				done := make(chan struct{})
				go func() {
					rp.Serve(rl)
					close(done)
				}()
				stops = append(stops, func() { rp.Close(); _ = rl.Close(); <-done })
				err = serve(node, rp, spanReplicaGet, server.Options{ReadOnly: true})
			}
		}
		if err != nil {
			r.stop()
			return nil, err
		}
		replicas = append(replicas, rp)
		p.AddReplica(repl.ReplAddr(name), tr.traceDialer(c.Dialer("n0"), n0.Plat.Clock, spanShip))
	}
	r.lag = func() int {
		lag := 0
		for _, rp := range replicas {
			if l := p.Status().Mark - rp.Applied(); l > lag {
				lag = l
			}
		}
		return lag
	}
	// settle waits until both replicas have applied everything the
	// primary committed, then holds each to the model: after semi-sync
	// acks and a quiet moment, a replica that still lacks an
	// acknowledged write has lost it.
	r.settle = func(when string) {
		deadline := time.Now().Add(20 * time.Second)
		for r.lag() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for i, rp := range replicas {
			rp := rp
			r.model.verifyAll(fmt.Sprintf("%s, replica %s", when, names[i+1]),
				func(key []byte) ([]byte, bool, error) { return rp.Get(table, key) })
		}
	}
	r.settle("set-up") // the replicas seed from the populated primary before any op runs

	lane := c.Clock.NewLane()
	c.Net.Register("bench-client", lane)
	dial := tr.traceDialer(c.Dialer("bench-client"), lane, spanConnWait)
	wr := server.NewClient(dial, names, server.ClientOptions{Seed: cfg.seed, Clock: lane, Metrics: c.Registry.Counters("client")})
	rd := server.NewClient(dial, names[1:], server.ClientOptions{Seed: cfg.seed + 1, Clock: lane, ReadAnywhere: true, Metrics: c.Registry.Counters("client")})
	stops = append(stops, wr.Close, rd.Close)
	err = r.newWorkers(1, workload.Spec{
		Mix: []workload.Share{
			{Kind: workload.Read, N: 1, Weight: 50},
			{Kind: workload.Update, N: 1, Weight: 45},
			{Kind: workload.Update, N: 4, Weight: 5}, // every tenth write is a 4-op BATCH
		},
		Keys: len(r.model.ver), Sizes: sizes,
	}, []*simclock.Clock{lane})
	if err != nil {
		r.stop()
		return nil, err
	}
	r.workers[0].ext = &clients{rd: rd, wr: wr, stale: true}
	return r, nil
}
