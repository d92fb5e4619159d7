// Slow-fault (gray-failure) chain mode: the same 3-node replication
// topology as -repl, but nothing fail-stops — everything gets SLOW.
// Each node's NVRAM, block device and file system run with seeded
// slow-fault injection, a chaos goroutine degrades links with latency
// and bufferbloat stalls (no drops: gray, not partitioned), and the
// primary runs an ack-latency budget so slow replicas are quarantined
// and re-admitted while the chain watches.
//
// The oracle differs from -repl's in one dimension: LIVENESS. A gray
// failure's signature harm is the operation that neither completes nor
// fails — so every client op must resolve (success, clean refusal or
// determinate error) within a bounded real time, and the quiesced
// cluster must still converge within a bound. Safety is checked the
// same way as -repl: acked writes are durable, indeterminate writes
// are all-or-nothing, replicas converge exactly — slowness must never
// corrupt, only delay.
package torture

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/ext4"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/server"
)

// slowOpBound is the real-time budget one client operation gets before
// the chain calls it a liveness violation. Generous against the worst
// legal stack-up (retry budget × recv timeout × injected stalls), so a
// trip means a genuine hang, not an unlucky schedule.
const slowOpBound = 10 * time.Second

// slowChainCfg is one gray-failure chain's sampled configuration.
type slowChainCfg struct {
	workers   int
	opsPer    int
	ackBudget time.Duration
	nvSlow    memsim.FaultConfig
	devSlow   blockdev.FaultConfig
	fsSlow    ext4.SlowConfig
	// stallRate/stallDelay parameterize the link chaos.
	stallRate  float64
	stallDelay time.Duration
	// ckptLimit is the primary's checkpoint limit (see replChainCfg).
	ckptLimit int
}

func (c slowChainCfg) String() string {
	return fmt.Sprintf("slow w=%d ops=%d ackBudget=%v nv=%g dev=%g fsync=%g stall=%g/%v ckpt=%d",
		c.workers, c.opsPer, c.ackBudget, c.nvSlow.SlowOpRate, c.devSlow.SlowOpRate,
		c.fsSlow.FsyncStallRate, c.stallRate, c.stallDelay, c.ckptLimit)
}

func sampleSlowChain(rng *rand.Rand, opts Options) slowChainCfg {
	cfg := slowChainCfg{
		workers:   2 + rng.Intn(2),
		opsPer:    20 + rng.Intn(21),
		ackBudget: time.Duration(2+rng.Intn(7)) * time.Millisecond,
		nvSlow: memsim.FaultConfig{
			Seed:        rng.Int63(),
			SlowOpRate:  0.005 * rng.Float64(),
			SlowOpDelay: time.Duration(10+rng.Intn(190)) * time.Microsecond,
		},
		devSlow: blockdev.FaultConfig{
			Seed:           rng.Int63(),
			SlowOpRate:     0.01 * rng.Float64(),
			SlowOpDelay:    time.Duration(50+rng.Intn(450)) * time.Microsecond,
			SyncStallRate:  0.05 * rng.Float64(),
			SyncStallDelay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
		},
		fsSlow: ext4.SlowConfig{
			Seed:            rng.Int63(),
			FsyncStallRate:  0.05 * rng.Float64(),
			FsyncStallDelay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
		},
		stallRate:  0.05 + 0.15*rng.Float64(),
		stallDelay: time.Duration(1+rng.Intn(10)) * time.Millisecond,
		ckptLimit:  6 + rng.Intn(20),
	}
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	}
	if opts.MaxTxns > 0 && cfg.opsPer > opts.MaxTxns {
		cfg.opsPer = opts.MaxTxns
	}
	return cfg
}

// runSlowChain runs one gray-failure chain.
func runSlowChain(opts Options, step int) chainResult {
	seed := mix(opts.Seed, step)
	rng := rand.New(rand.NewSource(seed))
	cfg := sampleSlowChain(rng, opts)
	res := chainResult{}

	repro := fmt.Sprintf("nvwal-fuzz -seed %d -step %d -slow", opts.Seed, step)
	if opts.MaxTxns > 0 {
		repro += fmt.Sprintf(" -max-txns %d", opts.MaxTxns)
	}
	var vmu sync.Mutex
	fail := func(v Violation) {
		vmu.Lock()
		res.violations = append(res.violations, ViolationReport{
			Step: step, Seed: opts.Seed, Round: 0, Chain: cfg.String(),
			Kind: v.Kind, Worker: v.Worker, Detail: v.Detail, Repro: repro,
		})
		vmu.Unlock()
	}

	names := []string{"n0", "n1", "n2"}
	pcfg := platform.Config{NVRAM: nvram.Config{
		Size:              16 << 20,
		CacheLineSize:     32,
		NVRAMWriteLatency: 500 * time.Nanosecond,
	}}
	cluster, err := repl.NewCluster(pcfg, netsim.Config{
		Latency: 20 * time.Microsecond,
		Jitter:  10 * time.Microsecond,
	}, seed, names...)
	if err != nil {
		fail(Violation{Kind: "error", Worker: -1, Detail: "cluster: " + err.Error()})
		return res
	}
	// Arm the storage-stack gray faults on every node; each node gets
	// its own derived seed so the fleet does not stall in lockstep.
	for i, name := range names {
		plat := cluster.Node(name).Plat
		nf := cfg.nvSlow
		nf.Seed = mix(nf.Seed, i)
		plat.NVRAM.InjectFaults(nf)
		df := cfg.devSlow
		df.Seed = mix(df.Seed, i)
		plat.Flash.InjectFaults(df)
		ff := cfg.fsSlow
		ff.Seed = mix(ff.Seed, i)
		plat.FS.InjectSlowFaults(ff)
	}

	popts := repl.PrimaryOptions{
		Epoch: 1, AckReplicas: 1, AckTimeout: 150 * time.Millisecond,
		AckBudget: cfg.ackBudget,
	}
	pn, err := cluster.StartPrimary(names[0], replDBOptions(cfg.ckptLimit), popts, server.Options{})
	if err != nil {
		fail(Violation{Kind: "error", Worker: -1, Detail: "start primary: " + err.Error()})
		return res
	}
	if err := pn.DB.CreateTable("kv"); err != nil {
		fail(Violation{Kind: "error", Worker: -1, Detail: "create table: " + err.Error()})
		return res
	}
	replicas := map[string]*repl.ReplicaNode{}
	for _, name := range names[1:] {
		rn, err := cluster.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			fail(Violation{Kind: "error", Worker: -1, Detail: "start replica: " + err.Error()})
			return res
		}
		replicas[name] = rn
		pn.Attach(cluster, name)
	}
	defer func() {
		pn.Stop(false)
		for _, rn := range replicas {
			rn.Stop()
		}
	}()

	oracle := newReplOracle()
	opts.logf("chain %d (seed %d): %s", step, seed, cfg)

	// Writers (liveness-bounded) plus one hedged reader on its own
	// clock lane, all under link chaos.
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runSlowWorker(cluster, names, oracle, fail, &done, mix(seed, 1000+w), w, cfg.opsPer)
		}(w)
	}
	readerStop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		runSlowReader(cluster, names, fail, mix(seed, 2000), readerStop)
	}()

	chaos := startSlowChaos(cluster, names, mix(seed, 777), cfg.stallRate, cfg.stallDelay)
	// Wait for the writers only; the reader runs until they are done.
	waitDone := make(chan struct{})
	go func() {
		defer close(waitDone)
		for done.Load() < int64(cfg.workers*cfg.opsPer) {
			time.Sleep(time.Millisecond)
			vmu.Lock()
			n := len(res.violations)
			vmu.Unlock()
			if n > 0 {
				return
			}
		}
	}()
	<-waitDone
	close(readerStop)
	wg.Wait()
	chaos.stop()

	// Quiesce: heal every link, then the cluster must CONVERGE within a
	// bound — a quarantined replica that never resyncs is the exact
	// gray-failure end state this mode exists to catch.
	cluster.Net.HealAll()
	res.txns = oracle.acked
	res.rounds = 1
	target := pn.Repl.Status().Mark
	for name, rn := range replicas {
		if !rn.WaitCaughtUp(target, 15*time.Second) {
			fail(Violation{Kind: "liveness", Worker: -1,
				Detail: fmt.Sprintf("replica %s stuck at %d after heal, primary mark %d (quarantined=%v)",
					name, rn.R.Applied(), target, pn.Repl.Quarantined())})
		}
	}
	if len(res.violations) > 0 {
		return res
	}
	for _, v := range oracle.verify(func(key string) (string, bool, error) {
		v, found, err := pn.Repl.Get("kv", []byte(key))
		return string(v), found, err
	}) {
		fail(v)
	}
	for name, rn := range replicas {
		for k := range oracle.allowed {
			pv, pfound, _ := pn.Repl.Get("kv", []byte(k))
			rv, rfound, rerr := rn.R.Get("kv", []byte(k))
			if rerr != nil || rfound != pfound || string(rv) != string(pv) {
				fail(Violation{Kind: "staleness", Worker: -1,
					Detail: fmt.Sprintf("replica %s key %q = %q/%v, primary %q/%v (err %v)",
						name, k, rv, rfound, pv, pfound, rerr)})
				break
			}
		}
	}
	if len(res.violations) > 0 {
		opts.logf("chain %d: VIOLATION", step)
	} else {
		opts.logf("chain %d: ok (%d acked, quarantines=%d readmits=%d hedged=%d)",
			step, oracle.acked,
			pn.Node.M.Count(metrics.ReplicaQuarantines),
			pn.Node.M.Count(metrics.ReplicaReadmits),
			cluster.Registry.Counters("rd").Count(metrics.HedgedReads))
	}
	return res
}

// runSlowWorker is runReplWorker with the liveness stopwatch: every op
// must resolve within slowOpBound of real time.
func runSlowWorker(c *repl.Cluster, addrs []string, oracle *replOracle,
	fail func(Violation), done *atomic.Int64, seed int64, w, ops int) {
	rng := rand.New(rand.NewSource(seed))
	cli := server.NewClient(c.Dialer(fmt.Sprintf("w%d", w)), addrs, server.ClientOptions{
		RetryBudget: 10,
		RecvTimeout: 30 * time.Millisecond,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  3 * time.Millisecond,
		Deadline:    50 * time.Millisecond,
		Seed:        seed,
	})
	defer cli.Close()

	for i := 0; i < ops; i++ {
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		k := fmt.Sprintf("w%dk%d", w, rng.Intn(replKeysPerWorker))
		val := fmt.Sprintf("w%d.%d.%x", w, i, rng.Int63())
		start := time.Now()
		var err error
		if rng.Intn(100) < 25 {
			_, err = cli.Delete("kv", []byte(k))
			recordOutcome(err,
				func() { oracle.ackedWrite(k, "") },
				func() { oracle.indeterminateWrite(k, "") })
		} else {
			_, err = cli.Put("kv", []byte(k), []byte(val))
			recordOutcome(err,
				func() { oracle.ackedWrite(k, val) },
				func() { oracle.indeterminateWrite(k, val) })
		}
		if took := time.Since(start); took > slowOpBound {
			fail(Violation{Kind: "liveness", Worker: w,
				Detail: fmt.Sprintf("op %d on %q took %v of real time (err %v)", i, k, took, err)})
			return
		}
		done.Add(1)
	}
}

// runSlowReader hammers hedged reads across all three nodes from its
// own clock lane until stopped. Values are not checked (replica reads
// are legally stale); the oracle here is liveness — a hedged read must
// never hang past the bound — plus the usual absence of client errors
// that indicate protocol damage.
func runSlowReader(c *repl.Cluster, addrs []string, fail func(Violation), seed int64, stop <-chan struct{}) {
	lane := c.Clock.NewLane()
	c.Net.Register("rd", lane)
	cli := server.NewClient(c.Dialer("rd"), addrs, server.ClientOptions{
		Metrics:      c.Registry.Counters("rd"),
		RetryBudget:  10,
		RecvTimeout:  30 * time.Millisecond,
		BackoffBase:  200 * time.Microsecond,
		BackoffMax:   3 * time.Millisecond,
		ReadAnywhere: true,
		HedgeDelay:   200 * time.Microsecond,
		Clock:        lane,
		Seed:         seed,
	})
	defer cli.Close()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		k := fmt.Sprintf("w%dk%d", rng.Intn(4), rng.Intn(replKeysPerWorker))
		start := time.Now()
		_, _, err := cli.Get("kv", []byte(k))
		if took := time.Since(start); took > slowOpBound {
			fail(Violation{Kind: "liveness", Worker: -1,
				Detail: fmt.Sprintf("hedged read %d of %q took %v of real time (err %v)", i, k, took, err)})
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// startSlowChaos degrades links with latency and bufferbloat stalls —
// never drops or partitions; gray failures deliver everything, late.
func startSlowChaos(c *repl.Cluster, names []string, seed int64, stallRate float64, stallDelay time.Duration) *replChaos {
	rc := &replChaos{quit: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	base := netsim.Config{Latency: 20 * time.Microsecond, Jitter: 10 * time.Microsecond}
	go func() {
		defer close(rc.done)
		type link struct{ a, b string }
		var degraded []link
		defer func() {
			for _, l := range degraded {
				c.Net.SetLink(l.a, l.b, base)
			}
		}()
		for {
			select {
			case <-rc.quit:
				return
			case <-time.After(time.Duration(2+rng.Intn(6)) * time.Millisecond):
			}
			switch rng.Intn(3) {
			case 0: // gray-degrade a replica ack path (drives quarantine)
				n := names[1+rng.Intn(len(names)-1)]
				bad := netsim.Config{
					Latency:    time.Duration(1+rng.Intn(20)) * time.Millisecond,
					Jitter:     500 * time.Microsecond,
					StallRate:  stallRate,
					StallDelay: stallDelay,
				}
				c.Net.SetLink(repl.ReplAddr(n), names[0], bad)
				degraded = append(degraded, link{repl.ReplAddr(n), names[0]})
			case 1: // bufferbloat a client or reader link
				from := fmt.Sprintf("w%d", rng.Intn(4))
				if rng.Intn(3) == 0 {
					from = "rd"
				}
				n := names[rng.Intn(len(names))]
				bad := netsim.Config{
					Latency:    time.Duration(100+rng.Intn(900)) * time.Microsecond,
					Jitter:     200 * time.Microsecond,
					StallRate:  stallRate,
					StallDelay: stallDelay,
				}
				c.Net.SetLink(from, n, bad)
				c.Net.SetLink(n, from, bad)
				degraded = append(degraded, link{from, n}, link{n, from})
			case 2: // heal the oldest degradation
				if len(degraded) > 0 {
					l := degraded[0]
					degraded = degraded[1:]
					c.Net.SetLink(l.a, l.b, base)
				}
			}
		}
	}()
	return rc
}
