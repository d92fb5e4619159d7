// Cluster chains: a 3-node cluster (primary + 2 WAL-shipping replicas)
// serving client workloads through the simulated network. Two rows of
// the mode table run here, differing in clusterRow parameters only.
//
// -repl fail-stops. Each round is one primary era: workers write through
// server.Client (retries, rediscovery and backoff included — the client
// under test IS part of the system under test), the chain partitions
// replica links and degrades client links mid-era, then crash-fails the
// primary (isolate + power fail), promotes the most-caught-up replica
// under a new fencing epoch, and reboots the old primary back in as a
// replica (which re-seeds by incarnation mismatch).
//
// -slow is the gray-failure row: the same topology, but nothing
// fail-stops — everything gets SLOW. Each node's NVRAM, block device and
// file system run with seeded slow-fault injection, the chaos degrades
// links with latency and bufferbloat stalls (no drops: gray, not
// partitioned), and the primary runs an ack-latency budget so slow
// replicas are quarantined and re-admitted while the chain watches. Its
// oracle adds LIVENESS: a gray failure's signature harm is the operation
// that neither completes nor fails, so every client op must resolve
// (success, clean refusal or determinate error) within a bounded real
// time. Slowness must never corrupt, only delay.
//
// The oracle is outcome-based rather than history-replay-based,
// because concurrent clients over a faulty network have no single
// authoritative interleaving:
//
//   - Durability: a client-acked write (semi-sync, quorum 1) must be
//     present with its exact value after every failover.
//   - Indeterminacy: a write whose outcome the client reported as
//     indeterminate may be present or absent — but nothing ELSE: the
//     surviving value must be one the client actually attempted or
//     the last acked value.
//   - Atomicity: an indeterminate BATCH (one transaction) whose keys
//     were never rewritten must be fully present or fully absent.
//   - Replica consistency: once writes stop and links heal, every
//     replica catches up within a bound — a quarantined replica that
//     never resyncs is the exact gray-failure end state -slow exists to
//     catch — and then serves exactly the primary's values, its applied
//     mark never exceeds the primary's mark, and reliable-link shipping
//     never latches divergence.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockdev"
	"repro/internal/db"
	"repro/internal/ext4"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/repl"
	"repro/internal/server"
)

// clusterRow is everything in which the rows clusterChain runs differ.
type clusterRow struct {
	failover     bool // every era ends by crash-failing its primary and promoting a replica
	hedgedReader bool // a hedged reader on its own clock lane runs beside the writers
	// batchPct and deletePct are the client op mix, in percent:
	// multi-key batches (one transaction each), deletes; the rest are puts.
	batchPct, deletePct int
	// opBound is the real-time budget one client operation gets before
	// the chain calls it a liveness violation (0 = no stopwatch).
	opBound time.Duration
	// converge is how long healed replicas get to catch up.
	converge time.Duration
	// chaosStep is one step of the row's link chaos.
	chaosStep func(rng *rand.Rand, lc *linkChaos)
}

func (row clusterRow) late(took time.Duration) bool { return row.opBound > 0 && took > row.opBound }

// slowOpBound is generous against the worst legal stack-up (retry
// budget × recv timeout × injected stalls), so a trip means a genuine
// hang, not an unlucky schedule.
const slowOpBound = 10 * time.Second

// sampleRepl draws a replication chain. ckptLimit is every primary's
// db.Options.CheckpointLimit: a few frames, so an era of a few dozen
// writes crosses many checkpoint boundaries — replica rounds, export
// retention and resume under partition all happen — where the default
// 1 000 would see none.
func sampleRepl(rng *rand.Rand, opts Options) chainCfg {
	cfg := chainCfg{
		workers: 2 + rng.Intn(2),
		rounds:  2 + rng.Intn(2),
		txns:    15 + rng.Intn(16),
	}
	cfg.faults.link.DropRate = 0.1 + 0.3*rng.Float64()
	cfg.ckptLimit = 6 + rng.Intn(20)
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	}
	return cfg
}

func describeRepl(c chainCfg) string {
	return fmt.Sprintf("repl w=%d eras=%d ops=%d drop<=%.2f ckpt=%d",
		c.workers, c.rounds, c.txns, c.faults.link.DropRate, c.ckptLimit)
}

// sampleSlow draws a gray-failure chain: one era, every layer's slow
// faults, the link chaos' stall parameters.
func sampleSlow(rng *rand.Rand, opts Options) chainCfg {
	cfg := chainCfg{
		rounds:    1,
		workers:   2 + rng.Intn(2),
		txns:      20 + rng.Intn(21),
		ackBudget: time.Duration(2+rng.Intn(7)) * time.Millisecond,
		faults: faultPlan{
			nv: memsim.FaultConfig{
				Seed:        rng.Int63(),
				SlowOpRate:  0.005 * rng.Float64(),
				SlowOpDelay: time.Duration(10+rng.Intn(190)) * time.Microsecond,
			},
			dev: blockdev.FaultConfig{
				Seed:           rng.Int63(),
				SlowOpRate:     0.01 * rng.Float64(),
				SlowOpDelay:    time.Duration(50+rng.Intn(450)) * time.Microsecond,
				SyncStallRate:  0.05 * rng.Float64(),
				SyncStallDelay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
			},
			fs: ext4.SlowConfig{
				Seed:            rng.Int63(),
				FsyncStallRate:  0.05 * rng.Float64(),
				FsyncStallDelay: time.Duration(1+rng.Intn(5)) * time.Millisecond,
			},
			link: netsim.Config{
				StallRate:  0.05 + 0.15*rng.Float64(),
				StallDelay: time.Duration(1+rng.Intn(10)) * time.Millisecond,
			},
		},
		ckptLimit: 6 + rng.Intn(20),
	}
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	}
	return cfg
}

func describeSlow(c chainCfg) string {
	return fmt.Sprintf("slow w=%d ops=%d ackBudget=%v nv=%g dev=%g fsync=%g stall=%g/%v ckpt=%d",
		c.workers, c.txns, c.ackBudget, c.faults.nv.SlowOpRate, c.faults.dev.SlowOpRate,
		c.faults.fs.FsyncStallRate, c.faults.link.StallRate, c.faults.link.StallDelay, c.ckptLimit)
}

// replOracle accumulates per-key allowed outcomes across the whole
// chain. "" stands for absent.
type replOracle struct {
	mu      sync.Mutex
	allowed map[string]map[string]bool
	version map[string]int
	batches []replBatch
	acked   int
}

// replBatch is one indeterminate batch write: all-or-nothing unless a
// key was rewritten afterwards (vers records the write versions this
// batch installed).
type replBatch struct {
	keys []string
	vals []string
	vers []int
}

func newReplOracle() *replOracle {
	return &replOracle{
		allowed: make(map[string]map[string]bool),
		version: make(map[string]int),
	}
}

func (o *replOracle) ensure(k string) map[string]bool {
	set := o.allowed[k]
	if set == nil {
		set = map[string]bool{"": true} // never written = absent
		o.allowed[k] = set
	}
	return set
}

// ackedWrite collapses the key to exactly one legal value.
func (o *replOracle) ackedWrite(k, v string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.allowed[k] = map[string]bool{v: true}
	o.version[k]++
	o.acked++
}

// indeterminateWrite widens the key's legal set by the attempted value.
func (o *replOracle) indeterminateWrite(k, v string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ensure(k)[v] = true
	o.version[k]++
}

func (o *replOracle) ackedBatch(keys, vals []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, k := range keys {
		o.allowed[k] = map[string]bool{vals[i]: true}
		o.version[k]++
	}
	o.acked++
}

func (o *replOracle) indeterminateBatch(keys, vals []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b := replBatch{keys: keys, vals: vals, vers: make([]int, len(keys))}
	for i, k := range keys {
		o.ensure(k)[vals[i]] = true
		o.version[k]++
		b.vers[i] = o.version[k]
	}
	o.batches = append(o.batches, b)
}

// verify checks the oracle against reads of the current primary.
func (o *replOracle) verify(get func(key string) (string, bool, error)) []Violation {
	o.mu.Lock()
	defer o.mu.Unlock()
	var vs []Violation
	for k, set := range o.allowed {
		v, found, err := get(k)
		if err != nil {
			vs = append(vs, Violation{Kind: "error", Worker: -1,
				Detail: fmt.Sprintf("verify read %q: %v", k, err)})
			continue
		}
		got := ""
		if found {
			got = v
		}
		if !set[got] {
			kind := "resurrection"
			if len(set) == 1 {
				kind = "durability"
			}
			vs = append(vs, Violation{Kind: kind, Worker: -1,
				Detail: fmt.Sprintf("key %q = %q after failover, legal outcomes %v", k, got, keysOf(set))})
		}
	}
	for _, b := range o.batches {
		current := true
		for i, k := range b.keys {
			if o.version[k] != b.vers[i] {
				current = false // rewritten since; all-or-nothing no longer decidable
				break
			}
		}
		if !current {
			continue
		}
		present := 0
		for i, k := range b.keys {
			v, found, err := get(k)
			if err == nil && found && v == b.vals[i] {
				present++
			}
		}
		if present != 0 && present != len(b.keys) {
			vs = append(vs, Violation{Kind: "atomicity", Worker: -1,
				Detail: fmt.Sprintf("indeterminate batch %v torn: %d/%d keys present", b.keys, present, len(b.keys))})
		}
	}
	return vs
}

func keysOf(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, fmt.Sprintf("%q", k))
	}
	return out
}

// replTopology is the chain's live cluster view, mutated by failovers.
type replTopology struct {
	c         *repl.Cluster
	names     []string
	pn        *repl.PrimaryNode
	replicas  map[string]*repl.ReplicaNode
	epoch     uint64
	dbOpts    db.Options
	ackBudget time.Duration
}

// primaryOptions is what every primary of the chain, initial or
// promoted, serves with under the current epoch.
func (t *replTopology) primaryOptions() repl.PrimaryOptions {
	return repl.PrimaryOptions{Epoch: t.epoch, AckReplicas: 1,
		AckTimeout: 150 * time.Millisecond, AckBudget: t.ackBudget}
}

// healthyLink is every link's fault model until the chaos touches it,
// and again once it is restored.
var healthyLink = netsim.Config{Latency: 20 * time.Microsecond, Jitter: 10 * time.Microsecond}

const replKeysPerWorker = 4

// clusterChain runs one cluster chain: bring the cluster up with the
// fault plan armed on every node, then per era run the clients under
// link chaos (and, on a failover row, crash the primary mid-workload),
// quiesce, let the replicas converge and check every invariant against
// the current primary.
func clusterChain(c *chain) {
	row := c.mode.cluster
	names := []string{"n0", "n1", "n2"}
	cluster, err := repl.NewCluster(simNVRAM(16<<20), healthyLink, c.seed, names...)
	if err != nil {
		c.failf(-1, "error", "cluster: %v", err)
		return
	}
	for i, name := range names {
		c.cfg.faults.arm(cluster.Node(name).Plat, i)
	}
	topo := &replTopology{c: cluster, names: names, replicas: map[string]*repl.ReplicaNode{},
		epoch: 1, dbOpts: repl.DefaultDBOptions(), ackBudget: c.cfg.ackBudget}
	topo.dbOpts.CheckpointLimit = c.cfg.ckptLimit
	topo.pn, err = cluster.StartPrimary(names[0], topo.dbOpts, topo.primaryOptions(), server.Options{})
	if err != nil {
		c.failf(-1, "error", "start primary: %v", err)
		return
	}
	defer func() {
		topo.pn.Stop(false)
		for _, rn := range topo.replicas {
			rn.Stop()
		}
	}()
	if err := topo.pn.DB.CreateTable("kv"); err != nil {
		c.failf(-1, "error", "create table: %v", err)
		return
	}
	for _, name := range names[1:] {
		rn, err := cluster.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			c.failf(-1, "error", "start replica: %v", err)
			return
		}
		topo.replicas[name] = rn
		topo.pn.Attach(cluster, name)
	}

	oracle := newReplOracle()
	for era := 0; era < c.cfg.rounds; era++ {
		ackedBefore := oracle.acked
		var done atomic.Int64
		var writers, reader sync.WaitGroup
		for w := 0; w < c.cfg.workers; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				clientWorker(c, topo, oracle, &done, era, w)
			}(w)
		}
		readerStop := make(chan struct{})
		if row.hedgedReader {
			reader.Add(1)
			go func() {
				defer reader.Done()
				hedgedReader(c, topo, era, readerStop)
			}()
		}

		chaos := startChaos(c, topo, mix(c.seed, era*1000+777))
		if row.failover {
			// The crash fires mid-workload — once a sampled fraction of
			// the era's ops have resolved — so in-flight requests straddle
			// the failover.
			crashAt := int64(float64(c.cfg.workers*c.cfg.txns) * (0.2 + 0.4*c.rng.Float64()))
			deadline := time.Now().Add(2 * time.Second)
			for done.Load() < crashAt && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			chaos.stop()
			policy := c.cfg.policies[c.rng.Intn(len(c.cfg.policies))]
			if err := failOver(topo, policy, c.rng.Int63()); err != nil {
				c.failf(era, "error", "%v", err)
				return
			}
			// More chaos against the NEW primary, workers still running
			// (they rediscover through fencing).
			chaos = startChaos(c, topo, mix(c.seed, era*1000+888))
		}
		writers.Wait()
		close(readerStop) // the reader runs until the writers are done
		reader.Wait()
		chaos.stop()

		// Quiesce: heal everything, then the replicas must CONVERGE
		// within the bound. Caught up means: following THIS primary's log
		// (marks of a former incarnation say nothing, and a promoted
		// primary whose replica journal was just checkpointed starts its
		// mark space at 0) through its current mark.
		cluster.Net.HealAll()
		c.res.txns += oracle.acked - ackedBefore
		pr := topo.pn.Repl
		target := pr.Status().Mark
		for name, rn := range topo.replicas {
			deadline := time.Now().Add(row.converge)
			for rn.R.Incarnation() != topo.epoch && time.Now().Before(deadline) {
				time.Sleep(500 * time.Microsecond)
			}
			if rn.R.Incarnation() != topo.epoch || !rn.WaitCaughtUp(target, time.Until(deadline)) {
				c.failf(era, "liveness", "replica %s stuck at %d of incarnation %d after heal, primary mark %d of %d (quarantined=%v)",
					name, rn.R.Applied(), rn.R.Incarnation(), target, topo.epoch, pr.Quarantined())
			}
		}
		if c.failed() {
			return
		}
		for _, v := range oracle.verify(func(key string) (string, bool, error) {
			v, found, err := pr.Get("kv", []byte(key))
			return string(v), found, err
		}) {
			c.fail(era, v)
		}
		for name, rn := range topo.replicas {
			if derr := rn.R.Degraded(); derr != nil {
				c.failf(era, "divergence", "replica %s degraded on reliable links: %v", name, derr)
			}
			if rn.R.Applied() > pr.Status().Mark {
				c.failf(era, "staleness", "replica %s applied %d beyond primary mark %d", name, rn.R.Applied(), pr.Status().Mark)
			}
			for k := range oracle.allowed {
				pv, pfound, _ := pr.Get("kv", []byte(k))
				rv, rfound, rerr := rn.R.Get("kv", []byte(k))
				if rerr != nil || rfound != pfound || string(rv) != string(pv) {
					c.failf(era, "staleness", "replica %s key %q = %q/%v, primary %q/%v (err %v)",
						name, k, rv, rfound, pv, pfound, rerr)
					break
				}
			}
		}
		c.res.rounds++
		if c.failed() {
			c.opts.logf("chain %d era %d: VIOLATION", c.step, era)
			return
		}
		c.opts.logf("chain %d era %d: ok (primary %s, epoch %d, %d acked, quarantines=%d readmits=%d hedged=%d)",
			c.step, era, topo.pn.Node.Name, topo.epoch, oracle.acked-ackedBefore,
			topo.pn.Node.M.Count(metrics.ReplicaQuarantines),
			topo.pn.Node.M.Count(metrics.ReplicaReadmits),
			cluster.Registry.Counters("rd").Count(metrics.HedgedReads))
	}
}

// failOver crash-fails the current primary, promotes the most-caught-up
// replica under the next epoch, and reboots the old primary back in as
// a replica.
func failOver(topo *replTopology, policy memsim.FailPolicy, pfSeed int64) error {
	c := topo.c
	oldName := topo.pn.Node.Name
	c.IsolateNode(oldName)
	topo.pn.Node.Plat.PowerFail(policy, pfSeed)
	topo.pn.Stop(true)

	var best *repl.ReplicaNode
	for _, rn := range topo.replicas {
		if best == nil || rn.R.Applied() > best.R.Applied() {
			best = rn
		}
	}
	bestName := best.Node.Name
	delete(topo.replicas, bestName)
	best.Stop()
	topo.epoch++
	d, err := best.R.Promote(topo.dbOpts)
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	pn, err := c.ServePromoted(bestName, d, topo.primaryOptions(), server.Options{})
	if err != nil {
		return fmt.Errorf("serve promoted: %w", err)
	}
	topo.pn = pn
	for name := range topo.replicas {
		pn.Attach(c, name)
	}

	// The old primary reboots and rejoins as a replica: it has no cursor
	// record, so it re-seeds from the new primary by construction.
	if err := c.Node(oldName).Plat.Reboot(); err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	c.RejoinNode(oldName)
	rn, err := c.StartReplica(oldName, repl.ReplicaOptions{Epoch: topo.epoch}, server.Options{})
	if err != nil {
		return fmt.Errorf("rejoin replica: %w", err)
	}
	topo.replicas[oldName] = rn
	pn.Attach(c, oldName)
	return nil
}

// clientOptions is what every chain client dials with.
func clientOptions(seed int64) server.ClientOptions {
	return server.ClientOptions{
		RetryBudget: 10,
		RecvTimeout: 30 * time.Millisecond,
		BackoffBase: 200 * time.Microsecond,
		BackoffMax:  3 * time.Millisecond,
		Seed:        seed,
	}
}

// clientWorker drives one writing client through its era budget, in the
// row's op mix and under the row's stopwatch. Keyspaces are per-worker,
// so the oracle's per-key version bookkeeping is exact.
func clientWorker(c *chain, topo *replTopology, oracle *replOracle, done *atomic.Int64, era, w int) {
	row := c.mode.cluster
	seed := mix(c.seed, era*1000+w)
	rng := rand.New(rand.NewSource(seed))
	copts := clientOptions(seed)
	copts.Deadline = 50 * time.Millisecond
	cli := server.NewClient(topo.c.Dialer(fmt.Sprintf("w%d", w)), topo.names, copts)
	defer cli.Close()

	for i := 0; i < c.cfg.txns; i++ {
		// A short think time keeps the era open long enough for the
		// chain's mid-workload crash to land between (and inside) ops.
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		val := fmt.Sprintf("w%d.%d.%x", w, i, rng.Int63())
		start := time.Now()
		var err error
		switch r := rng.Intn(100); {
		case r < row.batchPct: // 2-3 distinct keys, one transaction
			perm := rng.Perm(replKeysPerWorker)
			n := 2 + rng.Intn(2)
			keys := make([]string, n)
			vals := make([]string, n)
			bops := make([]server.Op, n)
			for j := 0; j < n; j++ {
				keys[j] = fmt.Sprintf("w%dk%d", w, perm[j])
				vals[j] = fmt.Sprintf("%s.b%d", val, j)
				bops[j] = server.Op{Key: []byte(keys[j]), Value: []byte(vals[j])}
			}
			_, err = cli.Batch("kv", bops)
			recordOutcome(err,
				func() { oracle.ackedBatch(keys, vals) },
				func() { oracle.indeterminateBatch(keys, vals) })
		default: // one key: a delete or a put
			k, v := fmt.Sprintf("w%dk%d", w, rng.Intn(replKeysPerWorker)), val
			if r < row.batchPct+row.deletePct {
				v = ""
				_, err = cli.Delete("kv", []byte(k))
			} else {
				_, err = cli.Put("kv", []byte(k), []byte(v))
			}
			recordOutcome(err,
				func() { oracle.ackedWrite(k, v) },
				func() { oracle.indeterminateWrite(k, v) })
		}
		if took := time.Since(start); row.late(took) {
			c.fail(era, Violation{Kind: "liveness", Worker: w,
				Detail: fmt.Sprintf("op %d took %v of real time (err %v)", i, took, err)})
			return
		}
		done.Add(1)
	}
}

// recordOutcome maps a client result onto the oracle: success is an
// acked write, an indeterminate error widens the legal set, and a
// determinate error means no attempt was applied (the client only
// reports determinate failure when every attempt was refused before
// execution or cleanly rolled back).
func recordOutcome(err error, acked, indeterminate func()) {
	if err == nil {
		acked()
		return
	}
	var oe *server.OpError
	if errors.As(err, &oe) && oe.Indeterminate {
		indeterminate()
	}
}

// hedgedReader hammers hedged reads across all three nodes from its
// own clock lane until stopped. Values are not checked (replica reads
// are legally stale); the oracle here is liveness — a hedged read must
// never hang past the row's bound.
func hedgedReader(c *chain, topo *replTopology, era int, stop <-chan struct{}) {
	seed := mix(c.seed, era*1000+2000)
	lane := topo.c.Clock.NewLane()
	topo.c.Net.Register("rd", lane)
	copts := clientOptions(seed)
	copts.Metrics = topo.c.Registry.Counters("rd")
	copts.ReadAnywhere = true
	copts.HedgeDelay = 200 * time.Microsecond
	copts.Clock = lane
	cli := server.NewClient(topo.c.Dialer("rd"), topo.names, copts)
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
		if took := time.Since(start); c.mode.cluster.late(took) {
			c.failf(era, "liveness", "hedged read %d of %q took %v of real time (err %v)", i, k, took, err)
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// linkChaos injects link faults until stopped, then undoes exactly what
// it did (never the chain's own isolations).
type linkChaos struct {
	net     *netsim.Network
	names   []string      // the nodes
	primary string        // the primary when the chaos started
	plan    netsim.Config // the fault plan's link: how bad a link may get
	broken  []brokenLink  // everything still to undo, oldest first
	quit    chan struct{}
	done    chan struct{}
}

type brokenLink struct {
	from, to string
	parted   bool // partitioned rather than degraded
}

func startChaos(c *chain, topo *replTopology, seed int64) *linkChaos {
	lc := &linkChaos{net: topo.c.Net, names: topo.names, primary: topo.pn.Node.Name,
		plan: c.cfg.faults.link, quit: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(lc.done)
		for {
			select {
			case <-lc.quit:
				for _, l := range lc.broken {
					lc.undo(l)
				}
				return
			case <-time.After(time.Duration(2+rng.Intn(6)) * time.Millisecond):
				c.mode.cluster.chaosStep(rng, lc)
			}
		}
	}()
	return lc
}

func (lc *linkChaos) stop() {
	close(lc.quit)
	<-lc.done
}

// degrade gives the link from -> to a worse fault model.
func (lc *linkChaos) degrade(from, to string, cfg netsim.Config) {
	lc.net.SetLink(from, to, cfg)
	lc.broken = append(lc.broken, brokenLink{from, to, false})
}

func (lc *linkChaos) partition(a, b string) {
	lc.net.Partition(a, b)
	lc.broken = append(lc.broken, brokenLink{a, b, true})
}

func (lc *linkChaos) undo(l brokenLink) {
	if l.parted {
		lc.net.Heal(l.from, l.to)
	} else {
		lc.net.SetLink(l.from, l.to, healthyLink)
	}
}

// mend undoes the oldest outstanding partition, or degradation, early.
func (lc *linkChaos) mend(parted bool) {
	for i, l := range lc.broken {
		if l.parted == parted {
			lc.undo(l)
			lc.broken = append(lc.broken[:i], lc.broken[i+1:]...)
			return
		}
	}
}

// replChaosStep is fail-stop weather: lossy client links and
// partitioned shipping links.
func replChaosStep(rng *rand.Rand, lc *linkChaos) {
	switch rng.Intn(3) {
	case 0: // degrade a client link (drops + reordering + latency)
		w := fmt.Sprintf("w%d", rng.Intn(4))
		n := lc.names[rng.Intn(len(lc.names))]
		bad := netsim.Config{
			Latency:     time.Duration(50+rng.Intn(400)) * time.Microsecond,
			Jitter:      100 * time.Microsecond,
			DropRate:    lc.plan.DropRate * rng.Float64(),
			ReorderRate: 0.2 * rng.Float64(),
			CutRate:     0.02 * rng.Float64(),
		}
		lc.degrade(w, n, bad)
		lc.degrade(n, w, bad)
	case 1: // partition one replica's shipping link for a moment
		if n := lc.names[rng.Intn(len(lc.names))]; n != lc.primary {
			lc.partition(lc.primary, repl.ReplAddr(n))
		}
	case 2:
		lc.mend(true)
	}
}

// slowChaosStep is gray weather: latency and bufferbloat stalls, never
// drops or partitions — gray failures deliver everything, late.
func slowChaosStep(rng *rand.Rand, lc *linkChaos) {
	bad := netsim.Config{StallRate: lc.plan.StallRate, StallDelay: lc.plan.StallDelay}
	switch rng.Intn(3) {
	case 0: // gray-degrade a replica ack path (drives quarantine)
		n := lc.names[1+rng.Intn(len(lc.names)-1)]
		bad.Latency = time.Duration(1+rng.Intn(20)) * time.Millisecond
		bad.Jitter = 500 * time.Microsecond
		lc.degrade(repl.ReplAddr(n), lc.primary, bad)
	case 1: // bufferbloat a client or reader link
		from := fmt.Sprintf("w%d", rng.Intn(4))
		if rng.Intn(3) == 0 {
			from = "rd"
		}
		n := lc.names[rng.Intn(len(lc.names))]
		bad.Latency = time.Duration(100+rng.Intn(900)) * time.Microsecond
		bad.Jitter = 200 * time.Microsecond
		lc.degrade(from, n, bad)
		lc.degrade(n, from, bad)
	case 2:
		lc.mend(false)
	}
}
