// Replication chain mode: a 3-node cluster (primary + 2 WAL-shipping
// replicas) serving client workloads through the simulated network
// while the chain injects link faults and kills primaries. Each round
// is one primary era: workers write through server.Client (retries,
// rediscovery and backoff included — the client under test IS part of
// the system under test), the chain partitions replica links and
// degrades client links mid-era, then crash-fails the primary
// (isolate + power fail), promotes the most-caught-up replica under a
// new fencing epoch, and reboots the old primary back in as a replica
// (which re-seeds by incarnation mismatch).
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
//   - Replica consistency: once writes stop and replicas catch up,
//     every replica serves exactly the primary's values, its applied
//     mark never exceeds the primary's mark, and reliable-link
//     shipping never latches divergence.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/repl"
	"repro/internal/server"
)

// replChainCfg is one replication chain's sampled configuration.
type replChainCfg struct {
	workers  int
	rounds   int // primary eras (each ends in a crash+failover)
	opsPer   int // client ops per worker per era
	dropMax  float64
	policies []memsim.FailPolicy
	// ckptLimit is every primary's db.Options.CheckpointLimit: a few
	// frames, so an era of a few dozen writes crosses many checkpoint
	// boundaries — replica rounds, export retention and resume under
	// partition all happen — where the default 1 000 would see none.
	ckptLimit int
}

func (c replChainCfg) String() string {
	return fmt.Sprintf("repl w=%d eras=%d ops=%d drop<=%.2f ckpt=%d",
		c.workers, c.rounds, c.opsPer, c.dropMax, c.ckptLimit)
}

// replDBOptions is what a chain's primaries (initial and promoted) open
// their database with.
func replDBOptions(ckptLimit int) db.Options {
	opts := repl.DefaultDBOptions()
	opts.CheckpointLimit = ckptLimit
	return opts
}

func sampleReplChain(rng *rand.Rand, opts Options) replChainCfg {
	cfg := replChainCfg{
		workers: 2 + rng.Intn(2),
		rounds:  2 + rng.Intn(2),
		opsPer:  15 + rng.Intn(16),
		dropMax: 0.1 + 0.3*rng.Float64(),
		policies: []memsim.FailPolicy{
			memsim.FailDropAll, memsim.FailKeepCompleted, memsim.FailAdversarial,
		},
		ckptLimit: 6 + rng.Intn(20),
	}
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	}
	if opts.MaxRounds > 0 && cfg.rounds > opts.MaxRounds {
		cfg.rounds = opts.MaxRounds
	}
	if opts.MaxTxns > 0 && cfg.opsPer > opts.MaxTxns {
		cfg.opsPer = opts.MaxTxns
	}
	return cfg
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
	c        *repl.Cluster
	pn       *repl.PrimaryNode
	replicas map[string]*repl.ReplicaNode
	epoch    uint64
	dbOpts   db.Options
}

const replKeysPerWorker = 4

// runReplChain runs one replication chain.
func runReplChain(opts Options, step int) chainResult {
	seed := mix(opts.Seed, step)
	rng := rand.New(rand.NewSource(seed))
	cfg := sampleReplChain(rng, opts)
	res := chainResult{}

	repro := fmt.Sprintf("nvwal-fuzz -seed %d -step %d -repl", opts.Seed, step)
	if opts.MaxRounds > 0 {
		repro += fmt.Sprintf(" -max-rounds %d", opts.MaxRounds)
	}
	if opts.MaxTxns > 0 {
		repro += fmt.Sprintf(" -max-txns %d", opts.MaxTxns)
	}
	fail := func(round int, v Violation) {
		res.violations = append(res.violations, ViolationReport{
			Step: step, Seed: opts.Seed, Round: round, Chain: cfg.String(),
			Kind: v.Kind, Worker: v.Worker, Detail: v.Detail, Repro: repro,
		})
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
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "cluster: " + err.Error()})
		return res
	}
	popts := repl.PrimaryOptions{Epoch: 1, AckReplicas: 1, AckTimeout: 150 * time.Millisecond}
	topo := &replTopology{c: cluster, replicas: map[string]*repl.ReplicaNode{}, epoch: 1, dbOpts: replDBOptions(cfg.ckptLimit)}
	topo.pn, err = cluster.StartPrimary(names[0], topo.dbOpts, popts, server.Options{})
	if err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "start primary: " + err.Error()})
		return res
	}
	if err := topo.pn.DB.CreateTable("kv"); err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "create table: " + err.Error()})
		return res
	}
	for _, name := range names[1:] {
		rn, err := cluster.StartReplica(name, repl.ReplicaOptions{Epoch: 1}, server.Options{})
		if err != nil {
			fail(-1, Violation{Kind: "error", Worker: -1, Detail: "start replica: " + err.Error()})
			return res
		}
		topo.replicas[name] = rn
		topo.pn.Attach(cluster, name)
	}
	defer func() {
		topo.pn.Stop(false)
		for _, rn := range topo.replicas {
			rn.Stop()
		}
	}()

	oracle := newReplOracle()
	opts.logf("chain %d (seed %d): %s", step, seed, cfg)

	for round := 0; round < cfg.rounds; round++ {
		ackedBefore := oracle.acked
		var done atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runReplWorker(cluster, names, oracle, &done, mix(seed, round*1000+w), w, cfg.opsPer)
			}(w)
		}

		// Era phase A: link chaos while the workers write. The crash
		// fires mid-workload — once a sampled fraction of the era's ops
		// have resolved — so in-flight requests straddle the failover.
		chaos := startReplChaos(cluster, names, topo, mix(seed, round*1000+777), cfg.dropMax)
		crashAt := int64(float64(cfg.workers*cfg.opsPer) * (0.2 + 0.4*rng.Float64()))
		deadline := time.Now().Add(2 * time.Second)
		for done.Load() < crashAt && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		chaos.stop()

		// Crash the primary and fail over.
		policy := cfg.policies[rng.Intn(len(cfg.policies))]
		if v, ok := failOver(cluster, topo, policy, rng.Int63()); !ok {
			fail(round, v)
			break
		}

		// Era phase B: more chaos against the NEW primary, workers still
		// running (they rediscover through fencing).
		chaos = startReplChaos(cluster, names, topo, mix(seed, round*1000+888), cfg.dropMax)
		wg.Wait()
		chaos.stop()

		// Quiesce: heal everything, let replicas catch up, then check
		// every invariant against the current primary.
		cluster.Net.HealAll()
		res.txns += oracle.acked - ackedBefore
		// Caught up means: following THIS primary's log (marks of a former
		// incarnation say nothing, and a promoted primary whose replica
		// journal was just checkpointed starts its mark space at 0) through
		// its current mark.
		target := topo.pn.Repl.Status().Mark
		for name, rn := range topo.replicas {
			deadline := time.Now().Add(10 * time.Second)
			for rn.R.Incarnation() != topo.epoch && time.Now().Before(deadline) {
				time.Sleep(500 * time.Microsecond)
			}
			if rn.R.Incarnation() != topo.epoch || !rn.WaitCaughtUp(target, time.Until(deadline)) {
				fail(round, Violation{Kind: "liveness", Worker: -1,
					Detail: fmt.Sprintf("replica %s stuck at %d of incarnation %d, primary mark %d of %d",
						name, rn.R.Applied(), rn.R.Incarnation(), target, topo.epoch)})
			}
		}
		if len(res.violations) > 0 {
			break
		}
		for _, v := range oracle.verify(func(key string) (string, bool, error) {
			v, found, err := topo.pn.Repl.Get("kv", []byte(key))
			return string(v), found, err
		}) {
			fail(round, v)
		}
		for name, rn := range topo.replicas {
			if derr := rn.R.Degraded(); derr != nil {
				fail(round, Violation{Kind: "divergence", Worker: -1,
					Detail: fmt.Sprintf("replica %s degraded on reliable links: %v", name, derr)})
			}
			if rn.R.Applied() > topo.pn.Repl.Status().Mark {
				fail(round, Violation{Kind: "staleness", Worker: -1,
					Detail: fmt.Sprintf("replica %s applied %d beyond primary mark %d", name, rn.R.Applied(), topo.pn.Repl.Status().Mark)})
			}
			for k := range oracle.allowed {
				pv, pfound, _ := topo.pn.Repl.Get("kv", []byte(k))
				rv, rfound, rerr := rn.R.Get("kv", []byte(k))
				if rerr != nil || rfound != pfound || string(rv) != string(pv) {
					fail(round, Violation{Kind: "staleness", Worker: -1,
						Detail: fmt.Sprintf("replica %s key %q = %q/%v, primary %q/%v (err %v)",
							name, k, rv, rfound, pv, pfound, rerr)})
					break
				}
			}
		}
		res.rounds++
		if len(res.violations) > 0 {
			opts.logf("chain %d era %d: VIOLATION", step, round)
			break
		}
		opts.logf("chain %d era %d: ok (primary %s, epoch %d, %d acked)",
			step, round, topo.pn.Node.Name, topo.epoch, oracle.acked-ackedBefore)
	}
	return res
}

// failOver crash-fails the current primary, promotes the most-caught-up
// replica under the next epoch, and reboots the old primary back in as
// a replica. Returns ok=false with a violation on infrastructure error.
func failOver(c *repl.Cluster, topo *replTopology, policy memsim.FailPolicy, pfSeed int64) (Violation, bool) {
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
		return Violation{Kind: "error", Worker: -1, Detail: "promote: " + err.Error()}, false
	}
	pn, err := c.ServePromoted(bestName, d,
		repl.PrimaryOptions{Epoch: topo.epoch, AckReplicas: 1, AckTimeout: 150 * time.Millisecond},
		server.Options{})
	if err != nil {
		return Violation{Kind: "error", Worker: -1, Detail: "serve promoted: " + err.Error()}, false
	}
	topo.pn = pn
	for name := range topo.replicas {
		pn.Attach(c, name)
	}

	// The old primary reboots and rejoins as a replica: it has no cursor
	// record, so it re-seeds from the new primary by construction.
	if err := c.Node(oldName).Plat.Reboot(); err != nil {
		return Violation{Kind: "error", Worker: -1, Detail: "reboot: " + err.Error()}, false
	}
	c.RejoinNode(oldName)
	rn, err := c.StartReplica(oldName, repl.ReplicaOptions{Epoch: topo.epoch}, server.Options{})
	if err != nil {
		return Violation{Kind: "error", Worker: -1, Detail: "rejoin replica: " + err.Error()}, false
	}
	topo.replicas[oldName] = rn
	pn.Attach(c, oldName)
	return Violation{}, true
}

// runReplWorker drives one client through its era budget. Keyspaces are
// per-worker, so the oracle's per-key version bookkeeping is exact.
func runReplWorker(c *repl.Cluster, addrs []string, oracle *replOracle, done *atomic.Int64, seed int64, w, ops int) {
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

	key := func() string {
		return fmt.Sprintf("w%dk%d", w, rng.Intn(replKeysPerWorker))
	}
	for i := 0; i < ops; i++ {
		// A short think time keeps the era open long enough for the
		// chain's mid-workload crash to land between (and inside) ops.
		time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
		val := fmt.Sprintf("w%d.%d.%x", w, i, rng.Int63())
		switch r := rng.Intn(100); {
		case r < 20: // batch: 2-3 distinct keys, one transaction
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
			_, err := cli.Batch("kv", bops)
			recordOutcome(err,
				func() { oracle.ackedBatch(keys, vals) },
				func() { oracle.indeterminateBatch(keys, vals) })
			done.Add(1)
		case r < 35: // delete
			k := key()
			_, err := cli.Delete("kv", []byte(k))
			recordOutcome(err,
				func() { oracle.ackedWrite(k, "") },
				func() { oracle.indeterminateWrite(k, "") })
			done.Add(1)
		default: // put
			k := key()
			_, err := cli.Put("kv", []byte(k), []byte(val))
			recordOutcome(err,
				func() { oracle.ackedWrite(k, val) },
				func() { oracle.indeterminateWrite(k, val) })
			done.Add(1)
		}
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

// replChaos injects link faults until stopped, then heals exactly what
// it broke (never the chain's own isolations).
type replChaos struct {
	quit chan struct{}
	done chan struct{}
}

func (rc *replChaos) stop() {
	close(rc.quit)
	<-rc.done
}

func startReplChaos(c *repl.Cluster, names []string, topo *replTopology, seed int64, dropMax float64) *replChaos {
	rc := &replChaos{quit: make(chan struct{}), done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	base := netsim.Config{Latency: 20 * time.Microsecond, Jitter: 10 * time.Microsecond}
	primary := topo.pn.Node.Name
	go func() {
		defer close(rc.done)
		type cut struct{ a, b string }
		var degraded []cut
		var parted []cut
		defer func() {
			for _, l := range degraded {
				c.Net.SetLink(l.a, l.b, base)
			}
			for _, p := range parted {
				c.Net.Heal(p.a, p.b)
			}
		}()
		for {
			select {
			case <-rc.quit:
				return
			case <-time.After(time.Duration(2+rng.Intn(6)) * time.Millisecond):
			}
			switch rng.Intn(3) {
			case 0: // degrade a client link (drops + reordering + latency)
				w := fmt.Sprintf("w%d", rng.Intn(4))
				n := names[rng.Intn(len(names))]
				bad := netsim.Config{
					Latency:     time.Duration(50+rng.Intn(400)) * time.Microsecond,
					Jitter:      100 * time.Microsecond,
					DropRate:    dropMax * rng.Float64(),
					ReorderRate: 0.2 * rng.Float64(),
					CutRate:     0.02 * rng.Float64(),
				}
				c.Net.SetLink(w, n, bad)
				c.Net.SetLink(n, w, bad)
				degraded = append(degraded, cut{w, n}, cut{n, w})
			case 1: // partition one replica's shipping link for a moment
				n := names[rng.Intn(len(names))]
				if n == primary {
					break
				}
				c.Net.Partition(primary, repl.ReplAddr(n))
				parted = append(parted, cut{primary, repl.ReplAddr(n)})
			case 2: // heal one of our partitions early
				if len(parted) > 0 {
					p := parted[len(parted)-1]
					parted = parted[:len(parted)-1]
					c.Net.Heal(p.a, p.b)
				}
			}
		}
	}()
	return rc
}
