// Sharded crash chains: the fuzzer's workload over a shard.DB instead
// of a single engine. All shards share one persistence domain, so the
// op-count crash trigger freezes every shard's durable state at the
// same instant — including mid-2PC, which is the point: a random crash
// window that lands between a participant's prepare and the
// coordinator's decide leaves a genuinely in-doubt transaction for
// recovery to resolve. On top of the random windows, some rounds crash
// the coordinator deterministically at a protocol stage (after prepare:
// the transaction must vanish everywhere; after decide: it must land
// everywhere).
//
// The oracle reuses the single-engine machinery by treating each
// (worker, shard) pair as a virtual worker with its own keyspace: every
// key a worker writes on shard s is drawn from a per-(w,s) pool
// pre-routed to s, so per-virtual-worker prefix matching stays sound
// per shard journal. Cross-shard transactions enter the history as one
// half per participant; after per-shard verification, the halves'
// survived/lost fates must agree — all-or-nothing across shards.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/db"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/shard"
)

// vwOf flattens (worker, shard) into the virtual worker id the oracle
// sees; the shard is recovered as vw % nshards.
func vwOf(worker, s, nshards int) int { return worker*nshards + s }

// shardKeys is one virtual worker's pre-routed keyspace: data keys plus
// the counter key every transaction stamps, all hashing to the same
// shard under the router.
type shardKeys struct {
	counter string
	data    []string
}

// routePools builds the per-(worker, shard) key pools. Router stability
// makes this deterministic per chain.
func routePools(s *shard.DB, workers, nshards int) [][]shardKeys {
	pools := make([][]shardKeys, workers)
	for w := 0; w < workers; w++ {
		pools[w] = make([]shardKeys, nshards)
		for sh := 0; sh < nshards; sh++ {
			prefix := WorkerPrefix(vwOf(w, sh, nshards))
			pick := func(stem string) string {
				for i := 0; ; i++ {
					k := fmt.Sprintf("%s%s%d", prefix, stem, i)
					if s.ShardOf([]byte(k)) == sh {
						return k
					}
				}
			}
			p := shardKeys{counter: pick("#")}
			for j := 0; j < 6; j++ {
				p.data = append(p.data, pick(fmt.Sprintf("k%d-", j)))
			}
			pools[w][sh] = p
		}
	}
	return pools
}

// crossRec ties the two history halves of one cross-shard transaction
// together for the all-or-nothing check. expect, when non-nil, pins the
// outcome (deterministic coordinator-stage crashes).
type crossRec struct {
	vwA, idxA int
	vwB, idxB int
	expect    *bool
}

// stageSignal is the panic the staged coordinator crash unwinds with.
type stageSignal struct{ stage shard.Stage }

// sampleSharded draws a sharded chain. SyncChecksum stays out: the
// sharded oracle keeps durability absolute.
func sampleSharded(rng *rand.Rand, opts Options) chainCfg {
	v := drawVariant(rng, opts)
	cfg := chainCfg{label: v.Name, variant: v.Cfg, shards: opts.Shards, groupCommit: 1}
	cfg.workers = 1 + rng.Intn(3)
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	}
	cfg.rounds = 3 + rng.Intn(3)
	cfg.ckptLimit = drawCkptLimit(rng, opts)
	return cfg
}

func describeSharded(c chainCfg) string {
	return fmt.Sprintf("%s shards=%d w=%d rounds=%d ckpt=%d", c.label, c.shards, c.workers, c.rounds, c.ckptLimit)
}

// simNVRAM is the NVRAM of the multi-engine machines (shared-domain
// shards, cluster nodes): size apart, one fixed device.
func simNVRAM(size int) platform.Config {
	return platform.Config{NVRAM: nvram.Config{
		Size:              size,
		CacheLineSize:     32,
		NVRAMWriteLatency: 500 * time.Nanosecond,
	}}
}

func bootSharded(c *chain) (machine, error) {
	plat, err := shard.NewShared(simNVRAM(64<<20), c.cfg.shards)
	if err != nil {
		return nil, err
	}
	c.splat = plat
	return plat, nil
}

func openSharded(c *chain) (engine, error) {
	s, err := shard.Open(c.splat, "fuzz", shard.Options{DB: db.Options{
		NVWAL:           c.cfg.variant,
		Concurrent:      true,
		GroupCommit:     1,
		CheckpointLimit: c.cfg.ckptLimit,
	}})
	if err != nil {
		return nil, err
	}
	c.s = s
	if c.pools == nil {
		c.pools = routePools(s, c.cfg.workers, c.cfg.shards)
	}
	return s, nil
}

// planShardedRound draws a sharded round. A third of the rounds crash
// the coordinator at a fixed protocol stage instead of a random op
// window.
func planShardedRound(c *chain, window int64) roundPlan {
	rp := roundPlan{
		policy: c.cfg.policies[c.rng.Intn(len(c.cfg.policies))],
		pfSeed: c.rng.Int63(),
		txns:   3 + c.rng.Intn(6),
	}
	if c.rng.Intn(3) != 0 {
		rp.armAfter = 1 + c.rng.Int63n(window)
		return rp
	}
	rp.stage = shard.StageAfterPrepare
	if c.rng.Intn(2) == 0 {
		rp.stage = shard.StageAfterDecide
	}
	return rp
}

func salvageSharded(c *chain) []string {
	var out []string
	for sh := 0; sh < c.cfg.shards; sh++ {
		if rep := c.s.Shard(sh).Salvage(); rep != nil {
			for _, ev := range rep.Events {
				out = append(out, fmt.Sprintf("shard %d: %s", sh, ev))
			}
		}
	}
	return out
}

// verifySharded is the sharded row's oracle step. Each shard journal is
// its own total order, so prefix/durability/order verify shard by
// shard; the matched prefixes then feed the cross-shard check: the
// halves of a cross-shard transaction survive or vanish together, and a
// staged coordinator crash lands where the protocol says.
func verifySharded(c *chain, log *roundLog, survivor map[string]string) []Violation {
	var out []Violation
	hist, nshards := log.hist, c.cfg.shards
	hist.Workers *= nshards // the oracle's workers are the (worker, shard) pairs
	matched := make([]int, hist.Workers)
	for sh := 0; sh < nshards; sh++ {
		hs := History{Base: restrictShard(hist.Base, sh, nshards), Workers: hist.Workers}
		for _, t := range hist.Txns {
			if t.Worker%nshards == sh {
				hs.Txns = append(hs.Txns, t)
			}
		}
		vs, m := verifyMatched(hs, restrictShard(survivor, sh, nshards))
		out = append(out, vs...)
		for vw := sh; vw < hist.Workers; vw += nshards {
			matched[vw] = m[vw]
		}
	}
	for _, x := range log.crosses {
		appliedA := matched[x.vwA] >= x.idxA
		appliedB := matched[x.vwB] >= x.idxB
		if appliedA != appliedB {
			out = append(out, Violation{Kind: "atomicity", Worker: x.vwA,
				Detail: fmt.Sprintf("cross-shard txn torn: shard %d applied=%v, shard %d applied=%v",
					x.vwA%nshards, appliedA, x.vwB%nshards, appliedB)})
		}
		if x.expect != nil && appliedA == appliedB && appliedA != *x.expect {
			out = append(out, Violation{Kind: "atomicity", Worker: x.vwA,
				Detail: fmt.Sprintf("staged coordinator crash: applied=%v, protocol requires %v", appliedA, *x.expect)})
		}
	}
	return out
}

// restrictShard filters a state map down to the keys owned by one
// shard's virtual workers.
func restrictShard(state map[string]string, sh, nshards int) map[string]string {
	out := make(map[string]string)
	for k, v := range state {
		var vw int
		if _, err := fmt.Sscanf(k, "w%d/", &vw); err == nil && vw%nshards == sh {
			out[k] = v
		}
	}
	return out
}

// genShardOps builds one shard-local transaction's ops from a pool:
// 1-2 data writes plus the counter stamp.
func genShardOps(rng *rand.Rand, pool shardKeys, round, idx int) []Op {
	n := 1 + rng.Intn(2)
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		k := pool.data[rng.Intn(len(pool.data))]
		if rng.Intn(6) == 0 {
			ops = append(ops, Op{Key: k, Delete: true})
		} else {
			ops = append(ops, Op{Key: k, Value: fmt.Sprintf("v%d.%d.%x", round, idx, rng.Int63())})
		}
	}
	ops = append(ops, Op{Key: pool.counter, Value: fmt.Sprintf("%d.%d", round, idx)})
	return ops
}

// genCrossOps builds one cross-shard transaction: a shard-local op set
// on each participant (returned per half for the oracle) plus the flat
// shard.Op list Apply takes.
func genCrossOps(rng *rand.Rand, pools []shardKeys, a, b, round, idxA, idxB int) ([2][]Op, []shard.Op) {
	halves := [2][]Op{
		genShardOps(rng, pools[a], round, idxA),
		genShardOps(rng, pools[b], round, idxB),
	}
	var sops []shard.Op
	for _, half := range halves {
		for _, op := range half {
			sops = append(sops, shard.Op{Table: "t", Key: []byte(op.Key), Value: []byte(op.Value), Delete: op.Delete})
		}
	}
	return halves, sops
}

// stagedCrash is the deterministic coordinator crash that ends a staged
// round, once its writers (which run with no crash armed) are done.
func stagedCrash(c *chain, log *roundLog) {
	if c.plan.armAfter > 0 {
		return
	}
	nshards := c.cfg.shards
	// One cross-shard transaction from worker 0, panicking out of the
	// commit hook at the target stage. Nothing runs between the panic
	// and the power failure, so the durable image is exactly the stage
	// boundary.
	a := c.rng.Intn(nshards)
	b := (a + 1 + c.rng.Intn(nshards-1)) % nshards
	idxA, idxB := log.committed[0][a]+1, log.committed[0][b]+1
	ops, sops := genCrossOps(c.rng, c.pools[0], a, b, c.round, idxA, idxB)
	c.s.SetCommitHook(func(st shard.Stage, gtx uint64) {
		if st == c.plan.stage {
			panic(stageSignal{st})
		}
	})
	fired := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stageSignal); !ok {
					panic(r)
				}
				fired = true
			}
		}()
		_ = c.s.Apply(sops)
	}()
	c.s.SetCommitHook(nil)
	if !fired {
		log.violate(0, "stage hook never fired")
		return
	}
	want := c.plan.stage == shard.StageAfterDecide
	log.recordCross(vwOf(0, a, nshards), idxA, vwOf(0, b, nshards), idxB, false, ops, &want)
	c.res.txns-- // both halves are in the history; the report counts the transaction once
}

// recordCross enters the two halves of one cross-shard transaction
// into the history and ties them together for the all-or-nothing check.
func (l *roundLog) recordCross(vwA, idxA, vwB, idxB int, acked bool, ops [2][]Op, expect *bool) {
	l.mu.Lock()
	l.hist.Txns = append(l.hist.Txns,
		Txn{Worker: vwA, Index: idxA, Acked: acked, Ops: ops[0]},
		Txn{Worker: vwB, Index: idxB, Acked: acked, Ops: ops[1]})
	l.crosses = append(l.crosses, crossRec{vwA: vwA, idxA: idxA, vwB: vwB, idxB: idxB, expect: expect})
	l.mu.Unlock()
}

// shardedWorker is one writer of a sharded round: shard-local
// transactions (80%) mixed with cross-shard Apply batches (20%, two
// participants).
func shardedWorker(c *chain, log *roundLog, w int, wrng *rand.Rand) {
	nshards := c.cfg.shards
	committed := make([]int, nshards)
	log.committed[w] = committed
	for i := 0; i < c.plan.txns; i++ {
		if wrng.Intn(5) == 0 {
			// Cross-shard transaction over two participants.
			a := wrng.Intn(nshards)
			b := (a + 1 + wrng.Intn(nshards-1)) % nshards
			idxA, idxB := committed[a]+1, committed[b]+1
			ops, sops := genCrossOps(wrng, c.pools[w], a, b, c.round, idxA, idxB)
			err := c.s.Apply(sops)
			if err != nil && !c.crashed() {
				log.violate(w, "apply: "+err.Error())
				return
			}
			// Success, or a post-crash ghost failure (outcome frozen
			// mid-protocol): both halves enter the history; acked only
			// when the commit finished before the crash instant.
			committed[a], committed[b] = idxA, idxB
			log.recordCross(vwOf(w, a, nshards), idxA, vwOf(w, b, nshards), idxB, err == nil && !c.crashed(), ops, nil)
			continue
		}
		sh := wrng.Intn(nshards)
		idx := committed[sh] + 1
		ops := genShardOps(wrng, c.pools[w][sh], c.round, idx)
		seq, at, err := runTxn(slotTx(c.s.Shard(sh)), ops, false, nil)
		crashed := c.crashed()
		switch {
		case err == nil:
			committed[sh] = idx
			log.record(Txn{Worker: vwOf(w, sh, nshards), Index: idx, Seq: seq, Acked: !crashed, Ops: ops})
		case at != "txn op" && errors.Is(err, db.ErrBusy):
		case crashed && at == "commit":
			// Ghost failure: outcome uncertain, record unacked.
			committed[sh] = idx
			log.record(Txn{Worker: vwOf(w, sh, nshards), Index: idx, Ops: ops})
		case crashed && at == "txn op":
		default:
			if !crashed {
				log.violate(w, at+": "+err.Error())
			}
			return
		}
	}
}
