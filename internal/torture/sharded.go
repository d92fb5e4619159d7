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
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
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

// runShardedChain is runChain for a sharded database: rounds of
// (workload under an armed crash OR a deterministic coordinator-stage
// crash) → power fail → reboot → per-shard oracle + cross-shard
// all-or-nothing.
func runShardedChain(opts Options, step int) (res chainResult) {
	seed := mix(opts.Seed, step)
	rng := rand.New(rand.NewSource(seed))
	nshards := opts.Shards

	// Sampled chain configuration. SyncChecksum stays out: the sharded
	// oracle keeps durability absolute.
	variants := []core.NamedConfig{
		{Name: "E", Cfg: core.VariantE()},
		{Name: "LS", Cfg: core.VariantLS()},
		{Name: "LS+Diff", Cfg: core.VariantLSDiff()},
		{Name: "UH+LS", Cfg: core.VariantUHLS()},
		{Name: "UH+LS+Diff", Cfg: core.VariantUHLSDiff()},
		{Name: "SP", Cfg: core.VariantSP()},
		{Name: "EP", Cfg: core.VariantEP()},
	}
	v := variants[rng.Intn(len(variants))]
	workers := 1 + rng.Intn(3)
	if opts.Workers > 0 {
		workers = opts.Workers
	}
	rounds := 3 + rng.Intn(3)
	if opts.MaxRounds > 0 && rounds > opts.MaxRounds {
		rounds = opts.MaxRounds
	}
	ckptLimit := 24 + rng.Intn(120)
	policies := []memsim.FailPolicy{
		memsim.FailDropAll, memsim.FailKeepCompleted, memsim.FailAdversarial,
	}
	label := fmt.Sprintf("%s shards=%d w=%d rounds=%d ckpt=%d", v.Name, nshards, workers, rounds, ckptLimit)

	repro := fmt.Sprintf("nvwal-fuzz -seed %d -step %d -shards %d", opts.Seed, step, nshards)
	if opts.MaxRounds > 0 {
		repro += fmt.Sprintf(" -max-rounds %d", opts.MaxRounds)
	}
	if opts.MaxTxns > 0 {
		repro += fmt.Sprintf(" -max-txns %d", opts.MaxTxns)
	}
	fail := func(round int, viol Violation) {
		res.violations = append(res.violations, ViolationReport{
			Step: step, Seed: opts.Seed, Round: round, Chain: label,
			Kind: viol.Kind, Worker: viol.Worker, Detail: viol.Detail, Repro: repro,
		})
	}

	plat, err := shard.NewShared(platform.Config{
		NVRAM: nvram.Config{
			Size:              64 << 20,
			CacheLineSize:     32,
			NVRAMWriteLatency: 500 * time.Nanosecond,
		},
	}, nshards)
	if err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "platform: " + err.Error()})
		return res
	}
	fp := newFingerprinter()
	defer func() { res.fingerprint = fp.finish(plat.OpCount()) }()
	sopts := shard.Options{DB: db.Options{
		NVWAL:           v.Cfg,
		Concurrent:      true,
		GroupCommit:     1,
		CheckpointLimit: ckptLimit,
	}}
	s, err := shard.Open(plat, "fuzz", sopts)
	if err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "open: " + err.Error()})
		return res
	}
	if err := s.CreateTable("t"); err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "create table: " + err.Error()})
		return res
	}
	pools := routePools(s, workers, nshards)

	base := map[string]string{}
	window := int64(2500)
	opts.logf("chain %d (seed %d): %s", step, seed, label)

	for round := 0; round < rounds; round++ {
		policy := policies[rng.Intn(len(policies))]
		pfSeed := rng.Int63()
		txnsPer := 3 + rng.Intn(6)
		if opts.MaxTxns > 0 && txnsPer > opts.MaxTxns {
			txnsPer = opts.MaxTxns
		}
		// A third of multi-shard rounds crash the coordinator at a fixed
		// protocol stage instead of a random op window.
		var stage *shard.Stage
		if nshards > 1 && rng.Intn(3) == 0 {
			st := shard.StageAfterPrepare
			if rng.Intn(2) == 0 {
				st = shard.StageAfterDecide
			}
			stage = &st
		}
		opStart := plat.OpCount()
		if stage == nil {
			plat.ArmCrash(1+rng.Int63n(window), policy, pfSeed)
		}
		hist, crosses, committed, wvs := runShardedWorkload(s, plat, pools, workers, nshards, base, seed, round, txnsPer, stage == nil)
		res.txns += len(hist.Txns)

		if stage != nil {
			// The deterministic coordinator crash: one cross-shard
			// transaction from worker 0, panicking out of the commit hook
			// at the target stage. Nothing runs between the panic and the
			// power failure, so the durable image is exactly the stage
			// boundary.
			a := rng.Intn(nshards)
			b := (a + 1 + rng.Intn(nshards-1)) % nshards
			idxA, idxB := committed[0][a]+1, committed[0][b]+1
			ops, sops := genCrossOps(rng, pools[0], a, b, nshards, round, idxA, idxB)
			s.SetCommitHook(func(st shard.Stage, gtx uint64) {
				if st == *stage {
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
				_ = s.Apply(sops)
			}()
			s.SetCommitHook(nil)
			if !fired {
				fail(round, Violation{Kind: "error", Worker: 0, Detail: "stage hook never fired"})
				return res
			}
			want := *stage == shard.StageAfterDecide
			hist.Txns = append(hist.Txns,
				Txn{Worker: vwOf(0, a, nshards), Index: idxA, Ops: ops[0]},
				Txn{Worker: vwOf(0, b, nshards), Index: idxB, Ops: ops[1]})
			crosses = append(crosses, crossRec{
				vwA: vwOf(0, a, nshards), idxA: idxA,
				vwB: vwOf(0, b, nshards), idxB: idxB,
				expect: &want,
			})
			res.txns++
		}

		s.Abandon()
		plat.PowerFail(policy, pfSeed)
		if err := plat.Reboot(); err != nil {
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "reboot: " + err.Error()})
			return res
		}
		s, err = shard.Open(plat, "fuzz", sopts)
		if err != nil {
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "recovery open: " + err.Error()})
			return res
		}
		if os.Getenv("TORTURE_DEBUG") != "" {
			for sh := 0; sh < nshards; sh++ {
				if rep := s.Shard(sh).Salvage(); rep != nil {
					for _, ev := range rep.Events {
						opts.logf("DBG round %d shard %d salvage: %s", round, sh, ev)
					}
				}
			}
		}
		if !s.HasTable("t") {
			fail(round, Violation{Kind: "durability", Worker: -1,
				Detail: "table created before the crash window vanished"})
			return res
		}
		survivor := map[string]string{}
		err = s.Scan("t", func(k, v []byte) bool {
			survivor[string(k)] = string(v)
			return true
		})
		if err != nil {
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "survivor scan: " + err.Error()})
			return res
		}
		fp.survivor(survivor)
		if err := s.Check(); err != nil {
			fail(round, Violation{Kind: "atomicity", Worker: -1, Detail: "btree check: " + err.Error()})
			return res
		}

		for _, viol := range wvs {
			fail(round, viol)
		}
		// Per-shard oracle runs: each shard journal is its own total
		// order, so prefix/durability/order verify shard by shard; the
		// matched prefixes then feed the cross-shard check.
		matched := make([]int, hist.Workers)
		for sh := 0; sh < nshards; sh++ {
			hs := History{Base: restrictShard(base, sh, nshards), Workers: hist.Workers}
			for _, t := range hist.Txns {
				if t.Worker%nshards == sh {
					hs.Txns = append(hs.Txns, t)
				}
			}
			vs, m := verifyMatched(hs, restrictShard(survivor, sh, nshards))
			for _, viol := range vs {
				fail(round, viol)
			}
			for vw := sh; vw < hist.Workers; vw += nshards {
				matched[vw] = m[vw]
			}
		}
		for _, c := range crosses {
			appliedA := matched[c.vwA] >= c.idxA
			appliedB := matched[c.vwB] >= c.idxB
			if appliedA != appliedB {
				fail(round, Violation{Kind: "atomicity", Worker: c.vwA,
					Detail: fmt.Sprintf("cross-shard txn torn: shard %d applied=%v, shard %d applied=%v",
						c.vwA%nshards, appliedA, c.vwB%nshards, appliedB)})
			}
			if c.expect != nil && appliedA == appliedB && appliedA != *c.expect {
				fail(round, Violation{Kind: "atomicity", Worker: c.vwA,
					Detail: fmt.Sprintf("staged coordinator crash: applied=%v, protocol requires %v", appliedA, *c.expect)})
			}
		}
		res.rounds++
		if len(res.violations) > 0 {
			opts.logf("chain %d round %d (%s): VIOLATION", step, round, policyName(policy))
			if os.Getenv("TORTURE_DEBUG") != "" {
				for _, t := range hist.Txns {
					opts.logf("DBG txn vw=%d idx=%d seq=%d acked=%v ops=%v", t.Worker, t.Index, t.Seq, t.Acked, t.Ops)
				}
				for _, c := range crosses {
					opts.logf("DBG cross vwA=%d idxA=%d vwB=%d idxB=%d expect=%v", c.vwA, c.idxA, c.vwB, c.idxB, c.expect)
				}
				keys := make([]string, 0, len(survivor))
				for k := range survivor {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					opts.logf("DBG surv %q=%q", k, clip(survivor[k]))
				}
				bkeys := make([]string, 0, len(base))
				for k := range base {
					bkeys = append(bkeys, k)
				}
				sort.Strings(bkeys)
				for _, k := range bkeys {
					opts.logf("DBG base %q=%q", k, clip(base[k]))
				}
			}
			s.Abandon()
			return res
		}
		base = survivor
		if used := plat.OpCount() - opStart; used > 300 {
			window = used
		}
	}
	_ = s.Close()
	return res
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
func genCrossOps(rng *rand.Rand, pools []shardKeys, a, b, nshards, round, idxA, idxB int) ([2][]Op, []shard.Op) {
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

// runShardedWorkload drives one round's workers. Each worker mixes
// shard-local transactions (80%) with cross-shard Apply batches (20%,
// two participants). Returns the oracle history (virtual workers), the
// cross-transaction records, the per-(worker, shard) committed counts
// (the staged crash continues from them), and any live violations.
func runShardedWorkload(s *shard.DB, plat *shard.Platform, pools [][]shardKeys,
	workers, nshards int, base map[string]string, seed int64, round, txnsPer int,
	armed bool) (History, []crossRec, [][]int, []Violation) {

	hist := History{Base: base, Workers: workers * nshards}
	var mu sync.Mutex
	var crosses []crossRec
	var violations []Violation
	committed := make([][]int, workers)

	crashed := func() bool { return armed && plat.CrashTriggered() }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		committed[w] = make([]int, nshards)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(mix(seed, round*1000+w)))
			for i := 0; i < txnsPer; i++ {
				if nshards > 1 && wrng.Intn(5) == 0 {
					// Cross-shard transaction over two participants.
					a := wrng.Intn(nshards)
					b := (a + 1 + wrng.Intn(nshards-1)) % nshards
					idxA, idxB := committed[w][a]+1, committed[w][b]+1
					ops, sops := genCrossOps(wrng, pools[w], a, b, nshards, round, idxA, idxB)
					err := s.Apply(sops)
					if err != nil && !crashed() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "apply: " + err.Error()})
						mu.Unlock()
						return
					}
					// Success, or a post-crash ghost failure (outcome frozen
					// mid-protocol): both halves enter the history; acked only
					// when the commit finished before the crash instant.
					acked := err == nil && !crashed()
					committed[w][a], committed[w][b] = idxA, idxB
					mu.Lock()
					hist.Txns = append(hist.Txns,
						Txn{Worker: vwOf(w, a, nshards), Index: idxA, Acked: acked, Ops: ops[0]},
						Txn{Worker: vwOf(w, b, nshards), Index: idxB, Acked: acked, Ops: ops[1]})
					crosses = append(crosses, crossRec{
						vwA: vwOf(w, a, nshards), idxA: idxA,
						vwB: vwOf(w, b, nshards), idxB: idxB,
					})
					mu.Unlock()
					continue
				}
				sh := wrng.Intn(nshards)
				idx := committed[w][sh] + 1
				ops := genShardOps(wrng, pools[w][sh], round, idx)
				d := s.Shard(sh)
				tx, err := d.Begin()
				if err != nil {
					if errors.Is(err, db.ErrBusy) {
						continue
					}
					if !crashed() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "begin: " + err.Error()})
						mu.Unlock()
					}
					return
				}
				bad := false
				for _, op := range ops {
					if op.Delete {
						_, err = tx.Delete("t", []byte(op.Key))
					} else {
						err = tx.Insert("t", []byte(op.Key), []byte(op.Value))
					}
					if err != nil {
						bad = true
						break
					}
				}
				if bad {
					tx.Rollback()
					if !crashed() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "txn op: " + err.Error()})
						mu.Unlock()
						return
					}
					continue
				}
				err = tx.Commit()
				if err != nil && errors.Is(err, db.ErrBusy) {
					continue
				}
				if err != nil && !errors.Is(err, db.ErrCheckpointDeferred) {
					if !crashed() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "commit: " + err.Error()})
						mu.Unlock()
						return
					}
					// Ghost failure: outcome uncertain, record unacked.
					mu.Lock()
					hist.Txns = append(hist.Txns, Txn{Worker: vwOf(w, sh, nshards), Index: idx, Ops: ops})
					mu.Unlock()
					committed[w][sh] = idx
					continue
				}
				acked := !crashed()
				committed[w][sh] = idx
				mu.Lock()
				hist.Txns = append(hist.Txns, Txn{
					Worker: vwOf(w, sh, nshards), Index: idx, Seq: tx.Seq(), Acked: acked, Ops: ops,
				})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return hist, crosses, committed, violations
}
