// The crash-chain loop and the machinery every crash row shares: the
// machine and engine interfaces, the round plan and log, the writer and
// auxiliary goroutines, the one transaction sequence.
package torture

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/shard"
)

// machine is what the crash loop needs of a simulated computer:
// *platform.Platform, or *shard.Platform (N engines over one
// persistence domain, so one trigger freezes every shard at the same
// instant).
type machine interface {
	ArmCrash(afterOps int64, policy memsim.FailPolicy, seed int64)
	PowerFail(policy memsim.FailPolicy, seed int64)
	Reboot() error
	OpCount() int64
	CrashTriggered() bool
}

// engine is what the crash loop needs of a database: *db.DB or *shard.DB.
type engine interface {
	CreateTable(table string) error
	HasTable(table string) bool
	Scan(table string, fn func(key, value []byte) bool) error
	Check() error
	Abandon()
	Close() error
}

// crashState is the part of a chain only crash rows use: the round in
// flight, and the concrete machine and engine behind the loop's two
// interfaces for the hooks that need them (one pair per topology).
type crashState struct {
	mach  machine
	round int
	plan  roundPlan

	plat   *platform.Platform
	d      *db.DB
	dbOpts db.Options

	splat *shard.Platform
	s     *shard.DB
	pools [][]shardKeys
}

// roundPlan is one crash round's draws from the chain rng.
type roundPlan struct {
	policy memsim.FailPolicy
	pfSeed int64
	// armAfter is how many persistence ops from the round's start the
	// crash trigger fires; 0 when the round crashes at a protocol stage
	// of its own making instead (sharded rows).
	armAfter int64
	stage    shard.Stage
	txns     int // per-worker transaction budget
}

// roundLog is what a round's workers observed, under one lock: the
// oracle history, the violations they saw live, and what the row's own
// oracle needs on top.
type roundLog struct {
	mu         sync.Mutex
	hist       History
	violations []Violation
	// indeterminate (MVCC): a commit failed with a hard error after the
	// crash instant, so whether it reached the log is unknowable.
	indeterminate bool
	// crosses and committed (sharded): the cross-shard records, and the
	// per-(worker, shard) commit counts a staged crash continues from.
	crosses   []crossRec
	committed [][]int
}

func (l *roundLog) record(txns ...Txn) {
	l.mu.Lock()
	l.hist.Txns = append(l.hist.Txns, txns...)
	l.mu.Unlock()
}

func (l *roundLog) violate(w int, detail string) {
	l.mu.Lock()
	l.violations = append(l.violations, Violation{Kind: "error", Worker: w, Detail: detail})
	l.mu.Unlock()
}

// errChainEnds is a hook's "stop here, nothing is wrong": media faults
// may legally damage the database file beyond the log's ability to
// repair it, and the chain then ends in degraded read-only mode.
var errChainEnds = errors.New("chain ends degraded")

// crashChain runs one crash chain: boot a fresh machine, then repeat
// (workload with an armed crash → power fail → reboot → recover →
// oracle check) for the sampled number of rounds, carrying the survivor
// forward as the next round's base state.
func crashChain(c *chain) {
	m := c.mode
	mach, err := m.boot(c)
	if err != nil {
		c.failf(-1, "error", "platform: %v", err)
		return
	}
	c.mach, c.round = mach, -1 // hooks reach the machine through c
	fp := fnv.New64a()
	defer func() {
		fmt.Fprintf(fp, "ops=%d", mach.OpCount())
		c.res.fingerprint = fp.Sum64()
	}()
	eng, err := m.open(c)
	if err != nil {
		c.failf(-1, "error", "open: %v", err)
		return
	}
	if err := eng.CreateTable("t"); err != nil {
		c.failf(-1, "error", "create table: %v", err)
		return
	}

	base := map[string]string{}
	window := int64(2500)
	for round := 0; round < c.cfg.rounds; round++ {
		c.round = round
		if m.anchor != nil {
			if err := m.anchor(c); err != nil {
				if !errors.Is(err, errChainEnds) {
					c.failf(round, "error", "anchor checkpoint: %v", err)
				}
				return
			}
		}
		c.plan = m.plan(c, window)
		c.plan.txns = c.opts.clampTxns(c.plan.txns)
		policy, pfSeed := c.plan.policy, c.plan.pfSeed
		opStart := mach.OpCount()
		if c.plan.armAfter > 0 {
			mach.ArmCrash(c.plan.armAfter, policy, pfSeed)
		}
		log := &roundLog{hist: History{Base: base, Workers: c.cfg.workers}, committed: make([][]int, c.cfg.workers)}
		c.runWorkers(func(w int, wrng *rand.Rand) { m.worker(c, log, w, wrng) })
		if m.settle != nil {
			m.settle(c, log)
		}
		c.res.txns += len(log.hist.Txns)

		eng.Abandon()
		mach.PowerFail(policy, pfSeed)
		if err := mach.Reboot(); err != nil {
			c.failf(round, "error", "reboot: %v", err)
			return
		}
		if eng, err = m.open(c); err != nil {
			if !errors.Is(err, errChainEnds) {
				c.failf(round, "error", "recovery open: %v", err)
			}
			return
		}
		if !eng.HasTable("t") {
			// Sound even under waived durability: the round-boundary
			// anchor checkpoint put the table in the database file,
			// which NVRAM faults cannot reach.
			c.failf(round, "durability", "table created before the crash window vanished")
			return
		}
		survivor := map[string]string{}
		err = eng.Scan("t", func(k, v []byte) bool {
			survivor[string(k)] = string(v)
			return true
		})
		if err != nil {
			c.failf(round, "error", "survivor scan: %v", err)
			return
		}
		for _, k := range sortedKeys(survivor) {
			fmt.Fprintf(fp, "%s=%s\n", k, survivor[k])
		}
		if err := eng.Check(); err != nil {
			c.failf(round, "atomicity", "btree check: %v", err)
			return
		}

		for _, v := range log.violations {
			c.fail(round, v)
		}
		for _, v := range m.verify(c, log, survivor) {
			c.fail(round, v)
		}
		c.res.rounds++
		if len(c.res.violations) > 0 {
			c.res.violations[0].Evidence = c.evidence(log, survivor, base)
			c.opts.logf("chain %d round %d (%s): VIOLATION", c.step, round, policyName[policy])
			eng.Abandon()
			return
		}

		base = survivor
		if used := mach.OpCount() - opStart; used > 300 {
			window = used
		}
	}
	_ = eng.Close()
}

// crashed reports whether the round's armed crash has fired: anything
// acknowledged while this still reads false completed before the crash
// instant and must survive it. A staged round arms nothing. The probe
// takes the persistence domain's lock, which churn and flushes contend
// for: workers call it once per commit, never once per read.
func (c *chain) crashed() bool { return c.plan.armAfter > 0 && c.mach.CrashTriggered() }

// runWorkers drives one round with the crash trigger armed:
// cfg.workers writer goroutines, each on its own rng stream, plus the
// optional heap churn and snapshot reader. It returns when every
// goroutine has finished — mid-operation crash semantics come from the
// armed trigger freezing the durable image while execution continues.
func (c *chain) runWorkers(worker func(w int, wrng *rand.Rand)) {
	var aux sync.WaitGroup
	stop := make(chan struct{})
	background := func(step func()) {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
					step()
				}
			}
		}()
	}
	if c.cfg.churn {
		crng := rand.New(rand.NewSource(mix(c.seed, c.round*1000+901)))
		background(func() {
			blk, err := c.plat.Heap.NVPreMalloc(4096 * (1 + crng.Intn(2)))
			if err != nil {
				return
			}
			if crng.Intn(2) == 0 {
				if err := c.plat.Heap.NVMallocSetUsedFlag(blk); err != nil {
					return
				}
			}
			_ = c.plat.Heap.NVFree(blk)
		})
	}
	if c.cfg.reader {
		background(func() {
			rtx, err := c.d.BeginRead()
			if err != nil {
				return
			}
			_ = rtx.Scan("t", func(k, v []byte) bool { return true })
			rtx.Close()
		})
	}

	var writers sync.WaitGroup
	for w := 0; w < c.cfg.workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			worker(w, rand.New(rand.NewSource(mix(c.seed, c.round*1000+w))))
		}(w)
	}
	writers.Wait()
	close(stop)
	aux.Wait()
}

// fuzzTx is the transaction surface slot transactions (*db.Tx) and MVCC
// sessions (*db.CTx) share.
type fuzzTx interface {
	Insert(table string, key, value []byte) error
	Delete(table string, key []byte) (bool, error)
	Get(table string, key []byte) ([]byte, bool, error)
	Rollback()
	Commit() error
	Seq() uint64
}

// slotTx and sessionTx begin a transaction of either kind on d.
func slotTx(d *db.DB) func() (fuzzTx, error) {
	return func() (fuzzTx, error) { return d.Begin() }
}

func sessionTx(d *db.DB) func() (fuzzTx, error) {
	return func() (fuzzTx, error) { return d.BeginConcurrent() }
}

// runTxn runs ops as one transaction: begin, apply the mutations, then
// inTxn (if any) with the writes pending, then roll back or commit. It
// returns the commit seq (0: rolled back as asked), or the step that
// failed — "begin", "txn op" (rolled back) or "commit" — with its error.
// A deferred checkpoint round is not a failure: the transaction IS
// durable.
func runTxn(begin func() (fuzzTx, error), ops []Op, rollback bool, inTxn func(fuzzTx)) (seq uint64, at string, err error) {
	tx, err := begin()
	if err != nil {
		return 0, "begin", err
	}
	for _, op := range ops {
		if op.Delete {
			_, err = tx.Delete("t", []byte(op.Key))
		} else {
			err = tx.Insert("t", []byte(op.Key), []byte(op.Value))
		}
		if err != nil {
			tx.Rollback()
			return 0, "txn op", err
		}
	}
	if inTxn != nil {
		inTxn(tx)
	}
	if rollback {
		tx.Rollback()
		return 0, "", nil
	}
	if err := tx.Commit(); err != nil && !errors.Is(err, db.ErrCheckpointDeferred) {
		return 0, "commit", err
	}
	return tx.Seq(), "", nil
}
