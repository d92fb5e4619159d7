// The single-engine topology — one *db.DB on one *platform.Platform, the
// hooks the plain and MVCC rows share — and the plain row itself:
// writers on disjoint per-worker keyspaces, checked by the prefix oracle
// of oracle.go.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/nvram"
	"repro/internal/platform"
)

// bootSingle builds the chain's machine — the Tuna profile, or under
// -heap-pages a default platform whose NVRAM holds exactly that many
// heap pages — and arms its fault plan.
func bootSingle(c *chain) (machine, error) {
	var err error
	if c.opts.HeapPages > 0 {
		c.plat, err = platform.New(platform.Config{
			NVRAM: nvram.Config{Size: heapo.SizeForPages(c.opts.HeapPages)},
		})
	} else {
		c.plat, err = platform.NewTuna()
	}
	if err != nil {
		return nil, err
	}
	c.cfg.faults.arm(c.plat, -1)
	c.dbOpts = db.Options{
		Journal:              db.JournalNVWAL,
		NVWAL:                c.cfg.variant,
		Concurrent:           true,
		GroupCommit:          c.cfg.groupCommit,
		BackgroundCheckpoint: c.cfg.bgCkpt,
		CheckpointLimit:      c.cfg.ckptLimit,
		ScrubEvery:           c.cfg.scrubEvery,
	}
	if c.opts.HeapPages > 0 {
		// Tiny-heap chains stall under backpressure; the deadline keeps a
		// saturated chain from hanging a fuzz run (ErrBusy is a legal
		// worker outcome, see plainWorker).
		c.dbOpts.CommitTimeout = 250 * time.Millisecond
	}
	return c.plat, nil
}

// openSingle opens the database, and after a reboot holds recovery to
// what -faults allows it.
func openSingle(c *chain) (engine, error) {
	d, err := db.Open(c.plat, "fuzz", c.dbOpts)
	if err != nil {
		// Media faults may legally damage the database file beyond
		// the log's ability to repair it — recovery then still opens,
		// read-only, with a salvage report saying why. Anything else,
		// and any hard error at all, is a real finding.
		if !c.opts.Faults || !errors.Is(err, db.ErrDegraded) || d == nil {
			return nil, err
		}
		if rep := d.Salvage(); rep == nil || !rep.DBFileDamaged {
			c.failf(c.round, "error", "degraded open without a db-damage salvage report: %s", rep)
		}
		c.opts.logf("chain %d round %d (%s): degraded read-only (%s)",
			c.step, c.round, policyName[c.plan.policy], d.Salvage())
		c.res.degraded = true
		d.Abandon()
		return nil, errChainEnds
	}
	c.d = d
	if c.opts.Faults && c.round >= 0 {
		rep := d.Salvage()
		if rep == nil {
			return nil, errors.New("recovery of an existing log produced no salvage report")
		}
		if rep.Damaged() {
			c.res.damaged++
		}
		c.opts.logf("chain %d round %d (%s): %s", c.step, c.round, policyName[c.plan.policy], rep)
	}
	return d, nil
}

// anchorSingle anchors the oracle's floor under -faults. The live log
// carries prior rounds' frames across crashes, and a bit flip in one of
// those legally truncates salvage below this round's base state — a
// loss the per-round oracle would misread as an atomicity violation.
// Checkpointing at the round boundary moves the base into the database
// file, which NVRAM faults cannot reach, so truncation can only drop
// current-round transactions and "base keys missing" stays a real
// finding.
func anchorSingle(c *chain) error {
	if !c.opts.Faults {
		return nil
	}
	err := c.d.Checkpoint()
	if errors.Is(err, db.ErrDegraded) {
		c.opts.logf("chain %d round %d: anchor checkpoint hit degraded mode (%v)", c.step, c.round, err)
		c.res.degraded = true
		c.d.Abandon()
		return errChainEnds
	}
	return err
}

func planRound(c *chain, window int64) roundPlan {
	return roundPlan{
		policy:   c.cfg.policies[c.rng.Intn(len(c.cfg.policies))],
		armAfter: 1 + c.rng.Int63n(window),
		pfSeed:   c.rng.Int63(),
		txns:     3 + c.rng.Intn(8),
	}
}

// settleSingle looks at the exhaustion latch once the writers are done.
func settleSingle(c *chain, _ *roundLog) {
	if c.d.Degraded() != nil && c.opts.HeapPages > 0 {
		// Provable exhaustion latched the engine read-only mid-round.
		// That is a sanctioned tiny-heap outcome, and the crash/reboot
		// that follows clears the latch — committed state must still
		// survive, which the oracle checks as usual.
		c.res.degraded = true
	}
}

func salvageSingle(c *chain) []string {
	if rep := c.d.Salvage(); rep != nil {
		return rep.Events
	}
	return nil
}

func describeSingle(c chainCfg) string {
	s := fmt.Sprintf("%s w=%d gc=%d bg=%t churn=%t rd=%t rounds=%d ckpt=%d",
		c.label, c.workers, c.groupCommit, c.bgCkpt, c.churn, c.reader, c.rounds, c.ckptLimit)
	if c.faults.nv.BitFlipRate > 0 || c.faults.dev.ReadEIORate > 0 {
		s += fmt.Sprintf(" flip=%g stuck=%g rerr=%g torn=%g scrub=%d",
			c.faults.nv.BitFlipRate, c.faults.nv.StuckLineRate, c.faults.nv.ReadErrorRate,
			c.faults.dev.TornWriteRate, c.scrubEvery)
	}
	return s
}

// samplePlain draws a plain chain. Chains with one worker and no
// auxiliary goroutines are fully deterministic (single goroutine on a
// virtual clock), so they replay exactly; concurrent chains trade exact
// replay for interleaving coverage.
func samplePlain(rng *rand.Rand, opts Options) chainCfg {
	v := drawVariant(rng, opts)
	cfg := chainCfg{label: v.Name, variant: v.Cfg, rounds: 3 + rng.Intn(4), groupCommit: 1}
	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	} else if rng.Intn(10) < 4 {
		cfg.workers = 1 // deterministic-replay chains
	} else {
		cfg.workers = 2 + rng.Intn(3)
	}
	if cfg.workers > 1 {
		drawConcurrency(rng, &cfg)
	}
	cfg.ckptLimit = drawCkptLimit(rng, opts)

	if opts.Faults {
		// The bit-flip rate is the acceptance anchor; stuck lines and
		// read errors rotate in.
		cfg.faults.nv = memsim.FaultConfig{Seed: rng.Int63(), BitFlipRate: 1e-4}
		if rng.Intn(3) == 0 {
			cfg.faults.nv.StuckLineRate = 1e-3
		}
		if rng.Intn(3) == 0 {
			cfg.faults.nv.ReadErrorRate = 1e-3
		}
		// Block-device faults stay detectable: transient EIO (absorbed
		// by the db layer's bounded retry) and torn in-flight sectors
		// (always rewritten by checkpoint recovery). Short writes are
		// deliberately excluded — silently acknowledged partial programs
		// are undetectable without page checksums the format doesn't
		// have, so no oracle could pass against them.
		cfg.faults.dev = blockdev.FaultConfig{
			Seed:         rng.Int63(),
			ReadEIORate:  0.002,
			WriteEIORate: 0.002,
			SyncEIORate:  0.001,
		}
		if rng.Intn(2) == 0 {
			cfg.faults.dev.TornWriteRate = 0.2
		}
		// The scrubber only on concurrent chains: its goroutine's NVRAM
		// reads would cost single-worker chains their exact replay.
		if cfg.workers > 1 && rng.Intn(2) == 0 {
			cfg.scrubEvery = 4 + rng.Intn(12)
		}
	}
	return cfg
}

// plainWorker is one writer of a plain round: transactions over its own
// keyspace, a sixth of them rolled back, half of them reading their own
// writes before they end.
func plainWorker(c *chain, log *roundLog, w int, wrng *rand.Rand) {
	// The worker's private model of its own keyspace: base plus every
	// transaction it has issued (journal total order means its own
	// writes are visible to it after commit).
	model := restrict(log.hist.Base, w)
	begin, committed := slotTx(c.d), 0
	for i := 0; i < c.plan.txns; i++ {
		rollback := wrng.Intn(100) < 15
		idx := committed + 1
		ops := genOps(wrng, w, c.round, idx)
		seq, at, err := runTxn(begin, ops, rollback, func(tx fuzzTx) {
			if wrng.Intn(2) != 0 {
				return
			}
			// Read-your-writes check inside the transaction.
			k := randKey(wrng, w)
			want, wantOK := expect(model, ops, k)
			got, gotOK, gerr := tx.Get("t", []byte(k))
			if gerr == nil && (gotOK != wantOK || (wantOK && string(got) != want)) && !c.crashed() {
				log.violate(w, fmt.Sprintf("read-your-writes mismatch on %q", k))
			}
		})
		switch {
		case err == nil && rollback:
		case err == nil:
			// Acked iff the commit completed before the crash instant
			// froze the durable image; checking after Commit returns
			// can only under-claim (safe direction).
			log.record(Txn{Worker: w, Index: idx, Seq: seq, Acked: !c.crashed(), Ops: ops})
			committed = idx
			applyTxn(model, Txn{Ops: ops})
		case at != "txn op" && errors.Is(err, db.ErrBusy):
			// Backpressure is legal on a tiny heap: the admission stall or
			// the commit hit its deadline. ErrLogFull is pre-mutation, so
			// nothing of the transaction reached the journal — a rollback,
			// not a ghost, and it stays out of the oracle history. A raw
			// heapo.ErrNoSpace still falls through to the violation.
		case at != "txn op" && errors.Is(err, db.ErrDegraded):
			return // latched read-only until the next reboot: stop writing
		default:
			crashed := c.crashed()
			if !crashed {
				log.violate(w, at+": "+err.Error())
			}
			if at == "commit" {
				// Post-crash ghost failure: the outcome is uncertain; record
				// the txn as unacknowledged so the oracle treats it as
				// may-be-either.
				log.record(Txn{Worker: w, Index: idx, Ops: ops})
			}
			if at != "txn op" || !crashed {
				return
			}
		}
	}
}

func verifyPlain(c *chain, log *roundLog, survivor map[string]string) []Violation {
	// Salvage truncation (faults mode) and async commit (SyncChecksum)
	// legally lose acked transactions; the other three invariants stay
	// absolute.
	log.hist.WeakDurability = c.opts.Faults || c.cfg.variant.Sync == core.SyncChecksum
	return Verify(log.hist, survivor)
}

const keysPerWorker = 10

func randKey(rng *rand.Rand, worker int) string {
	return fmt.Sprintf("%sk%02d", WorkerPrefix(worker), rng.Intn(keysPerWorker))
}

// genOps builds one transaction's mutations inside the worker keyspace,
// always ending with the counter write that makes prefix states unique.
// The counter value is stamped with the round as well as the index:
// without the round, a delete-heavy transaction whose other ops are all
// no-ops against the round's base (deletes of absent keys) can land the
// model back on the base state exactly when the previous round also
// ended on the same index — and the oracle would then count transactions
// as survived that never became durable, turning legal weak-durability
// losses elsewhere into phantom order violations.
func genOps(rng *rand.Rand, worker, round, idx int) []Op {
	n := 1 + rng.Intn(4)
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		k := randKey(rng, worker)
		if rng.Intn(5) == 0 {
			ops = append(ops, Op{Key: k, Delete: true})
		} else {
			val := fmt.Sprintf("v%d.%d.%d.%x", worker, idx, i, rng.Int63())
			for len(val) < 8+rng.Intn(96) {
				val += "."
			}
			ops = append(ops, Op{Key: k, Value: val})
		}
	}
	ops = append(ops, Op{Key: CounterKey(worker), Value: fmt.Sprintf("%d.%d", round, idx)})
	return ops
}

// expect resolves a key through pending in-txn ops over the worker's
// committed model (later ops shadow earlier ones).
func expect(model map[string]string, ops []Op, key string) (string, bool) {
	val, ok := model[key]
	for _, op := range ops {
		if op.Key != key {
			continue
		}
		if op.Delete {
			val, ok = "", false
		} else {
			val, ok = op.Value, true
		}
	}
	return val, ok
}
