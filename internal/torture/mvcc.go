package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/db"
)

// MVCC chain mode (Options.MVCC): every worker writes the SAME shared
// keyspace through BeginConcurrent sessions (with a fraction of legacy
// Begin transactions mixed in, since both paths maintain the page
// version vector). Conflicts are a legal, expected outcome — the driver
// retries them a few times and otherwise drops the attempt, and only
// transactions whose commit actually succeeded (seq assigned) enter the
// oracle history.
//
// Per-worker prefix matching — the plain-mode oracle — is UNSOUND here:
// with overlapping keyspaces a worker's keys are rewritten by everyone,
// so no per-worker model exists. The MVCC oracle instead replays the
// committed transactions in global commit-sequence order over the
// round's base state. That is sound because (a) the final value of
// every key is whatever its last writer in seq order put there —
// snapshot-isolation anomalies are read anomalies, never write-state
// ones — and (b) the journal flushes groups in seq order under atomic
// commit marks, so a crash preserves exactly a seq-prefix of the
// history. Every committed transaction writes its per-worker counter
// key, which makes all prefix states pairwise distinct, so the survivor
// matches at most one prefix.

// MVCCSharedKeys is the size of the overlapping keyspace all workers
// contend on. Small enough that btree leaves are shared (real page
// conflicts), large enough that the tree splits past one leaf.
const MVCCSharedKeys = 24

// MVCCSharedKey returns the i'th key of the shared keyspace.
func MVCCSharedKey(i int) string { return fmt.Sprintf("s/k%02d", i) }

// MVCCCounterKey is the per-worker key every committed transaction
// stamps with its round and per-worker commit index, making every
// seq-prefix state distinct (the same role CounterKey plays for the
// disjoint-keyspace oracle).
func MVCCCounterKey(worker int) string { return fmt.Sprintf("c/w%02d", worker) }

// genMVCCOps builds one transaction's mutations over the shared
// keyspace, ending with the worker's counter stamp.
func genMVCCOps(rng *rand.Rand, worker, round, idx int) []Op {
	n := 1 + rng.Intn(4)
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		k := MVCCSharedKey(rng.Intn(MVCCSharedKeys))
		if rng.Intn(5) == 0 {
			ops = append(ops, Op{Key: k, Delete: true})
		} else {
			val := fmt.Sprintf("v%d.%d.%d.%d.%x", worker, round, idx, i, rng.Int63())
			for len(val) < 24+rng.Intn(80) {
				val += "."
			}
			ops = append(ops, Op{Key: k, Value: val})
		}
	}
	ops = append(ops, Op{Key: MVCCCounterKey(worker), Value: fmt.Sprintf("%d.%d", round, idx)})
	return ops
}

// VerifyMVCC checks a recovered survivor against an overlapping-
// keyspace history: the survivor must equal the base state plus some
// prefix of the committed transactions in global commit-sequence order,
// and (unless WeakDurability) that prefix must cover every acknowledged
// commit. Only transactions with an assigned seq may appear — a commit
// that failed cleanly (conflict, backpressure) never reached the log
// and belongs outside the history.
func VerifyMVCC(h History, survivor map[string]string) []Violation {
	var out []Violation

	for k := range survivor {
		if strings.HasPrefix(k, "s/") {
			continue
		}
		owned := false
		for w := 0; w < h.Workers; w++ {
			if k == MVCCCounterKey(w) {
				owned = true
				break
			}
		}
		if !owned {
			out = append(out, Violation{Kind: "resurrection", Worker: -1,
				Detail: fmt.Sprintf("survivor holds key %q outside the shared keyspace", k)})
		}
	}

	txns := append([]Txn(nil), h.Txns...)
	sort.Slice(txns, func(i, j int) bool { return txns[i].Seq < txns[j].Seq })
	lastIdx := make(map[int]int)
	for i, t := range txns {
		if t.Seq == 0 {
			out = append(out, Violation{Kind: "error", Worker: t.Worker,
				Detail: "MVCC history holds a transaction without a commit seq"})
			return out
		}
		if i > 0 && t.Seq == txns[i-1].Seq {
			out = append(out, Violation{Kind: "error", Worker: t.Worker,
				Detail: fmt.Sprintf("two transactions share commit seq %d", t.Seq)})
			return out
		}
		// A worker issues its transactions sequentially, so its commits
		// must appear in issue order within the global seq order.
		if t.Index <= lastIdx[t.Worker] {
			out = append(out, Violation{Kind: "order", Worker: t.Worker,
				Detail: fmt.Sprintf("txn %d (seq %d) committed after txn %d of the same worker",
					t.Index, t.Seq, lastIdx[t.Worker])})
			return out
		}
		lastIdx[t.Worker] = t.Index
	}

	state := make(map[string]string, len(h.Base))
	for k, v := range h.Base {
		state[k] = v
	}
	m, ackedPos := -1, 0
	if sameState(state, survivor) {
		m = 0
	}
	for i, t := range txns {
		applyTxn(state, t)
		if sameState(state, survivor) {
			m = i + 1 // counter stamps make prefix states distinct
		}
		if t.Acked {
			ackedPos = i + 1
		}
	}
	switch {
	case m < 0:
		out = append(out, Violation{Kind: "atomicity", Worker: -1,
			Detail: fmt.Sprintf("survivor matches no seq-order prefix (0..%d); vs full state: %s",
				len(txns), diffState(state, survivor))})
	case m < ackedPos && !h.WeakDurability:
		out = append(out, Violation{Kind: "durability", Worker: -1,
			Detail: fmt.Sprintf("acknowledged commit at seq position %d lost: survivor reflects only %d/%d commits",
				ackedPos, m, len(txns))})
	}
	return out
}

// sampleMVCC draws an overlapping-keyspace chain: always ≥ 2 writers
// (one writer cannot conflict with itself, so a forced count of 1 is
// not honoured), the strict-durability variant rotation, and the usual
// auxiliary load.
func sampleMVCC(rng *rand.Rand, opts Options) chainCfg {
	v := drawVariant(rng, opts)
	cfg := chainCfg{label: "MVCC/" + v.Name, variant: v.Cfg, rounds: 3 + rng.Intn(4)}
	if opts.Workers > 1 {
		cfg.workers = opts.Workers
	} else {
		cfg.workers = 2 + rng.Intn(4)
	}
	drawConcurrency(rng, &cfg)
	cfg.ckptLimit = drawCkptLimit(rng, opts)
	return cfg
}

// verifyMVCCRound is the MVCC row's oracle step.
func verifyMVCCRound(c *chain, log *roundLog, survivor map[string]string) []Violation {
	if log.indeterminate {
		// Whether the failed commit reached the log is unknowable from
		// outside, so no seq-order prefix claim is sound. The structural
		// checks still ran; the chain continues from whatever survived.
		c.opts.logf("chain %d round %d (%s): indeterminate commit outcome, oracle skipped",
			c.step, c.round, policyName[c.plan.policy])
		return nil
	}
	log.hist.WeakDurability = c.cfg.variant.Sync == core.SyncChecksum
	return VerifyMVCC(log.hist, survivor)
}

// mvccRetries bounds the per-transaction conflict retry budget: enough
// that the workload makes progress under heavy contention, small enough
// that a pathological livelock shows up as dropped (never-recorded)
// transactions rather than a hang.
const mvccRetries = 8

// mvccWorker is one writer of an MVCC round: every worker writes ONE
// shared keyspace, each transaction run as an MVCC session or, one time
// in four, a legacy slot transaction — both paths feed the same version
// vector. Conflicted and cleanly backpressured attempts stay out of the
// history; only commits with an assigned seq enter it.
func mvccWorker(c *chain, log *roundLog, w int, wrng *rand.Rand) {
	session, slot, committed := sessionTx(c.d), slotTx(c.d), 0
	for i := 0; i < c.plan.txns; i++ {
		rollback := wrng.Intn(100) < 15
		idx := committed + 1
		ops := genMVCCOps(wrng, w, c.round, idx)

		// One time in four the slot path, which can never conflict: it
		// holds the writer slot throughout.
		begin, retries := session, mvccRetries
		if wrng.Intn(4) == 0 {
			begin, retries = slot, 0
		}
		var seq uint64
		var err error
		for try := 0; try <= retries; try++ {
			seq, _, err = runTxn(begin, ops, rollback, func(tx fuzzTx) { sessionReadsItsWrites(c, log, w, tx, ops) })
			if !errors.Is(err, db.ErrConflict) {
				break
			}
			err = nil // conflict budget exhausted: cleanly dropped
		}
		switch {
		case err == nil && seq == 0, errors.Is(err, db.ErrBusy):
			// Clean non-commit: rollback, conflict budget exhausted, or
			// backpressure — legal, stays out of the history.
		case err == nil:
			log.record(Txn{Worker: w, Index: idx, Seq: seq, Acked: !c.crashed(), Ops: ops})
			committed = idx
		case errors.Is(err, db.ErrDegraded):
			return
		default:
			if c.crashed() {
				log.mu.Lock()
				log.indeterminate = true
				log.mu.Unlock()
			} else {
				log.violate(w, "txn: "+err.Error())
			}
			return
		}
	}
}

// sessionReadsItsWrites checks read-your-writes inside an open
// transaction: the last op on a key this transaction wrote must be what
// it reads back.
func sessionReadsItsWrites(c *chain, log *roundLog, w int, tx fuzzTx, ops []Op) {
	op := ops[len(ops)-1]
	got, ok, err := tx.Get("t", []byte(op.Key))
	switch {
	case err != nil:
	case op.Delete && ok:
		if !c.crashed() {
			log.violate(w, fmt.Sprintf("session read-your-writes: deleted %q still present", op.Key))
		}
	case !op.Delete && (!ok || string(got) != op.Value):
		if !c.crashed() {
			log.violate(w, fmt.Sprintf("session read-your-writes mismatch on %q", op.Key))
		}
	}
}
