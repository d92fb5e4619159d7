package torture

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/heapo"
	"repro/internal/memsim"
	"repro/internal/nvram"
	"repro/internal/platform"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed is the master seed; every chain derives its own seed from it.
	Seed int64
	// Steps bounds the number of chains (0 = until Duration expires).
	Steps int
	// Step, when >= 0, replays exactly one chain — the deterministic
	// repro mode printed with every violation.
	Step int
	// Duration is the wall-clock budget (0 = until Steps chains ran).
	Duration time.Duration
	// Workers forces the writer count per chain (0 = randomized).
	Workers int
	// Bug enables the deliberately broken commit-mark ordering
	// (core.Config.UnsafeEarlyCommitMark) to prove the fuzzer catches
	// ordering violations.
	Bug bool
	// Faults enables the media-fault chain mode: randomized NVRAM
	// damage (bit flips at power failure, stuck lines, uncorrectable
	// reads) confined to the heap's data pages, plus transient EIO and
	// torn in-flight sectors on the block device under the database
	// file. Salvage recovery may legally drop acknowledged
	// transactions, so the durability invariant is waived
	// (History.WeakDurability); atomicity, no-resurrection and order
	// stay absolute, recovery must never hard-fail the open, and the
	// SyncChecksum variants join the rotation.
	Faults bool
	// MaxRounds, when > 0, clamps every chain's sampled crash-round
	// count. Rounds are a deterministic prefix of the chain, so the
	// clamp is the shrinker's coarse handle (see Minimize).
	MaxRounds int
	// MaxTxns, when > 0, clamps the per-round transaction budget of
	// every worker — a prefix of each worker's deterministic
	// transaction stream, the shrinker's fine handle.
	MaxTxns int
	// Shards, when > 1, runs sharded chains instead: the workload drives
	// a shard.DB (N engines over one shared persistence domain) with a
	// mix of shard-local and cross-shard transactions, random crash
	// windows that can land mid-2PC, and deterministic coordinator
	// crashes at protocol stages. Incompatible with Bug, Faults and
	// HeapPages (see sharded.go).
	Shards int
	// MVCC runs overlapping-keyspace chains instead: every worker writes
	// the SAME shared keyspace through BeginConcurrent sessions (plus a
	// fraction of legacy transactions), ErrConflict is a legal retried
	// outcome, and recovery is checked by the seq-order oracle
	// (VerifyMVCC) rather than per-worker prefix matching, which is
	// unsound when keyspaces overlap. Incompatible with Bug, Faults and
	// Shards; composes with HeapPages (backpressure outcomes stay legal).
	MVCC bool
	// Repl runs replication chains instead: a 3-node cluster (primary +
	// two WAL-shipping replicas) serving concurrent clients through the
	// simulated network while the chain degrades links, partitions the
	// shipping stream, crash-fails primaries and promotes replicas under
	// new fencing epochs. Outcome-based oracle (see repl.go): acked
	// writes survive failover, indeterminate writes are all-or-nothing,
	// quiesced replicas converge exactly. Incompatible with every other
	// mode; chains are concurrent by construction, so Minimize reports
	// violations unshrunk.
	Repl bool
	// Slow runs gray-failure chains instead: the -repl 3-node topology
	// with every layer's slow-fault injection armed (NVRAM remap
	// stalls, device GC pauses, fsync hangs, link bufferbloat) and the
	// primary's ack-latency quarantine active — but nothing
	// fail-stops. The oracle adds LIVENESS to -repl's safety checks:
	// every client op must resolve within a bounded real time, and the
	// healed cluster must converge (quarantined replicas must resync
	// and re-admit). Incompatible with every other mode (see slow.go).
	Slow bool
	// HeapPages, when > 0, shrinks the platform's NVRAM heap to that
	// many pages — small enough that ordinary rounds exhaust it — and
	// arms the backpressure machinery: chains get a short CommitTimeout
	// and a tight checkpoint limit, and workers treat ErrBusy (clean
	// rolled-back stall) as a legal outcome that never enters the
	// oracle history. A raw heapo.ErrNoSpace remains a violation.
	HeapPages int
	// Logf receives progress lines; nil silences them.
	Logf func(format string, args ...any)
}

// Report summarizes a run.
type Report struct {
	Chains     int               `json:"chains"`
	Rounds     int               `json:"rounds"`
	Txns       int               `json:"txns"`
	Violations []ViolationReport `json:"violations"`
	Elapsed    time.Duration     `json:"elapsed_ns"`
	// Damaged counts rounds whose salvage report observed media damage
	// (faults mode); Degraded counts chains that ended early because
	// recovery flagged the database file and opened read-only.
	Damaged  int `json:"damaged_rounds,omitempty"`
	Degraded int `json:"degraded_chains,omitempty"`
	// Minimized is the shrunken repro for the first violation, when the
	// caller ran Minimize.
	Minimized *ViolationReport `json:"minimized,omitempty"`
}

// ViolationReport is one oracle violation with its replay coordinates.
type ViolationReport struct {
	Step   int    `json:"step"`
	Seed   int64  `json:"seed"`
	Round  int    `json:"round"`
	Chain  string `json:"chain"`
	Kind   string `json:"kind"`
	Worker int    `json:"worker"`
	Detail string `json:"detail"`
	Repro  string `json:"repro"`
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// mix derives a chain seed from the master seed and step index
// (splitmix64 finalizer, so adjacent steps decorrelate).
func mix(seed int64, step int) int64 {
	z := uint64(seed) + uint64(step)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Run executes chains until the step/duration budget is exhausted and
// returns the aggregate report. A violation stops the run immediately:
// every failure is a real finding with a printed repro.
func Run(opts Options) Report {
	start := time.Now()
	rep := Report{}
	step := 0
	if opts.Step >= 0 && opts.Steps == 0 && opts.Duration == 0 {
		opts.Steps = 1
	}
	if opts.Step >= 0 {
		step = opts.Step
	}
	for n := 0; ; n++ {
		if opts.Steps > 0 && n >= opts.Steps {
			break
		}
		if opts.Duration > 0 && time.Since(start) >= opts.Duration {
			break
		}
		var res chainResult
		switch {
		case opts.Slow:
			res = runSlowChain(opts, step+n)
		case opts.Repl:
			res = runReplChain(opts, step+n)
		case opts.Shards > 1:
			res = runShardedChain(opts, step+n)
		case opts.MVCC:
			res = runMVCCChain(opts, step+n)
		default:
			res = runChain(opts, step+n)
		}
		rep.Chains++
		rep.Rounds += res.rounds
		rep.Txns += res.txns
		rep.Damaged += res.damaged
		if res.degraded {
			rep.Degraded++
		}
		if len(res.violations) > 0 {
			rep.Violations = append(rep.Violations, res.violations...)
			break
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// newChainPlatform builds a chain's platform: the Tuna profile, or —
// in tiny-heap mode — a default platform whose NVRAM holds exactly
// Options.HeapPages heap pages.
func newChainPlatform(opts Options) (*platform.Platform, error) {
	if opts.HeapPages > 0 {
		return platform.New(platform.Config{
			NVRAM: nvram.Config{Size: heapo.SizeForPages(opts.HeapPages)},
		})
	}
	return platform.NewTuna()
}

// chainCfg is one chain's sampled configuration.
type chainCfg struct {
	label       string
	variant     core.Config
	workers     int
	groupCommit int
	bgCkpt      bool
	churn       bool
	reader      bool
	rounds      int
	ckptLimit   int
	policies    []memsim.FailPolicy
	// Faults mode: sampled media-fault configs (Ranges filled in by
	// runChain once the platform's heap range is known) and the
	// background scrubber cadence (0 = off).
	nvFaults   memsim.FaultConfig
	devFaults  blockdev.FaultConfig
	scrubEvery int
}

// sampleChain draws a chain configuration. Chains with one worker and
// no auxiliary goroutines are fully deterministic (single goroutine on
// a virtual clock), so they replay exactly; concurrent chains trade
// exact replay for interleaving coverage.
func sampleChain(rng *rand.Rand, opts Options) chainCfg {
	var variants []core.NamedConfig
	if opts.Bug {
		// The planted bug only affects lazy-sync commit ordering.
		variants = []core.NamedConfig{
			{Name: "LS", Cfg: core.VariantLS()},
			{Name: "LS+Diff", Cfg: core.VariantLSDiff()},
			{Name: "UH+LS", Cfg: core.VariantUHLS()},
			{Name: "UH+LS+Diff", Cfg: core.VariantUHLSDiff()},
		}
	} else {
		// SyncChecksum variants are excluded from the strict rotation:
		// asynchronous commit may legally lose acknowledged transactions
		// (§4.2), which the durability invariant would misreport. Faults
		// mode waives durability anyway, so there they join in.
		variants = []core.NamedConfig{
			{Name: "E", Cfg: core.VariantE()},
			{Name: "LS", Cfg: core.VariantLS()},
			{Name: "LS+Diff", Cfg: core.VariantLSDiff()},
			{Name: "UH+LS", Cfg: core.VariantUHLS()},
			{Name: "UH+LS+Diff", Cfg: core.VariantUHLSDiff()},
			{Name: "SP", Cfg: core.VariantSP()},
			{Name: "EP", Cfg: core.VariantEP()},
		}
		if opts.Faults {
			variants = append(variants,
				core.NamedConfig{Name: "CS+Diff", Cfg: core.VariantCSDiff()},
				core.NamedConfig{Name: "UH+CS+Diff", Cfg: core.VariantUHCSDiff()},
			)
		}
	}
	v := variants[rng.Intn(len(variants))]

	cfg := chainCfg{
		label:   v.Name,
		variant: v.Cfg,
		rounds:  3 + rng.Intn(4),
	}
	cfg.variant.UnsafeEarlyCommitMark = opts.Bug

	if opts.Workers > 0 {
		cfg.workers = opts.Workers
	} else if rng.Intn(10) < 4 {
		cfg.workers = 1 // deterministic-replay chains
	} else {
		cfg.workers = 2 + rng.Intn(3)
	}
	if cfg.workers > 1 {
		switch rng.Intn(3) {
		case 0:
			cfg.groupCommit = 1
		case 1:
			cfg.groupCommit = 2
		default:
			cfg.groupCommit = cfg.workers
		}
		cfg.bgCkpt = rng.Intn(2) == 0
		cfg.churn = rng.Intn(2) == 0
		cfg.reader = rng.Intn(2) == 0
	} else {
		cfg.groupCommit = 1
	}

	if opts.Bug {
		// Keep crash windows open: background checkpoints and heap
		// churn issue persist barriers that would legally re-persist
		// the queued-but-unpersisted frames the bug leaves behind.
		cfg.bgCkpt = false
		cfg.churn = false
		cfg.ckptLimit = 1 << 20
		cfg.policies = []memsim.FailPolicy{memsim.FailDropAll, memsim.FailAdversarial}
	} else {
		cfg.ckptLimit = 24 + rng.Intn(120)
		cfg.policies = []memsim.FailPolicy{
			memsim.FailDropAll, memsim.FailKeepCompleted, memsim.FailAdversarial,
		}
	}
	if opts.HeapPages > 0 {
		// A tiny heap cannot hold a hundred log frames: keep the limit
		// tight so routine rounds checkpoint, and let the watermarks and
		// commit-side retries carry the overload.
		cfg.ckptLimit = 4 + rng.Intn(12)
	}

	if opts.Faults {
		// NVRAM damage lands only on the heap's data pages (log blocks
		// and header), sparing allocator metadata — the fault model's
		// scope (DESIGN.md §13). The bit-flip rate is the acceptance
		// anchor; stuck lines and read errors rotate in.
		cfg.nvFaults = memsim.FaultConfig{Seed: rng.Int63(), BitFlipRate: 1e-4}
		if rng.Intn(3) == 0 {
			cfg.nvFaults.StuckLineRate = 1e-3
		}
		if rng.Intn(3) == 0 {
			cfg.nvFaults.ReadErrorRate = 1e-3
		}
		// Block-device faults stay detectable: transient EIO (absorbed
		// by the db layer's bounded retry) and torn in-flight sectors
		// (always rewritten by checkpoint recovery). Short writes are
		// deliberately excluded — silently acknowledged partial programs
		// are undetectable without page checksums the format doesn't
		// have, so no oracle could pass against them.
		cfg.devFaults = blockdev.FaultConfig{
			Seed:         rng.Int63(),
			ReadEIORate:  0.002,
			WriteEIORate: 0.002,
			SyncEIORate:  0.001,
		}
		if rng.Intn(2) == 0 {
			cfg.devFaults.TornWriteRate = 0.2
		}
		// The scrubber only on concurrent chains: its goroutine's NVRAM
		// reads would cost single-worker chains their exact replay.
		if cfg.workers > 1 && rng.Intn(2) == 0 {
			cfg.scrubEvery = 4 + rng.Intn(12)
		}
	}
	if opts.MaxRounds > 0 && cfg.rounds > opts.MaxRounds {
		cfg.rounds = opts.MaxRounds
	}
	return cfg
}

func (c chainCfg) String() string {
	s := fmt.Sprintf("%s w=%d gc=%d bg=%t churn=%t rd=%t rounds=%d ckpt=%d",
		c.label, c.workers, c.groupCommit, c.bgCkpt, c.churn, c.reader, c.rounds, c.ckptLimit)
	if c.nvFaults.BitFlipRate > 0 || c.devFaults.ReadEIORate > 0 {
		s += fmt.Sprintf(" flip=%g stuck=%g rerr=%g torn=%g scrub=%d",
			c.nvFaults.BitFlipRate, c.nvFaults.StuckLineRate, c.nvFaults.ReadErrorRate,
			c.devFaults.TornWriteRate, c.scrubEvery)
	}
	return s
}

type chainResult struct {
	rounds     int
	txns       int
	damaged    int  // rounds whose salvage report observed media damage
	degraded   bool // chain ended in degraded read-only mode
	violations []ViolationReport
	// fingerprint pins what a crash chain did, for the golden tests:
	// FNV-1a over every round's sorted survivor k=v pairs, then the
	// machine's final op count. Equal on two runs of a one-worker chain.
	fingerprint uint64
}

// fingerprinter accumulates chainResult.fingerprint.
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() fingerprinter { return fingerprinter{fnv.New64a()} }

func (f fingerprinter) survivor(s map[string]string) {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f.h, "%s=%s\n", k, s[k])
	}
}

func (f fingerprinter) finish(ops int64) uint64 {
	fmt.Fprintf(f.h, "ops=%d", ops)
	return f.h.Sum64()
}

func policyName(p memsim.FailPolicy) string {
	switch p {
	case memsim.FailDropAll:
		return "drop-all"
	case memsim.FailKeepCompleted:
		return "keep-completed"
	default:
		return "adversarial"
	}
}

// runChain runs one crash chain: open a fresh platform, then repeat
// (workload with an armed crash → power fail → reboot → recover →
// oracle check) for the configured number of rounds, carrying the
// survivor forward as the next round's base state.
func runChain(opts Options, step int) (res chainResult) {
	seed := mix(opts.Seed, step)
	rng := rand.New(rand.NewSource(seed))
	cfg := sampleChain(rng, opts)

	repro := fmt.Sprintf("nvwal-fuzz -seed %d -step %d", opts.Seed, step)
	if opts.Bug {
		repro += " -bug"
	}
	if opts.Faults {
		repro += " -faults"
	}
	if opts.MaxRounds > 0 {
		repro += fmt.Sprintf(" -max-rounds %d", opts.MaxRounds)
	}
	if opts.MaxTxns > 0 {
		repro += fmt.Sprintf(" -max-txns %d", opts.MaxTxns)
	}
	if opts.HeapPages > 0 {
		repro += fmt.Sprintf(" -heap-pages %d", opts.HeapPages)
	}
	fail := func(round int, v Violation) {
		res.violations = append(res.violations, ViolationReport{
			Step: step, Seed: opts.Seed, Round: round, Chain: cfg.String(),
			Kind: v.Kind, Worker: v.Worker, Detail: v.Detail, Repro: repro,
		})
	}

	plat, err := newChainPlatform(opts)
	if err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "platform: " + err.Error()})
		return res
	}
	fp := newFingerprinter()
	defer func() { res.fingerprint = fp.finish(plat.OpCount()) }()
	if opts.Faults {
		// Damage scope: the heap's data pages (log blocks and the NVWAL
		// header) for NVRAM faults, the whole device for block faults.
		// Both persist across every PowerFail/Reboot of the chain.
		start, end := plat.Heap.HeapRange()
		nf := cfg.nvFaults
		nf.Ranges = []memsim.AddrRange{{Start: start, End: end}}
		plat.NVRAM.InjectFaults(nf)
		plat.Flash.InjectFaults(cfg.devFaults)
	}
	dbOpts := db.Options{
		Journal:              db.JournalNVWAL,
		NVWAL:                cfg.variant,
		Concurrent:           true,
		GroupCommit:          cfg.groupCommit,
		BackgroundCheckpoint: cfg.bgCkpt,
		CheckpointLimit:      cfg.ckptLimit,
		ScrubEvery:           cfg.scrubEvery,
	}
	if opts.HeapPages > 0 {
		// Tiny-heap chains stall under backpressure; the deadline keeps a
		// saturated chain from hanging a fuzz run (ErrBusy is a legal
		// worker outcome, see runWorkload).
		dbOpts.CommitTimeout = 250 * time.Millisecond
	}
	d, err := db.Open(plat, "fuzz", dbOpts)
	if err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "open: " + err.Error()})
		return res
	}
	if err := d.CreateTable("t"); err != nil {
		fail(-1, Violation{Kind: "error", Worker: -1, Detail: "create table: " + err.Error()})
		return res
	}

	base := map[string]string{}
	window := int64(2500)
	opts.logf("chain %d (seed %d): %s", step, seed, cfg)

	for round := 0; round < cfg.rounds; round++ {
		if opts.Faults {
			// Anchor the oracle's floor. The live log carries prior
			// rounds' frames across crashes, and a bit flip in one of
			// those legally truncates salvage below this round's base
			// state — a loss the per-round oracle would misread as an
			// atomicity violation. Checkpointing at the round boundary
			// moves the base into the database file, which NVRAM faults
			// cannot reach, so truncation can only drop current-round
			// transactions and "base keys missing" stays a real finding.
			if err := d.Checkpoint(); err != nil {
				if errors.Is(err, db.ErrDegraded) {
					opts.logf("chain %d round %d: anchor checkpoint hit degraded mode (%v)",
						step, round, err)
					res.degraded = true
					d.Abandon()
					return res
				}
				fail(round, Violation{Kind: "error", Worker: -1,
					Detail: "anchor checkpoint: " + err.Error()})
				return res
			}
		}
		policy := cfg.policies[rng.Intn(len(cfg.policies))]
		armAfter := 1 + rng.Int63n(window)
		pfSeed := rng.Int63()
		txnsPer := 3 + rng.Intn(8)
		if opts.MaxTxns > 0 && txnsPer > opts.MaxTxns {
			txnsPer = opts.MaxTxns
		}
		opStart := plat.OpCount()

		plat.ArmCrash(armAfter, policy, pfSeed)
		hist, wvs := runWorkload(d, plat, cfg, base, seed, round, txnsPer)
		res.txns += len(hist.Txns)

		if d.Degraded() != nil && opts.HeapPages > 0 {
			// Provable exhaustion latched the engine read-only mid-round.
			// That is a sanctioned tiny-heap outcome, and the crash/reboot
			// below clears the latch — committed state must still survive,
			// which the oracle checks as usual.
			res.degraded = true
		}
		d.Abandon()
		plat.PowerFail(policy, pfSeed)
		if err := plat.Reboot(); err != nil {
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "reboot: " + err.Error()})
			return res
		}
		d, err = db.Open(plat, "fuzz", dbOpts)
		if err != nil {
			// Media faults may legally damage the database file beyond
			// the log's ability to repair it — recovery then still opens,
			// read-only, with a salvage report saying why. Anything else,
			// and any hard error at all, is a real finding.
			if opts.Faults && errors.Is(err, db.ErrDegraded) && d != nil {
				if rep := d.Salvage(); rep == nil || !rep.DBFileDamaged {
					fail(round, Violation{Kind: "error", Worker: -1,
						Detail: fmt.Sprintf("degraded open without a db-damage salvage report: %s", rep)})
				}
				opts.logf("chain %d round %d (%s): degraded read-only (%s)",
					step, round, policyName(policy), d.Salvage())
				res.degraded = true
				d.Abandon()
				return res
			}
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "recovery open: " + err.Error()})
			return res
		}
		if opts.Faults {
			rep := d.Salvage()
			if rep == nil {
				fail(round, Violation{Kind: "error", Worker: -1,
					Detail: "recovery of an existing log produced no salvage report"})
				return res
			}
			if rep.Damaged() {
				res.damaged++
			}
			opts.logf("chain %d round %d (%s): %s", step, round, policyName(policy), rep)
		}
		if !d.HasTable("t") {
			// Sound even under waived durability: the round-boundary
			// anchor checkpoint put the table in the database file,
			// which NVRAM faults cannot reach.
			fail(round, Violation{Kind: "durability", Worker: -1,
				Detail: "table created before the crash window vanished"})
			return res
		}
		survivor := map[string]string{}
		err = d.Scan("t", func(k, v []byte) bool {
			survivor[string(k)] = string(v)
			return true
		})
		if err != nil {
			fail(round, Violation{Kind: "error", Worker: -1, Detail: "survivor scan: " + err.Error()})
			return res
		}
		fp.survivor(survivor)
		if err := d.Check(); err != nil {
			fail(round, Violation{Kind: "atomicity", Worker: -1, Detail: "btree check: " + err.Error()})
			return res
		}

		for _, v := range wvs {
			fail(round, v)
		}
		// Salvage truncation (faults mode) and async commit (SyncChecksum)
		// legally lose acked transactions; the other three invariants
		// stay absolute.
		hist.WeakDurability = opts.Faults || cfg.variant.Sync == core.SyncChecksum
		for _, v := range Verify(hist, survivor) {
			fail(round, v)
		}
		res.rounds++
		if len(res.violations) > 0 {
			// TORTURE_DEBUG dumps the evidence a violation verdict rests
			// on — salvage events, the full history with seq/acked, and
			// the survivor vs base states — enough to separate a real
			// invariant breach from an oracle soundness gap without
			// re-instrumenting (both past oracle bugs were found this way).
			if os.Getenv("TORTURE_DEBUG") != "" {
				if rep := d.Salvage(); rep != nil {
					for _, ev := range rep.Events {
						opts.logf("DBG salvage event: %s", ev)
					}
				}
				for _, t := range hist.Txns {
					opts.logf("DBG txn w=%d idx=%d seq=%d acked=%v ops=%d", t.Worker, t.Index, t.Seq, t.Acked, len(t.Ops))
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
			opts.logf("chain %d round %d (%s): VIOLATION", step, round, policyName(policy))
			d.Abandon()
			return res
		}

		base = survivor
		if used := plat.OpCount() - opStart; used > 300 {
			window = used
		}
	}
	_ = d.Close()
	return res
}

// runWorkload drives one round's workload with the crash trigger armed:
// cfg.workers writer goroutines over disjoint keyspaces, plus optional
// heap churn and snapshot readers. It returns when every goroutine has
// finished — mid-operation crash semantics come from the armed trigger
// freezing the durable image while execution continues.
func runWorkload(d *db.DB, plat *platform.Platform, cfg chainCfg,
	base map[string]string, seed int64, round, txnsPer int) (History, []Violation) {

	hist := History{Base: base, Workers: cfg.workers}
	var mu sync.Mutex // guards hist.Txns and violations
	var violations []Violation
	var wg sync.WaitGroup

	stop := make(chan struct{})
	if cfg.churn {
		wg.Add(1)
		go func() {
			defer wg.Done()
			crng := rand.New(rand.NewSource(mix(seed, round*1000+901)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				blk, err := plat.Heap.NVPreMalloc(4096 * (1 + crng.Intn(2)))
				if err != nil {
					continue
				}
				if crng.Intn(2) == 0 {
					if err := plat.Heap.NVMallocSetUsedFlag(blk); err == nil {
						_ = plat.Heap.NVFree(blk)
					}
				} else {
					_ = plat.Heap.NVFree(blk)
				}
			}
		}()
	}
	if cfg.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx, err := d.BeginRead()
				if err != nil {
					continue
				}
				_ = rtx.Scan("t", func(k, v []byte) bool { return true })
				rtx.Close()
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			wrng := rand.New(rand.NewSource(mix(seed, round*1000+w)))
			// The worker's private model of its own keyspace: base plus
			// every transaction it has issued (journal total order means
			// its own writes are visible to it after commit).
			model := restrict(base, w)
			committed := 0
			for i := 0; i < txnsPer; i++ {
				rollback := wrng.Intn(100) < 15
				idx := committed + 1
				ops := genOps(wrng, w, round, idx)
				tx, err := d.Begin()
				if err != nil {
					// Backpressure outcomes are legal on a tiny heap: ErrBusy
					// means the admission stall hit its deadline (nothing
					// started — try the next transaction), ErrDegraded means
					// the engine latched read-only (stop writing). A raw
					// heapo.ErrNoSpace still falls through to the violation.
					if errors.Is(err, db.ErrBusy) {
						continue
					}
					if errors.Is(err, db.ErrDegraded) {
						return
					}
					mu.Lock()
					if !plat.CrashTriggered() {
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "begin: " + err.Error()})
					}
					mu.Unlock()
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
				if !bad && wrng.Intn(2) == 0 {
					// Read-your-writes check inside the transaction.
					k := randKey(wrng, w)
					want, wantOK := expect(model, ops, k)
					got, gotOK, gerr := tx.Get("t", []byte(k))
					if gerr == nil && (gotOK != wantOK || (wantOK && string(got) != want)) {
						if !plat.CrashTriggered() {
							mu.Lock()
							violations = append(violations, Violation{Kind: "error", Worker: w,
								Detail: fmt.Sprintf("read-your-writes mismatch on %q", k)})
							mu.Unlock()
						}
					}
				}
				if bad || rollback {
					tx.Rollback()
					if bad && !plat.CrashTriggered() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "txn op: " + err.Error()})
						mu.Unlock()
						return
					}
					continue
				}
				err = tx.Commit()
				if err != nil && (errors.Is(err, db.ErrBusy) || errors.Is(err, db.ErrDegraded)) {
					// Clean backpressure failure: ErrLogFull is pre-mutation,
					// so nothing of this transaction reached the journal —
					// it is a rollback, not a ghost, and stays out of the
					// oracle history. ErrBusy retries; ErrDegraded ends the
					// worker (the engine is read-only until the next reboot).
					if errors.Is(err, db.ErrDegraded) {
						return
					}
					continue
				}
				if err != nil && !errors.Is(err, db.ErrCheckpointDeferred) {
					if !plat.CrashTriggered() {
						mu.Lock()
						violations = append(violations, Violation{Kind: "error", Worker: w,
							Detail: "commit: " + err.Error()})
						mu.Unlock()
					}
					// Post-crash ghost failure: the outcome is uncertain;
					// record the txn as unacknowledged so the oracle treats
					// it as may-be-either.
					mu.Lock()
					hist.Txns = append(hist.Txns, Txn{Worker: w, Index: idx, Ops: ops})
					mu.Unlock()
					return
				}
				// Acked iff the commit completed before the crash instant
				// froze the durable image; checking after Commit returns
				// can only under-claim (safe direction).
				acked := !plat.CrashTriggered()
				committed = idx
				for _, op := range ops {
					if op.Delete {
						delete(model, op.Key)
					} else {
						model[op.Key] = op.Value
					}
				}
				mu.Lock()
				hist.Txns = append(hist.Txns, Txn{
					Worker: w, Index: idx, Seq: tx.Seq(), Acked: acked, Ops: ops,
				})
				mu.Unlock()
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	return hist, violations
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
