package torture

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Options configures a fuzzing run: where it starts and stops, which
// row of the mode table (modes.go) its chains come from, and the
// modifiers that reshape them. Which modifiers a row accepts is the
// table's business; Run refuses a combination no row accepts.
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
	// (core.Config.UnsafeEarlyCommitMark) to prove the crash-chain
	// oracles catch ordering violations.
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
	// crashes at protocol stages (see sharded.go).
	Shards int
	// MVCC runs overlapping-keyspace chains instead: every worker writes
	// the SAME shared keyspace through BeginConcurrent sessions (plus a
	// fraction of legacy transactions), ErrConflict is a legal retried
	// outcome, and recovery is checked by the seq-order oracle
	// (VerifyMVCC) rather than per-worker prefix matching, which is
	// unsound when keyspaces overlap.
	MVCC bool
	// Repl runs replication chains instead: a 3-node cluster (primary +
	// two WAL-shipping replicas) serving concurrent clients through the
	// simulated network while the chain degrades links, partitions the
	// shipping stream, crash-fails primaries and promotes replicas under
	// new fencing epochs. Outcome-based oracle (see repl.go): acked
	// writes survive failover, indeterminate writes are all-or-nothing,
	// quiesced replicas converge exactly.
	Repl bool
	// Slow runs gray-failure chains instead: the -repl 3-node topology
	// with every layer's slow-fault injection armed (NVRAM remap
	// stalls, device GC pauses, fsync hangs, link bufferbloat) and the
	// primary's ack-latency quarantine active — but nothing
	// fail-stops. The oracle adds LIVENESS to -repl's safety checks:
	// every client op must resolve within a bounded real time, and the
	// healed cluster must converge (quarantined replicas must resync
	// and re-admit).
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
	// Evidence is what the verdict rests on, collected when the chain
	// failed (see chain.evidence); carried by a chain's first violation.
	Evidence []string `json:"evidence,omitempty"`
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// clampTxns applies the MaxTxns modifier to a sampled transaction budget.
func (o Options) clampTxns(n int) int {
	if o.MaxTxns > 0 && n > o.MaxTxns {
		return o.MaxTxns
	}
	return n
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
// every failure is a real finding with a printed repro. An option set no
// row of the mode table accepts runs nothing and reports one "error"
// violation naming the conflict.
func Run(opts Options) Report {
	start := time.Now()
	rep := Report{}
	first := 0
	if opts.Step >= 0 {
		first = opts.Step
		if opts.Steps == 0 && opts.Duration == 0 {
			opts.Steps = 1
		}
	}
	m, err := modeFor(opts)
	if err != nil {
		c := &chain{opts: opts, step: first}
		c.failf(-1, "error", "%v", err)
		rep.Violations = c.res.violations
		return rep
	}
	for n := 0; ; n++ {
		if opts.Steps > 0 && n >= opts.Steps {
			break
		}
		if opts.Duration > 0 && time.Since(start) >= opts.Duration {
			break
		}
		res := runChain(m, opts, first+n)
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

// chainResult is what one chain adds to the report.
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

// chain is one chain in flight: its coordinates, its sampled
// configuration, what it has found so far, and — for the row hooks
// that need more than the loop's interfaces — the concrete machine and
// engine under it.
type chain struct {
	mode  *mode
	opts  Options
	step  int
	seed  int64      // the chain rng's seed and the root of every worker stream
	rng   *rand.Rand // the chain's own draws: its configuration, then each round's plan
	cfg   chainCfg
	label string // cfg as the row describes it: the chain line of -v and of every violation

	mu  sync.Mutex // guards res.violations: cluster clients fail concurrently
	res chainResult

	crashState
}

// runChain runs chain number step of the run opts describes, as a row of
// the mode table: derive the chain's seed, sample its configuration in
// the row's own draw order, apply the modifiers, then hand over to the
// row's loop.
func runChain(m *mode, opts Options, step int) chainResult {
	c := &chain{mode: m, opts: opts, step: step, seed: mix(opts.Seed, step)}
	c.rng = rand.New(rand.NewSource(c.seed))
	c.cfg = m.sample(c.rng, opts)
	c.cfg.applyModifiers(opts)
	c.label = m.describe(c.cfg)
	opts.logf("chain %d (seed %d): %s", step, c.seed, c.label)
	m.run(c)
	return c.res
}

// fail records one violation against the chain.
func (c *chain) fail(round int, v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.res.violations = append(c.res.violations, ViolationReport{
		Step: c.step, Seed: c.opts.Seed, Round: round, Chain: c.label,
		Kind: v.Kind, Worker: v.Worker, Detail: v.Detail, Repro: reproCmd(c.opts, c.step),
	})
}

// failf records a violation no single worker owns.
func (c *chain) failf(round int, kind, format string, args ...any) {
	c.fail(round, Violation{Kind: kind, Worker: -1, Detail: fmt.Sprintf(format, args...)})
}

func (c *chain) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.res.violations) > 0
}

// reproCmd renders the command that replays chain step of a run under
// opts: every option that shapes a chain, in one canonical order. An
// option left out here is a repro that names a different chain — a
// forced worker count, say, skips a draw in the sampler.
func reproCmd(opts Options, step int) string {
	cmd := fmt.Sprintf("nvwal-fuzz -seed %d -step %d", opts.Seed, step)
	for _, o := range []struct {
		flag string
		set  bool
		n    int // the flag's argument; 0 for a bare flag
	}{
		{"-mvcc", opts.MVCC, 0},
		{"-shards", opts.Shards > 1, opts.Shards},
		{"-repl", opts.Repl, 0},
		{"-slow", opts.Slow, 0},
		{"-bug", opts.Bug, 0},
		{"-faults", opts.Faults, 0},
		{"-heap-pages", opts.HeapPages > 0, opts.HeapPages},
		{"-workers", opts.Workers > 0, opts.Workers},
		{"-max-rounds", opts.MaxRounds > 0, opts.MaxRounds},
		{"-max-txns", opts.MaxTxns > 0, opts.MaxTxns},
	} {
		switch {
		case !o.set:
		case o.n > 0:
			cmd += fmt.Sprintf(" %s %d", o.flag, o.n)
		default:
			cmd += " " + o.flag
		}
	}
	return cmd
}

// maxEvidence bounds the lines one violation carries.
const maxEvidence = 200

// evidence renders what a failed crash round's verdict rests on —
// salvage events, the round's history with seq/acked, the cross-shard
// records, the survivor and the base it started from — enough to
// separate a real invariant breach from an oracle soundness gap without
// re-instrumenting (both past oracle bugs were found this way). It runs
// only when a chain fails, so a clean chain pays nothing for it.
func (c *chain) evidence(log *roundLog, survivor, base map[string]string) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, ev := range c.mode.salvage(c) {
		add("salvage: %s", ev)
	}
	for _, t := range log.hist.Txns {
		add("txn w=%d idx=%d seq=%d acked=%v ops=%d", t.Worker, t.Index, t.Seq, t.Acked, len(t.Ops))
	}
	for _, x := range log.crosses {
		add("cross vwA=%d idxA=%d vwB=%d idxB=%d staged=%v", x.vwA, x.idxA, x.vwB, x.idxB, x.expect != nil)
	}
	for _, k := range sortedKeys(survivor) {
		add("surv %q=%q", k, clip(survivor[k]))
	}
	for _, k := range sortedKeys(base) {
		add("base %q=%q", k, clip(base[k]))
	}
	if more := len(out) - (maxEvidence - 1); more > 1 {
		out = append(out[:maxEvidence-1], fmt.Sprintf("… %d more lines", more))
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
