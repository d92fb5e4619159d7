package torture

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/ext4"
	"repro/internal/memsim"
	"repro/internal/netsim"
	"repro/internal/platform"
)

// modifier is an option that reshapes whatever chain a row samples
// instead of selecting a row. The clamps and the forced worker count
// (Workers, MaxRounds, MaxTxns) are accepted by every row; these three
// are not, so each row declares the ones it takes.
type modifier uint8

const (
	modBug modifier = 1 << iota
	modFaults
	modHeapPages
)

var modifierFlags = []struct {
	bit  modifier
	flag string
	set  func(Options) bool
}{
	{modBug, "-bug", func(o Options) bool { return o.Bug }},
	{modFaults, "-faults", func(o Options) bool { return o.Faults }},
	{modHeapPages, "-heap-pages", func(o Options) bool { return o.HeapPages > 0 }},
}

// replay says what re-running a row's chain under the same coordinates
// gives back, which is what Minimize can do with a finding.
type replay int

const (
	// replayNever: real client goroutines over a faulty network in real
	// time. Findings are reported unshrunk.
	replayNever replay = iota
	// replayHeuristic: concurrent writers by construction, so a re-run
	// usually, not always, re-fires; the shrinker keeps what does.
	replayHeuristic
	// replayExact: a one-worker chain is a single goroutine on a virtual
	// clock and replays bit for bit.
	replayExact
)

// mode is one row of the fuzzer's mode table: what selects it, which
// modifiers it accepts, how its chains replay, and the few functions in
// which it genuinely differs from its neighbours — its sampler (every
// row draws in its own order, and that order is what `-seed N -step K`
// names, so samplers share helpers, never a draw sequence), its
// workload step and its oracle. Everything else exists once, in
// runChain, crashChain and clusterChain.
type mode struct {
	name     string
	flag     string             // the option that selects the row; "" for the default row
	selected func(Options) bool // nil for the default row
	accepts  modifier
	replay   replay
	maxTxns  int // largest per-round budget the row samples: the shrinker's ceiling
	sample   func(*rand.Rand, Options) chainCfg
	describe func(chainCfg) string // the chain line
	run      func(*chain)          // crashChain or clusterChain

	// Hooks of the rows crashChain runs (crash.go), in the order a round
	// meets them. anchor and settle are optional.
	boot    func(*chain) (machine, error) // build the machine, arm its faults
	open    func(*chain) (engine, error)  // open the database, or reopen it after a reboot
	anchor  func(*chain) error            // before each round
	plan    func(c *chain, window int64) roundPlan
	worker  func(c *chain, log *roundLog, w int, wrng *rand.Rand)
	settle  func(c *chain, log *roundLog) // after the writers, before the power cut
	verify  func(c *chain, log *roundLog, survivor map[string]string) []Violation
	salvage func(*chain) []string // recovery's own account, for the evidence

	// Parameters of the rows clusterChain runs (repl.go).
	cluster clusterRow
}

// modes is the table. Row order is the order -mvcc/-shards/-repl/-slow
// conflicts are reported in, nothing else.
var modes = []*mode{
	{
		name: "plain", accepts: modBug | modFaults | modHeapPages, replay: replayExact, maxTxns: 10,
		sample: samplePlain, describe: describeSingle, run: crashChain,
		boot: bootSingle, open: openSingle, anchor: anchorSingle, plan: planRound,
		worker: plainWorker, settle: settleSingle, verify: verifyPlain, salvage: salvageSingle,
	},
	{
		name: "mvcc", flag: "-mvcc", selected: func(o Options) bool { return o.MVCC },
		accepts: modBug | modHeapPages, replay: replayHeuristic, maxTxns: 10,
		sample: sampleMVCC, describe: describeSingle, run: crashChain,
		boot: bootSingle, open: openSingle, plan: planRound,
		worker: mvccWorker, settle: settleSingle, verify: verifyMVCCRound, salvage: salvageSingle,
	},
	{
		name: "sharded", flag: "-shards", selected: func(o Options) bool { return o.Shards > 1 },
		accepts: modBug, replay: replayExact, maxTxns: 8,
		sample: sampleSharded, describe: describeSharded, run: crashChain,
		boot: bootSharded, open: openSharded, plan: planShardedRound,
		worker: shardedWorker, settle: stagedCrash, verify: verifySharded, salvage: salvageSharded,
	},
	{
		// No -bug on a cluster: a frame the primary loses is masked by
		// the replica that acked it.
		name: "repl", flag: "-repl", selected: func(o Options) bool { return o.Repl },
		replay: replayNever, maxTxns: 30,
		sample: sampleRepl, describe: describeRepl, run: clusterChain,
		cluster: clusterRow{failover: true, batchPct: 20, deletePct: 15,
			converge: 10 * time.Second, chaosStep: replChaosStep},
	},
	{
		name: "slow", flag: "-slow", selected: func(o Options) bool { return o.Slow },
		replay: replayNever, maxTxns: 40,
		sample: sampleSlow, describe: describeSlow, run: clusterChain,
		cluster: clusterRow{hedgedReader: true, deletePct: 25, opBound: slowOpBound,
			converge: 15 * time.Second, chaosStep: slowChaosStep},
	},
}

// modeFor returns the row opts selects, or an error naming the options
// that row does not accept. It is the whole compatibility matrix.
func modeFor(opts Options) (*mode, error) {
	m := modes[0]
	var refused []string
	for _, row := range modes[1:] {
		switch {
		case !row.selected(opts):
		case m == modes[0]:
			m = row
		default:
			refused = append(refused, row.flag)
		}
	}
	for _, mod := range modifierFlags {
		if mod.set(opts) && m.accepts&mod.bit == 0 {
			refused = append(refused, mod.flag)
		}
	}
	if len(refused) > 0 {
		return nil, fmt.Errorf("%s is incompatible with %s", m.flag, strings.Join(refused, ", "))
	}
	return m, nil
}

// chainCfg is one chain's sampled configuration.
type chainCfg struct {
	label       string // the storage variant's name
	variant     core.Config
	shards      int // sharded row
	workers     int
	groupCommit int
	bgCkpt      bool
	churn       bool
	reader      bool
	rounds      int // crash rounds; on a cluster, primary eras
	txns        int // cluster rows: client ops per worker per era (crash rows draw a budget per round)
	ckptLimit   int
	policies    []memsim.FailPolicy
	scrubEvery  int           // background scrubber cadence (0 = off)
	ackBudget   time.Duration // cluster rows: the primary's ack-latency quarantine budget (0 = off)
	faults      faultPlan
}

// lazySyncVariants are the variants the planted bug can break: it only
// affects lazy-sync commit ordering.
var lazySyncVariants = []core.NamedConfig{
	{Name: "LS", Cfg: core.VariantLS()},
	{Name: "LS+Diff", Cfg: core.VariantLSDiff()},
	{Name: "UH+LS", Cfg: core.VariantUHLS()},
	{Name: "UH+LS+Diff", Cfg: core.VariantUHLSDiff()},
}

// strictVariants is the strict-durability rotation. SyncChecksum stays
// out of it: asynchronous commit may legally lose acknowledged
// transactions (§4.2), which the durability invariant would misreport.
var strictVariants = []core.NamedConfig{
	{Name: "E", Cfg: core.VariantE()},
	lazySyncVariants[0], lazySyncVariants[1], lazySyncVariants[2], lazySyncVariants[3],
	{Name: "SP", Cfg: core.VariantSP()},
	{Name: "EP", Cfg: core.VariantEP()},
}

// faultsVariants adds the SyncChecksum variants: -faults waives
// durability anyway, so there they join in.
var faultsVariants = append(strictVariants[:len(strictVariants):len(strictVariants)],
	core.NamedConfig{Name: "CS+Diff", Cfg: core.VariantCSDiff()},
	core.NamedConfig{Name: "UH+CS+Diff", Cfg: core.VariantUHCSDiff()})

// drawVariant is every crash row's one variant draw. The -bug and
// -faults modifiers choose the table before the draw, so they shift no
// draw after it.
func drawVariant(rng *rand.Rand, opts Options) core.NamedConfig {
	variants := strictVariants
	switch {
	case opts.Bug:
		variants = lazySyncVariants
	case opts.Faults:
		variants = faultsVariants
	}
	return variants[rng.Intn(len(variants))]
}

// drawConcurrency draws what only a multi-writer chain has: the
// group-commit width and the auxiliary goroutines.
func drawConcurrency(rng *rand.Rand, cfg *chainCfg) {
	cfg.groupCommit = []int{1, 2, cfg.workers}[rng.Intn(3)]
	cfg.bgCkpt = rng.Intn(2) == 0
	cfg.churn = rng.Intn(2) == 0
	cfg.reader = rng.Intn(2) == 0
}

// drawCkptLimit draws a crash row's checkpoint limit. Under the planted
// bug checkpoints are kept out of the way (and the draw is skipped,
// which is part of what a -bug chain's coordinates name); a tiny heap
// cannot hold a hundred log frames, so there the limit stays tight,
// routine rounds checkpoint, and the watermarks and commit-side retries
// carry the overload.
func drawCkptLimit(rng *rand.Rand, opts Options) int {
	limit := 1 << 20
	if !opts.Bug {
		limit = 24 + rng.Intn(120)
	}
	if opts.HeapPages > 0 {
		limit = 4 + rng.Intn(12)
	}
	return limit
}

// applyModifiers is the one place the modifiers that are not draws act
// on a sampled configuration.
func (cfg *chainCfg) applyModifiers(opts Options) {
	cfg.policies = []memsim.FailPolicy{memsim.FailDropAll, memsim.FailKeepCompleted, memsim.FailAdversarial}
	if opts.Bug {
		// Keep crash windows open: background checkpoints and heap
		// churn issue persist barriers that would legally re-persist
		// the queued-but-unpersisted frames the bug leaves behind, and
		// keep-completed survival hides them.
		cfg.variant.UnsafeEarlyCommitMark = true
		cfg.bgCkpt, cfg.churn = false, false
		cfg.policies = []memsim.FailPolicy{memsim.FailDropAll, memsim.FailAdversarial}
	}
	if opts.MaxRounds > 0 && cfg.rounds > opts.MaxRounds {
		cfg.rounds = opts.MaxRounds
	}
	cfg.txns = opts.clampTxns(cfg.txns)
}

// policyName names a fail policy in the chain log.
var policyName = map[memsim.FailPolicy]string{
	memsim.FailDropAll:       "drop-all",
	memsim.FailKeepCompleted: "keep-completed",
	memsim.FailAdversarial:   "adversarial",
}

// faultPlan is everything a chain injects below the engine, one field
// per layer. The two FaultConfigs carry the media faults (-faults) and
// the slow faults (-slow) alike; a zero plan injects nothing.
type faultPlan struct {
	nv  memsim.FaultConfig
	dev blockdev.FaultConfig
	fs  ext4.SlowConfig
	// link is the worst a chaos step may make one link: DropRate is the
	// ceiling of the drop rates it draws, the stall fields are used as
	// they are.
	link netsim.Config
}

// arm installs the plan's storage faults on one machine, where they
// persist across every PowerFail/Reboot of the chain. NVRAM media
// damage is confined to the heap's data pages (log blocks and the NVWAL
// header), sparing allocator metadata — the fault model's scope
// (DESIGN.md §13); block faults and slow faults cover the whole device.
// node is the machine's index in a cluster, where every node gets its
// own derived seeds so the fleet does not stall in lockstep, or -1 for a
// chain's only machine, which uses the sampled seeds as they are.
func (p faultPlan) arm(plat *platform.Platform, node int) {
	if node >= 0 {
		p.nv.Seed, p.dev.Seed, p.fs.Seed = mix(p.nv.Seed, node), mix(p.dev.Seed, node), mix(p.fs.Seed, node)
	}
	start, end := plat.Heap.HeapRange()
	p.nv.Ranges = []memsim.AddrRange{{Start: start, End: end}}
	plat.NVRAM.InjectFaults(p.nv)
	plat.Flash.InjectFaults(p.dev)
	plat.FS.InjectSlowFaults(p.fs)
}
