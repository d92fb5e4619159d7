// Command nvwal-fuzz is the seeded crash-consistency fuzzer for the
// NVWAL stack: randomized workloads against the full db engine on a
// simulated platform, power failures injected at operation boundaries
// and mid-operation, recovery checked against a model oracle.
//
// Usage:
//
//	nvwal-fuzz -duration 60s              # fuzz for a minute
//	nvwal-fuzz -seed 7 -steps 100         # 100 chains from seed 7
//	nvwal-fuzz -seed 7 -step 42           # replay exactly chain 42
//	nvwal-fuzz -faults -duration 60s      # media-fault chains (weak durability)
//	nvwal-fuzz -heap-pages 64 -duration 60s  # tiny-heap exhaustion chains
//	nvwal-fuzz -shards 4 -duration 60s    # sharded chains with cross-shard 2PC
//	nvwal-fuzz -mvcc -duration 60s        # overlapping-keyspace MVCC chains
//	nvwal-fuzz -repl -duration 60s        # 3-node replication chains with failover
//	nvwal-fuzz -slow -duration 60s        # gray-failure chains: everything slow, nothing fail-stop
//	nvwal-fuzz -bug -duration 10s         # prove detection of a planted bug
//
// Every violation prints a deterministic repro command and, unless
// -shrink=false, a minimized repro with the smallest round count and
// per-round transaction budget that still fire; the exit code is 1
// when any violation was found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/torture"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse args, run the chains, print the report.
// It returns the exit code: 0 clean, 1 on any violation, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvwal-fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "master seed; chain seeds derive from it")
		step      = fs.Int("step", -1, "replay exactly this chain index (-1 = run many)")
		steps     = fs.Int("steps", 0, "number of chains to run (0 = until -duration)")
		duration  = fs.Duration("duration", 0, "wall-clock fuzzing budget (0 = until -steps)")
		workers   = fs.Int("workers", 0, "force concurrent writers per chain (0 = randomized)")
		jsonOut   = fs.Bool("json", false, "emit the report as JSON on stdout")
		bug       = fs.Bool("bug", false, "enable the planted commit-ordering bug (self-test)")
		faults    = fs.Bool("faults", false, "media-fault chains: NVRAM bit flips/stuck lines/read errors + device EIO/torn sectors (durability invariant waived)")
		shrink    = fs.Bool("shrink", true, "minimize the first violation to a smaller repro")
		maxRounds = fs.Int("max-rounds", 0, "clamp crash rounds per chain (repro/shrink)")
		maxTxns   = fs.Int("max-txns", 0, "clamp per-round txns per worker (repro/shrink)")
		heapPages = fs.Int("heap-pages", 0, "shrink the NVRAM heap to this many pages: exercises exhaustion backpressure (ErrBusy/ErrDegraded become legal outcomes)")
		shards    = fs.Int("shards", 1, "run sharded chains over this many engine shards: shard-local + cross-shard 2PC transactions, coordinator-stage crashes")
		mvcc      = fs.Bool("mvcc", false, "run overlapping-keyspace MVCC chains: concurrent sessions over one shared keyspace, first-committer-wins conflicts, seq-order oracle")
		slowMode  = fs.Bool("slow", false, "run gray-failure chains: 3-node cluster where storage, fsync and links get slow (never fail-stop), replica quarantine/resync active, liveness + convergence oracle")
		replMode  = fs.Bool("repl", false, "run replication chains: 3-node cluster serving clients through a faulty network, primary crash-failovers with epoch fencing, acked-write durability oracle")
		verbose   = fs.Bool("v", false, "log each chain's configuration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := torture.Options{
		Seed:      *seed,
		Step:      *step,
		Steps:     *steps,
		Duration:  *duration,
		Workers:   *workers,
		Bug:       *bug,
		Faults:    *faults,
		MaxRounds: *maxRounds,
		MaxTxns:   *maxTxns,
		HeapPages: *heapPages,
		Shards:    *shards,
		MVCC:      *mvcc,
		Repl:      *replMode,
		Slow:      *slowMode,
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "nvwal-fuzz:", msg)
		return 2
	}
	if *shards > 1 && (*bug || *faults || *heapPages > 0 || *mvcc || *replMode) {
		return usage("-shards > 1 is incompatible with -bug, -faults, -heap-pages, -mvcc and -repl")
	}
	if *mvcc && (*bug || *faults || *replMode) {
		return usage("-mvcc is incompatible with -bug, -faults and -repl")
	}
	if *replMode && (*bug || *faults || *heapPages > 0) {
		return usage("-repl is incompatible with -bug, -faults and -heap-pages")
	}
	if *slowMode && (*bug || *faults || *heapPages > 0 || *mvcc || *replMode || *shards > 1) {
		return usage("-slow is incompatible with every other chain mode")
	}
	if opts.Steps == 0 && opts.Duration == 0 && opts.Step < 0 {
		opts.Duration = 30 * time.Second
	}
	if *verbose && !*jsonOut {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	rep := torture.Run(opts)
	if len(rep.Violations) > 0 && *shrink && *step < 0 {
		// Replays of an explicit -step keep the chain as given; fresh
		// findings get shrunk to the smallest still-violating clamp.
		if mv, ok := torture.Minimize(opts, rep.Violations[0]); ok {
			rep.Minimized = &mv
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "nvwal-fuzz: encode:", err)
			return 2
		}
	} else {
		fmt.Fprintf(stdout, "nvwal-fuzz: %d chains, %d crash rounds, %d txns in %s\n",
			rep.Chains, rep.Rounds, rep.Txns, rep.Elapsed.Round(time.Millisecond))
		if opts.Faults {
			fmt.Fprintf(stdout, "  media faults: %d damaged rounds salvaged, %d chains ended degraded read-only\n",
				rep.Damaged, rep.Degraded)
		}
		for _, v := range rep.Violations {
			fmt.Fprintf(stdout, "VIOLATION [%s] worker=%d step=%d round=%d\n  chain: %s\n  %s\n  repro: %s\n",
				v.Kind, v.Worker, v.Step, v.Round, v.Chain, v.Detail, v.Repro)
		}
		if rep.Minimized != nil {
			fmt.Fprintf(stdout, "minimal repro (round %d): %s\n", rep.Minimized.Round, rep.Minimized.Repro)
		}
		if len(rep.Violations) == 0 {
			fmt.Fprintln(stdout, "no oracle violations")
		}
	}
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}
