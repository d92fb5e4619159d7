// Command nvwal-fuzz is the seeded crash-consistency fuzzer for the
// NVWAL stack: randomized workloads against the full db engine on a
// simulated platform, power failures injected at operation boundaries
// and mid-operation, recovery checked against a model oracle.
//
// A run's chains come from one row of the driver's mode table
// (internal/torture, DESIGN.md §12) — plain by default, or the row
// -mvcc, -shards N, -repl or -slow selects — reshaped by the modifiers
// the row accepts (-bug, -faults, -heap-pages; -workers, -max-rounds and
// -max-txns fit every row). A set no row accepts exits 2.
//
// Usage:
//
//	nvwal-fuzz -duration 60s              # plain chains for a minute
//	nvwal-fuzz -seed 7 -steps 100         # 100 chains from seed 7
//	nvwal-fuzz -seed 7 -step 42           # replay exactly chain 42
//	nvwal-fuzz -faults -duration 60s      # plain + media faults (weak durability)
//	nvwal-fuzz -heap-pages 64 -duration 60s  # plain + tiny-heap exhaustion
//	nvwal-fuzz -shards 4 -duration 60s    # sharded chains with cross-shard 2PC
//	nvwal-fuzz -mvcc -duration 60s        # overlapping-keyspace MVCC chains (+ -heap-pages)
//	nvwal-fuzz -repl -duration 60s        # 3-node replication chains with failover
//	nvwal-fuzz -slow -duration 60s        # gray-failure chains: everything slow, nothing fail-stop
//	nvwal-fuzz -bug -duration 10s         # self-test: the planted bug must be caught;
//	                                      # also -bug -mvcc and -bug -shards N
//
// Every violation prints the command that replays its chain — every
// option that shaped it, starting `nvwal-fuzz -seed S -step K` — and,
// unless -shrink=false, a minimized repro with the smallest round count
// and per-round transaction budget that still fire (crash-chain rows;
// cluster chains run in real time and are reported unshrunk). With -v
// (or in the -json report) a violation also carries its evidence: the
// salvage events, the round's history, survivor and base. The exit code
// is 1 when any violation was found.
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
	var opts torture.Options
	fs.Int64Var(&opts.Seed, "seed", 1, "master seed; chain seeds derive from it")
	fs.IntVar(&opts.Step, "step", -1, "replay exactly this chain index (-1 = run many)")
	fs.IntVar(&opts.Steps, "steps", 0, "number of chains to run (0 = until -duration)")
	fs.DurationVar(&opts.Duration, "duration", 0, "wall-clock fuzzing budget (0 = until -steps)")
	fs.IntVar(&opts.Workers, "workers", 0, "force concurrent writers per chain (0 = randomized)")
	fs.BoolVar(&opts.Bug, "bug", false, "enable the planted commit-ordering bug (self-test of the plain, -mvcc and -shards oracles)")
	fs.BoolVar(&opts.Faults, "faults", false, "media-fault chains: NVRAM bit flips/stuck lines/read errors + device EIO/torn sectors (durability invariant waived)")
	fs.IntVar(&opts.MaxRounds, "max-rounds", 0, "clamp crash rounds per chain (repro/shrink)")
	fs.IntVar(&opts.MaxTxns, "max-txns", 0, "clamp per-round txns per worker (repro/shrink)")
	fs.IntVar(&opts.HeapPages, "heap-pages", 0, "shrink the NVRAM heap to this many pages: exercises exhaustion backpressure (ErrBusy/ErrDegraded become legal outcomes)")
	fs.IntVar(&opts.Shards, "shards", 1, "run sharded chains over this many engine shards: shard-local + cross-shard 2PC transactions, coordinator-stage crashes")
	fs.BoolVar(&opts.MVCC, "mvcc", false, "run overlapping-keyspace MVCC chains: concurrent sessions over one shared keyspace, first-committer-wins conflicts, seq-order oracle")
	fs.BoolVar(&opts.Slow, "slow", false, "run gray-failure chains: 3-node cluster where storage, fsync and links get slow (never fail-stop), replica quarantine/resync active, liveness + convergence oracle")
	fs.BoolVar(&opts.Repl, "repl", false, "run replication chains: 3-node cluster serving clients through a faulty network, primary crash-failovers with epoch fencing, acked-write durability oracle")
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout")
	shrink := fs.Bool("shrink", true, "minimize the first violation to a smaller repro")
	verbose := fs.Bool("v", false, "log each chain's configuration, and print a violation's evidence")
	if err := fs.Parse(args); err != nil {
		return 2
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
	if rep.Chains == 0 && len(rep.Violations) > 0 {
		// Refused before any chain ran: no row of the mode table accepts
		// this set of options.
		fmt.Fprintln(stderr, "nvwal-fuzz:", rep.Violations[0].Detail)
		return 2
	}
	if len(rep.Violations) > 0 && *shrink && opts.Step < 0 {
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
			if *verbose {
				for _, line := range v.Evidence {
					fmt.Fprintln(stdout, "    "+line)
				}
			}
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
