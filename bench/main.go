// Command bench is the repository's one benchmark: four workloads
// driven through the public APIs (db, server.Client, netsim,
// repl.Cluster) from client call to NVRAM cell, measured on both of
// the system's clocks, every answer checked against a model, each
// repetition ended by a power cut and a recovery. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one repetition (the driver's contract)
//	bench all [-reps R] [-out FILE] [--seed N --seconds S]  every workload R times, in child processes
//	bench compare A.json B.json                            two `bench all` outputs, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// resultsDir receives traces and `bench all` outputs.
const resultsDir = "bench/results"

func main() {
	if err := loadContract("BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(runAll(os.Args[2:]))
		case "compare":
			os.Exit(runCompare(os.Args[2:]))
		}
	}
	os.Exit(runOne(os.Args[1:]))
}

func oneFlags(fs *flag.FlagSet, cfg *config) {
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op stream, the values and the power cut")
	fs.Float64Var(&cfg.seconds, "seconds", float64(contract.RunSeconds), "length of the measured window")
	fs.Uint64Var(&cfg.ops, "ops", 0, "fix the window's op count instead of its length (virtual metrics then repeat exactly)")
}

// runOne is one repetition in this process. The last line of standard
// output is the result as one JSON object.
func runOne(args []string) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	oneFlags(fs, &cfg)
	fs.StringVar(&cfg.workload, "workload", "", "embed-write | embed-session-mix | serve-tcp | serve-repl-sim")
	trace := fs.Int("trace", 0, "1: a traced repetition, reporting the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace, cfg.traceDir = *trace != 0, resultsDir
	if fs.NArg() > 0 || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(cfg, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printResult(cfg config, res *result) {
	fmt.Printf("workload %s  seed %d  trace %v\n", cfg.workload, cfg.seed, cfg.trace)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range res.notes {
		fmt.Println(" ", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a map of floats and strings always marshals once NaN/Inf are excluded; run() marks those incorrect
	}
	fmt.Println(string(line))
}
