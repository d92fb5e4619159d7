// Command nvwal-bench regenerates the paper's evaluation (§5) on the
// simulated platforms: one subcommand per table/figure, plus "all".
//
// Usage:
//
//	nvwal-bench [-txns N] table1|table2|fig5|fig6|fig7|fig8|fig9|...|concurrent|all
//
// Throughput numbers are virtual-time based and deterministic; see
// EXPERIMENTS.md for the paper-versus-measured comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mobibench"
)

func main() {
	txns := flag.Int("txns", 0, "transactions per measurement (0 = experiment default)")
	jsonOut := flag.String("json", "", "also write the experiment's result as JSON to this file (checkpoint, pressure, shards, mvcc, repl, slow and allocs only)")
	gate := flag.String("gate", "", "baseline JSON to gate against (allocs only): exit non-zero when allocs/op regress above it")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nvwal-bench [-txns N] [-json FILE] [-gate FILE] table1|table2|fig5|fig6|fig7|fig8|fig9|persistency|prealloc|baselines|cschecksum|groupcommit|concurrent|checkpoint|pressure|shards|mvcc|repl|slow|allocs|all")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *txns, *jsonOut, *gate); err != nil {
		fmt.Fprintln(os.Stderr, "nvwal-bench:", err)
		os.Exit(1)
	}
}

// writeJSON dumps v indented to path, stamped with provenance meta
// (git SHA, date, Go version) so a checked-in result answers "built
// from what, when, with which toolchain" by itself. Readers that
// unmarshal into result structs ignore the extra key.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err == nil {
		doc["meta"] = map[string]string{
			"git_sha":    gitSHA(),
			"date":       time.Now().UTC().Format(time.RFC3339),
			"go_version": runtime.Version(),
		}
		if stamped, err := json.MarshalIndent(doc, "", "  "); err == nil {
			data = stamped
		}
	} else if indented, ierr := json.MarshalIndent(v, "", "  "); ierr == nil {
		data = indented // non-object result: write unstamped
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitSHA reports the working tree's commit, "unknown" outside a repo.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// gateAllocs compares the measured allocation audit against a recorded
// baseline and fails on regression. Allocs/op is near-deterministic for
// a fixed op count, but map-growth boundaries and pool warmup shift it
// by a fraction; the gate allows 10% + 2 allocs of slack — and, on
// bytes/op, 10% + half a page, so one page-sized copy creeping back into
// a path shows — before calling a regression, and ignores latency
// (wall-clock, machine-dependent).
func gateAllocs(r *experiments.CommitAllocsResult, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading allocs baseline: %w", err)
	}
	var base experiments.CommitAllocsResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing allocs baseline %s: %w", path, err)
	}
	var failures []string
	for _, want := range base.Rows {
		got := r.Row(want.Path)
		if got == nil {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", want.Path))
			continue
		}
		if limit := want.AllocsPerOp*1.10 + 2; got.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.2f allocs/op exceeds baseline %.2f (limit %.2f)",
				want.Path, got.AllocsPerOp, want.AllocsPerOp, limit))
		}
		if limit := want.BytesPerOp*1.10 + 2048; got.BytesPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: %.0f bytes/op exceeds baseline %.0f (limit %.0f)",
				want.Path, got.BytesPerOp, want.BytesPerOp, limit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocs/op regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func run(name string, txns int, jsonOut, gate string) error {
	out := os.Stdout
	switch name {
	case "table1":
		r, err := experiments.Table1(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "table2":
		r, err := experiments.Table2(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "fig5":
		r, err := experiments.Figure5(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "fig6":
		r, err := experiments.Figure5(txns)
		if err != nil {
			return err
		}
		r.WriteFigure6(out)
	case "fig7":
		for _, op := range []mobibench.Op{mobibench.Insert, mobibench.Update, mobibench.Delete} {
			r, err := experiments.Figure7(op, txns)
			if err != nil {
				return err
			}
			r.Print(out)
			fmt.Fprintln(out)
		}
	case "fig8":
		r, err := experiments.Figure8()
		if err != nil {
			return err
		}
		r.Print(out)
	case "fig9":
		r, err := experiments.Figure9(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "persistency":
		r, err := experiments.Persistency(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "prealloc":
		r, err := experiments.Prealloc(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "baselines":
		r, err := experiments.Baselines(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "cschecksum":
		r, err := experiments.ChecksumStudy(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "groupcommit":
		r, err := experiments.GroupCommit(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "concurrent":
		r, err := experiments.Concurrent(txns)
		if err != nil {
			return err
		}
		r.Print(out)
	case "checkpoint":
		r, err := experiments.CheckpointStall(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "pressure":
		r, err := experiments.Pressure(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "shards":
		r, err := experiments.Shards(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "mvcc":
		r, err := experiments.MVCC(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "repl":
		r, err := experiments.Repl(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "slow":
		r, err := experiments.Slow(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
	case "allocs":
		r, err := experiments.CommitAllocs(txns)
		if err != nil {
			return err
		}
		r.Print(out)
		if jsonOut != "" {
			if err := writeJSON(jsonOut, r); err != nil {
				return err
			}
		}
		if gate != "" {
			if err := gateAllocs(r, gate); err != nil {
				return err
			}
			fmt.Fprintf(out, "allocs/op gate passed against %s\n", gate)
		}
	case "all":
		for _, sub := range []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "persistency", "prealloc", "baselines", "cschecksum", "groupcommit", "concurrent", "checkpoint", "pressure", "shards", "mvcc", "repl", "slow", "allocs"} {
			fmt.Fprintf(out, "==== %s ====\n", sub)
			if err := run(sub, txns, jsonOut, gate); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
