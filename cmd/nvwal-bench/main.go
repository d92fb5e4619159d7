// Command nvwal-bench regenerates the paper's evaluation (§5) on the
// simulated platforms: one subcommand per table/figure, plus "all".
//
// Usage:
//
//	nvwal-bench [-txns N] [-json FILE] [-gate FILE] table1|table2|fig5|fig6|fig7|fig8|fig9|...|allocs|all
//
// Throughput numbers are virtual-time based and deterministic; see
// EXPERIMENTS.md for the paper-versus-measured comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/mobibench"
)

// result is what an experiment returns: it prints itself, and it is the
// value -json writes.
type result interface{ Print(io.Writer) }

// experiment is one subcommand; "all" runs every one in table order.
type experiment struct {
	name string
	run  func(txns int) (result, error)
}

var table = []experiment{
	{"table1", of(experiments.Table1)},
	{"table2", of(experiments.Table2)},
	{"fig5", of(experiments.Figure5)},
	{"fig6", func(txns int) (result, error) {
		r, err := experiments.Figure5(txns)
		return fig6{r}, err
	}},
	{"fig7", func(txns int) (result, error) {
		var f fig7
		for _, op := range []mobibench.Op{mobibench.Insert, mobibench.Update, mobibench.Delete} {
			r, err := experiments.Figure7(op, txns)
			if err != nil {
				return nil, err
			}
			f.Panels = append(f.Panels, r)
		}
		return f, nil
	}},
	{"fig8", func(int) (result, error) {
		r, err := experiments.Figure8()
		return r, err
	}},
	{"fig9", of(experiments.Figure9)},
	{"persistency", of(experiments.Persistency)},
	{"prealloc", of(experiments.Prealloc)},
	{"baselines", of(experiments.Baselines)},
	{"cschecksum", of(experiments.ChecksumStudy)},
	{"groupcommit", of(experiments.GroupCommit)},
	{"checkpoint", of(experiments.CheckpointStall)},
	{"pressure", of(experiments.Pressure)},
	{"shards", of(experiments.Shards)},
	{"mvcc", of(experiments.MVCC)},
	{"repl", of(experiments.Repl)},
	{"slow", of(experiments.Slow)},
	{"allocs", of(experiments.CommitAllocs)},
}

// of adapts an experiment's entry point to the table's signature.
func of[R result](f func(txns int) (R, error)) func(int) (result, error) {
	return func(txns int) (result, error) {
		r, err := f(txns)
		return r, err
	}
}

// fig6 prints Figure 5's measurements as the Figure 6 view.
type fig6 struct{ *experiments.Fig5Result }

func (f fig6) Print(w io.Writer) { f.WriteFigure6(w) }

// fig7 is Figure 7's three panels: insert, update, delete.
type fig7 struct{ Panels []*experiments.Fig7Result }

func (f fig7) Print(w io.Writer) {
	for _, p := range f.Panels {
		p.Print(w)
		fmt.Fprintln(w)
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the exit code: 0 done, 1 when an
// experiment fails or the allocs gate trips, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvwal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	txns := fs.Int("txns", 0, "transactions per measurement (0 = experiment default)")
	jsonOut := fs.String("json", "", "also write the experiment's result as JSON to this file")
	gate := fs.String("gate", "", "baseline JSON to gate against (allocs only): exit non-zero when allocs/op regress above it")
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nvwal-bench [-txns N] [-json FILE] [-gate FILE] %s|all\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	name, todo := fs.Arg(0), table
	i := slices.Index(names, name)
	if i >= 0 {
		todo = table[i : i+1]
	}
	var refused string
	switch {
	case i < 0 && name != "all":
		refused = fmt.Sprintf("unknown experiment %q", name)
	case name == "all" && *jsonOut != "":
		refused = "-json writes one experiment's result; name the experiment instead of all"
	case *gate != "" && name != "allocs":
		refused = "-gate applies to allocs only"
	}
	if refused != "" {
		fmt.Fprintln(stderr, "nvwal-bench:", refused)
		return 2
	}
	for _, e := range todo {
		if name == "all" {
			fmt.Fprintf(stdout, "==== %s ====\n", e.name)
		}
		if err := runOne(e, *txns, *jsonOut, *gate, stdout); err != nil {
			fmt.Fprintln(stderr, "nvwal-bench:", err)
			return 1
		}
		if name == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// runOne runs and prints one experiment, then writes its JSON and gates
// it when asked to.
func runOne(e experiment, txns int, jsonOut, gate string, stdout io.Writer) error {
	r, err := e.run(txns)
	if err != nil {
		return err
	}
	r.Print(stdout)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, r); err != nil {
			return err
		}
	}
	if gate != "" {
		if err := gateAllocs(r.(*experiments.CommitAllocsResult), gate); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "allocs/op gate passed against %s\n", gate)
	}
	return nil
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
// by a fraction; the gate allows 10% + 2 allocs of slack — except on a
// row recorded below 1 alloc/op, which may rise by 0.05 only, so one
// allocation per operation creeping back into a path that makes none
// shows — and, on bytes/op, 10% + half a page, so one page-sized copy
// creeping back shows, before calling a regression. It ignores latency
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
		got := experiments.Find(r.Rows, func(row experiments.CommitAllocsRow) bool { return row.Path == want.Path })
		if got == nil {
			failures = append(failures, fmt.Sprintf("%s: missing from current run", want.Path))
			continue
		}
		if limit := allocsLimit(want.AllocsPerOp); got.AllocsPerOp > limit {
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

// allocsLimit is the most allocs/op the gate lets a row recorded at base
// reach.
func allocsLimit(base float64) float64 {
	if base < 1 {
		return base + 0.05
	}
	return base*1.10 + 2
}
