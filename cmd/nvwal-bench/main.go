// Command nvwal-bench regenerates the paper's evaluation (§5) on the
// simulated platforms: one subcommand per section, plus "all".
//
// Usage:
//
//	nvwal-bench [-txns N] <section>|all
//
// The twelve sections are the paper's tables and figures (table1,
// table2, fig5, fig6, fig7, fig8, fig9) and its side studies:
// persistency (§4.4), prealloc (§5.4), baselines (§1/§2), cschecksum
// (§4.2) and groupcommit (§3.3). "all" prints every section in that
// order, each under a "==== name ====" header.
//
// Throughput numbers are virtual-time based and deterministic; see
// EXPERIMENTS.md for the paper-versus-measured comparison.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/mobibench"
)

// result is what an experiment returns: it prints itself.
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
// experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvwal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	txns := fs.Int("txns", 0, "transactions per measurement (0 = experiment default)")
	var names []string
	for _, e := range table {
		names = append(names, e.name)
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nvwal-bench [-txns N] %s|all\n", strings.Join(names, "|"))
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
	if i < 0 && name != "all" {
		fmt.Fprintf(stderr, "nvwal-bench: unknown experiment %q\n", name)
		return 2
	}
	for _, e := range todo {
		if name == "all" {
			fmt.Fprintf(stdout, "==== %s ====\n", e.name)
		}
		r, err := e.run(*txns)
		if err != nil {
			fmt.Fprintln(stderr, "nvwal-bench:", err)
			return 1
		}
		r.Print(stdout)
		if name == "all" {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}
