package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// runBench drives the command in-process and returns its exit code and
// output streams.
func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nosuch"},
		{"shards"}, // the extension sweeps are per-layer tests, not sections
		{"table1", "fig5"},
		{"-json", "out.json", "fig5"},
		{"-nosuch", "fig5"},
		{"-txns", "x", "table1"},
	} {
		if code, stdout, stderr := runBench(t, args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, nothing run, a reason", args, code, stdout, stderr)
		}
	}
}

func TestSectionPrintsAndExits0(t *testing.T) {
	code, stdout, stderr := runBench(t, "-txns", "40", "groupcommit")
	if code != 0 || stderr != "" || !strings.Contains(stdout, "Group-commit ablation") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestAllIsEverySectionInOrder runs each section alone at one
// transaction per measurement, then "all": its output is each section's,
// under its header, in table order. The degenerate one-transaction
// measurements still print finite numbers.
func TestAllIsEverySectionInOrder(t *testing.T) {
	var want strings.Builder
	for _, e := range table {
		t.Run(e.name, func(t *testing.T) {
			code, stdout, stderr := runBench(t, "-txns", "1", e.name)
			if code != 0 || stderr != "" || stdout == "" {
				t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
			}
			if strings.Contains(stdout, "NaN") || strings.Contains(stdout, "Inf") {
				t.Errorf("printed a NaN or Inf:\n%s", stdout)
			}
			fmt.Fprintf(&want, "==== %s ====\n%s\n", e.name, stdout)
		})
	}
	if t.Failed() {
		return
	}
	code, stdout, stderr := runBench(t, "-txns", "1", "all")
	if code != 0 || stderr != "" {
		t.Fatalf("all: exit %d, stderr %q", code, stderr)
	}
	if stdout != want.String() {
		t.Errorf("all differs from its sections run one by one:\n%s\nwant:\n%s", stdout, want.String())
	}
}

// TestHelpExits0 asks for help: it is no usage error, and the usage line
// names every section and "all".
func TestHelpExits0(t *testing.T) {
	code, stdout, stderr := runBench(t, "-h")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want 0 and nothing run", code, stdout)
	}
	for _, e := range table {
		if !strings.Contains(stderr, e.name+"|") {
			t.Errorf("usage does not name section %s:\n%s", e.name, stderr)
		}
	}
	if !strings.Contains(stderr, "|all") {
		t.Errorf("usage does not name all:\n%s", stderr)
	}
}
