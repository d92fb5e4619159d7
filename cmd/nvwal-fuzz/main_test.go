package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFuzzExitCodes drives run, the command minus os.Exit, through its
// three outcomes: a clean cluster run exits 0 and says so, the planted
// commit-ordering bug is caught within a small step budget and exits 1 with
// a repro line (and, under -v, the evidence), and bad usage — an unknown
// flag, a set of options no row of the mode table accepts — exits 2 with
// nothing on stdout and the refusal, as the torture package words it, on
// stderr.
func TestFuzzExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string
	}{
		{"repl-clean", []string{"-repl", "-steps", "2", "-seed", "1"}, 0, "no oracle violations", ""},
		{"bug-caught", []string{"-bug", "-steps", "40", "-seed", "1", "-shrink=false"}, 1, "repro: nvwal-fuzz -seed 1 -step", ""},
		{"slow-clean", []string{"-slow", "-step", "0", "-seed", "1", "-max-txns", "3"}, 0, "no oracle violations", ""},
		{"bug-evidence", []string{"-bug", "-workers", "1", "-steps", "40", "-seed", "7", "-shrink=false", "-v"}, 1, "\n    txn w=0 idx=1 seq=", "chain 0 (seed "},
		{"bad-flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
		{"bad-modifier", []string{"-repl", "-bug", "-heap-pages", "24"}, 2, "", "nvwal-fuzz: -repl is incompatible with -bug, -heap-pages\n"},
		{"two-rows", []string{"-shards", "4", "-mvcc"}, 2, "", "nvwal-fuzz: -mvcc is incompatible with -shards\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.out) || (tc.out == "" && stdout.Len() != 0) {
				t.Errorf("stdout = %q, want it to contain %q", &stdout, tc.out)
			}
			if !strings.Contains(stderr.String(), tc.errOut) || (tc.errOut == "" && stderr.Len() != 0) {
				t.Errorf("stderr = %q, want it to contain %q", &stderr, tc.errOut)
			}
		})
	}
}

// TestPrintedReproReplaysItsChain takes the repro line the command
// prints for a planted-bug finding — on each row that accepts -bug, with
// and without the options that shift the sampler's draws — feeds it back
// through the command's own flag set and expects the chain it was
// printed for: the same sampled chain line, and on a one-worker chain
// the same violation again.
func TestPrintedReproReplaysItsChain(t *testing.T) {
	// lastChain is the sampled line of the last chain a -v run started.
	lastChain := func(stderr string) string {
		line := ""
		for _, l := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(l, "chain ") && strings.Contains(l, " (seed ") {
				line = l
			}
		}
		return line
	}
	violation := func(stdout string) string {
		_, rest, _ := strings.Cut(stdout, "VIOLATION ")
		verdict, _, _ := strings.Cut(rest, "\n  repro: ")
		return verdict
	}
	for _, flags := range [][]string{
		{"-bug"},
		{"-bug", "-workers", "1"},
		{"-bug", "-workers", "1", "-max-rounds", "3", "-max-txns", "6"},
		{"-bug", "-workers", "3", "-heap-pages", "24"},
		{"-bug", "-mvcc"},
		{"-bug", "-shards", "4"},
		{"-bug", "-shards", "4", "-workers", "1"},
	} {
		t.Run(strings.Join(flags, ""), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-seed", "7", "-steps", "60", "-shrink=false", "-v"}, flags...)
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Fatalf("planted bug not caught (exit %d)\nstdout: %s", code, &stdout)
			}
			_, repro, ok := strings.Cut(stdout.String(), "\n  repro: nvwal-fuzz ")
			if !ok {
				t.Fatalf("no repro line in %s", &stdout)
			}
			repro, _, _ = strings.Cut(repro, "\n")
			found, chain := violation(stdout.String()), lastChain(stderr.String())

			stdout.Reset()
			stderr.Reset()
			code := run(append(strings.Fields(repro), "-v"), &stdout, &stderr)
			if code == 2 {
				t.Fatalf("printed repro %q is not a valid command line: %s", repro, &stderr)
			}
			if got := lastChain(stderr.String()); got != chain || chain == "" {
				t.Errorf("repro %q\n\tprinted for %q\n\treplays    %q", repro, chain, got)
			}
			if strings.Contains(repro, "-workers 1") && !strings.Contains(repro, "-mvcc") {
				if got := violation(stdout.String()); code != 1 || got != found {
					t.Errorf("repro %q: exit %d, violation %q; found as %q", repro, code, got, found)
				}
			}
		})
	}
}
