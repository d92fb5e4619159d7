package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFuzzExitCodes drives run, the command minus os.Exit, through its
// three outcomes: a clean replication run exits 0 and says so, the planted
// commit-ordering bug is caught within a small step budget and exits 1 with
// a repro line, and bad usage — an unknown flag, incompatible modes — exits
// 2 with nothing on stdout.
func TestFuzzExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string
	}{
		{"repl-clean", []string{"-repl", "-steps", "2", "-seed", "1"}, 0, "no oracle violations", ""},
		{"bug-caught", []string{"-bug", "-steps", "40", "-seed", "1", "-shrink=false"}, 1, "repro: nvwal-fuzz -seed 1 -step", ""},
		{"bad-flag", []string{"-no-such-flag"}, 2, "", "flag provided but not defined"},
		{"bad-mode", []string{"-repl", "-bug"}, 2, "", "-repl is incompatible"},
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
