package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCrashExitCodes drives run, the command minus os.Exit: one variant
// of the single-engine matrix and one seed of the sharded matrix pass all
// of their cases and exit 0, and a variant label nobody defines exits 2
// in both matrices, with nothing on stdout and the refusal on stderr,
// instead of running zero cases.
func TestCrashExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		args        []string
		code        int
		out, errOut string
	}{
		{"one-variant", []string{"-variant", "LS", "-seeds", "1"}, 0, "\n30 cases passed, 0 failed\n", ""},
		{"sharded-one-seed", []string{"-shards", "2", "-seeds", "1"}, 0, "\n22 cases passed, 0 failed\n", ""},
		{"bogus-variant", []string{"-variant", "bogus"}, 2, "", `nvwal-crash: unknown variant "bogus"`},
		{"bogus-variant-sharded", []string{"-shards", "2", "-variant", "bogus"}, 2, "", `nvwal-crash: unknown variant "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit code %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, &stdout, &stderr)
			}
			if !strings.HasSuffix(stdout.String(), tc.out) || (tc.out == "" && stdout.Len() != 0) {
				t.Errorf("stdout = %q, want it to end %q", &stdout, tc.out)
			}
			if !strings.Contains(stderr.String(), tc.errOut) || (tc.errOut == "" && stderr.Len() != 0) {
				t.Errorf("stderr = %q, want it to contain %q", &stderr, tc.errOut)
			}
		})
	}
}
