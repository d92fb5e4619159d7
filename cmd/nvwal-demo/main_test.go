package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestDemoSessionSurvivesPowerCut scripts a session through run, the
// command minus os.Exit. scan prints every record straight from the view
// the engine hands its callback, so the listings pin the view contract at
// the command's edge: a committed record is listed, a transaction's own
// write is listed while it is open, and a rolled-back write is gone
// before and after a power cut.
func TestDemoSessionSurvivesPowerCut(t *testing.T) {
	script := strings.Join([]string{
		"create t",
		"put t apple red",
		"scan t",
		"begin",
		"put t banana yellow",
		"scan t",
		"rollback",
		"crash",
		"scan t",
		"get t apple",
		"get t banana",
		"put t",
		"bogus",
		"quit",
		"put t cherry dark",
	}, "\n")
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(script), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	out := stdout.String()
	if got := regexp.MustCompile(`\(\d+ records\)`).FindAllString(out, -1); strings.Join(got, ",") != "(1 records),(2 records),(1 records)" {
		t.Fatalf("scan record counts = %q, want 1, 2, 1:\n%s", got, out)
	}
	before, after, crashed := strings.Cut(out, "machine crashed and recovered")
	if !crashed {
		t.Fatalf("crash did not report recovery:\n%s", out)
	}
	if strings.Count(before, "  apple = red\n") != 2 || strings.Count(before, "  banana = yellow\n") != 1 {
		t.Fatalf("before the crash: want apple in both scans, banana in the open transaction's:\n%s", before)
	}
	for _, want := range []string{"  apple = red\n", "red\n> (not found)\n", "usage: put", `unknown command "bogus"`} {
		if !strings.Contains(after, want) {
			t.Errorf("output after the crash lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"banana", "cherry"} {
		if strings.Contains(after, gone) {
			t.Errorf("output after the crash contains %q:\n%s", gone, out)
		}
	}
}

// TestDemoEndOfInputExitsCleanly: a closed stdin is a normal exit.
func TestDemoEndOfInputExitsCleanly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader("help\n"), &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit code %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "checkpoint crash stats") {
		t.Fatalf("help missing from output:\n%s", stdout.String())
	}
}
