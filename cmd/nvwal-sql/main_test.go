package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestShellSessionSurvivesPowerCut scripts a whole session through run,
// the command minus os.Exit: committed rows survive a rolled-back
// transaction and a power cut, and the meta commands answer.
func TestShellSessionSurvivesPowerCut(t *testing.T) {
	script := strings.Join([]string{
		"CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT)",
		"INSERT INTO notes VALUES (1, 'hello nvram')",
		"INSERT INTO notes VALUES (2, 'second row')",
		"SELECT * FROM notes",
		"BEGIN",
		"INSERT INTO notes VALUES (3, 'never committed')",
		"ROLLBACK",
		".crash",
		"SELECT * FROM notes",
		"SELECT COUNT(*) FROM notes",
		".tables",
		".stats",
		".bogus",
		"SELECT * FROM missing",
		".quit",
		"INSERT INTO notes VALUES (4, 'after quit')",
	}, "\n")
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader(script), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", stderr.String())
	}
	out := stdout.String()
	before, after, crashed := strings.Cut(out, "machine crashed and recovered")
	if !crashed {
		t.Fatalf(".crash did not report recovery:\n%s", out)
	}
	for _, want := range []string{"hello nvram", "second row", "(2 row(s))"} {
		if !strings.Contains(before, want) || !strings.Contains(after, want) {
			t.Errorf("%q must be selected both before and after the power cut:\n%s", want, out)
		}
	}
	for _, want := range []string{"notes\n", "virtual time:", "unknown meta command", "error:"} {
		if !strings.Contains(after, want) {
			t.Errorf("output after the crash lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"never committed", "after quit", "__schema"} {
		if strings.Contains(out, gone) {
			t.Errorf("output contains %q:\n%s", gone, out)
		}
	}
}

// TestShellEndOfInputExitsCleanly: a closed stdin is a normal exit.
func TestShellEndOfInputExitsCleanly(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, strings.NewReader("CREATE TABLE t (id INTEGER PRIMARY KEY)\n"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ok") {
		t.Fatalf("statement result missing:\n%s", stdout.String())
	}
}
