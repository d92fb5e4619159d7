package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
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
	out := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{},
		{"nosuch"},
		{"table1", "fig5"},
		{"-json", out, "all"},
		{"-nosuch", "fig5"},
		{"-txns", "x", "table1"},
	} {
		if code, stdout, stderr := runBench(t, args...); code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, nothing run, a reason", args, code, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s", out)
	}
}

func TestJSONCarriesMetaAndRows(t *testing.T) {
	out := filepath.Join(t.TempDir(), "groupcommit.json")
	code, stdout, stderr := runBench(t, "-json", out, "-txns", "40", "groupcommit")
	if code != 0 || !strings.Contains(stdout, "Group-commit ablation") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Meta struct {
			GitSHA string `json:"git_sha"`
		} `json:"meta"`
		Rows []map[string]any
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Meta.GitSHA == "" || len(doc.Rows) != 5 {
		t.Fatalf("document lacks meta.git_sha or the five group sizes:\n%s", data)
	}
}

// TestEmptyCellsEncode runs sweeps scaled down until most cells commit
// nothing in no virtual time: they report a throughput of 0, and the
// -json document still encodes and decodes.
func TestEmptyCellsEncode(t *testing.T) {
	for _, name := range []string{"mvcc", "checkpoint"} {
		out := filepath.Join(t.TempDir(), name+".json")
		code, stdout, stderr := runBench(t, "-txns", "1", "-json", out, name)
		if code != 0 || strings.Contains(stdout, "NaN") || strings.Contains(stdout, "Inf") {
			t.Fatalf("%s: exit %d, stderr %q, stdout:\n%s", name, code, stderr, stdout)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct{ Rows []map[string]any }
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.Rows) == 0 {
			t.Fatalf("%s: %v, %d rows in:\n%s", name, err, len(doc.Rows), data)
		}
	}
}
