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
		{"-gate", out, "fig5"},
		{"-gate", out, "all"},
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

func TestAllocsGateNamesRegressedRow(t *testing.T) {
	data, err := os.ReadFile("../../results/BENCH_commit_allocs.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	row := doc["rows"].([]any)[0].(map[string]any)
	path := row["path"].(string)
	row["allocs_per_op"] = 0.0
	base := filepath.Join(t.TempDir(), "baseline.json")
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runBench(t, "-gate", base, "allocs")
	if code != 1 || !strings.Contains(stderr, path+":") {
		t.Fatalf("exit %d, stderr %q; want 1 naming %s", code, stderr, path)
	}
	if strings.Contains(stdout, "gate passed") {
		t.Fatalf("gate reported a pass:\n%s", stdout)
	}
}

// TestAllocsLimitSeesOneAllocation: a row recorded below one allocation
// per op fails at one more allocation per op; a larger row keeps 10% + 2.
func TestAllocsLimitSeesOneAllocation(t *testing.T) {
	for _, c := range []struct{ base, pass, fail float64 }{
		{0, 0.05, 1},
		{0.10, 0.15, 1.10},
		{0.82, 0.87, 1.82},
		{2, 4.2, 4.3},
	} {
		if got := allocsLimit(c.base); got < c.pass || got >= c.fail {
			t.Errorf("allocsLimit(%v) = %v, want within [%v, %v)", c.base, got, c.pass, c.fail)
		}
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
