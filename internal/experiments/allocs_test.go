package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestCommitAllocsShapes(t *testing.T) {
	r, err := CommitAllocs(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(path string) *CommitAllocsRow {
		return Find(r.Rows, func(row CommitAllocsRow) bool { return row.Path == path })
	}
	for _, path := range []string{"solo-commit", "group-commit", "legacy-update", "snapshot-get", "snapshot-scan", "session-rmw", "replica-get", "replica-served-get", "replica-apply", "served-get", "sim-line", "blockdev-write"} {
		row := rowOf(path)
		if row == nil {
			t.Fatalf("audit missing row %q", path)
		}
		// replica-apply counts applied pages, at least one per batch.
		if row.Ops != testTxns && (path != "replica-apply" || row.Ops < testTxns) {
			t.Fatalf("%s measured %d ops, want %d", path, row.Ops, testTxns)
		}
		if row.AllocsPerOp < 0 || row.BytesPerOp < 0 {
			t.Fatalf("%s reported negative allocations: %+v", path, row)
		}
	}
	// Updating one record on a cached page copies that page once — the
	// transaction's private copy, which the journal then keeps — and no
	// other page: not for the rollback image, not for the log's version,
	// not for its history.
	if row := rowOf("legacy-update"); row.BytesPerOp < 4096 || row.BytesPerOp >= 2*4096 {
		t.Fatalf("legacy-update allocates %.0f bytes/op, want one 4 KiB page copy", row.BytesPerOp)
	}
	// The commit paths hand off a bounded set of buffers per
	// transaction; far above this means an intermediate frame image
	// crept back in. The bound is deliberately loose — the CI gate
	// against results/BENCH_commit_allocs.json does the tight tracking.
	if row := rowOf("solo-commit"); row.AllocsPerOp > 40 {
		t.Fatalf("solo-commit allocates %.2f/op, want the zero-copy steady state", row.AllocsPerOp)
	}
	// Snapshot reads and scans and replica reads serve the log's own page
	// images: not one page-sized allocation per read. A session copies
	// each page it loads once (root and leaf here, plus the commit's page-1
	// image); the bound sits between that and the three copies per page it
	// used to make.
	for _, path := range []string{"snapshot-get", "snapshot-scan", "replica-get"} {
		if row := rowOf(path); row.BytesPerOp >= 2048 {
			t.Fatalf("%s allocates %.0f bytes/op: a page image is being copied", path, row.BytesPerOp)
		}
	}
	if row := rowOf("session-rmw"); row.BytesPerOp > 30000 {
		t.Fatalf("session-rmw allocates %.0f bytes/op, want one copy per loaded page", row.BytesPerOp)
	}
	// A replica copies each page a batch touches once — the image it
	// patches and its journal then keeps — beside the journal's own
	// bookkeeping; two page sizes means the staging copy is back.
	if row := rowOf("replica-apply"); row.BytesPerOp >= 2*4096 {
		t.Fatalf("replica-apply allocates %.0f bytes per applied page, want one page copy", row.BytesPerOp)
	}
	// A read served over a socket or a simulated conn allocates only the
	// client's copy of the value: the engine appends it from the page into
	// the response frame, and neither end of the wire allocates per
	// message.
	for _, path := range []string{"served-get", "replica-served-get"} {
		if row := rowOf(path); row.AllocsPerOp >= 2 {
			t.Fatalf("%s allocates %.2f/op, want 1: the server copies the value, or a wire buffer is allocated per message", path, row.AllocsPerOp)
		}
	}
	// The simulated hardware allocates nothing per 48-line flush burst
	// and nothing per page program on a warm device (stray runtime
	// allocations in a window are a few hundredths per op; one buffer per
	// op, or one allocation per memsim call, is 1 or more).
	for _, path := range []string{"sim-line", "blockdev-write"} {
		if row := rowOf(path); row.AllocsPerOp >= 0.5 || row.BytesPerOp >= 1024 {
			t.Fatalf("%s allocates %.3f/op, %.1f bytes/op, want 0", path, row.AllocsPerOp, row.BytesPerOp)
		}
	}
	if rowOf("unknown") != nil {
		t.Fatal("Row invented a path")
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "allocation audit") || !strings.Contains(b.String(), "group-commit") {
		t.Fatalf("Print output unexpected:\n%s", b.String())
	}
}
