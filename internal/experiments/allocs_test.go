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
	for _, path := range []string{"solo-commit", "group-commit", "page-version-into", "snapshot-get", "session-rmw", "replica-get", "replica-apply", "sim-line", "blockdev-write"} {
		row := r.Row(path)
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
	// The read path is the zero-copy poster child: no allocations at
	// all once the caller supplies the buffer. MemStats is process-wide:
	// a runtime goroutine can add a stray allocation to a window but never
	// take one out, so the smallest of a few windows is still an upper
	// bound on what the path itself allocates — and that must be exactly 0.
	pvi := r.Row("page-version-into").AllocsPerOp
	for retry := 0; pvi != 0 && retry < 4; retry++ {
		_, read, err := journalAllocs(testTxns)
		if err != nil {
			t.Fatal(err)
		}
		pvi = min(pvi, read.AllocsPerOp)
	}
	if pvi != 0 {
		t.Fatalf("page-version-into allocates %.2f/op, want 0", pvi)
	}
	// The commit paths hand off a bounded set of buffers per
	// transaction; far above this means an intermediate frame image
	// crept back in. The bound is deliberately loose — the CI gate
	// against results/BENCH_commit_allocs.json does the tight tracking.
	if row := r.Row("solo-commit"); row.AllocsPerOp > 40 {
		t.Fatalf("solo-commit allocates %.2f/op, want the zero-copy steady state", row.AllocsPerOp)
	}
	// Snapshot and replica reads serve the log's own page images: not one
	// page-sized allocation per read. A session copies each page it loads
	// once (root and leaf here, plus the commit's page-1 image); the bound
	// sits between that and the three copies per page it used to make.
	for _, path := range []string{"snapshot-get", "replica-get"} {
		if row := r.Row(path); row.BytesPerOp >= 2048 {
			t.Fatalf("%s allocates %.0f bytes/op: a page image is being copied", path, row.BytesPerOp)
		}
	}
	if row := r.Row("session-rmw"); row.BytesPerOp > 30000 {
		t.Fatalf("session-rmw allocates %.0f bytes/op, want one copy per loaded page", row.BytesPerOp)
	}
	// A replica copies each page a batch touches once — the image it
	// patches and its journal then keeps — beside the journal's own
	// bookkeeping; two page sizes means the staging copy is back.
	if row := r.Row("replica-apply"); row.BytesPerOp >= 2*4096 {
		t.Fatalf("replica-apply allocates %.0f bytes per applied page, want one page copy", row.BytesPerOp)
	}
	// The simulated hardware allocates nothing per 48-line flush burst
	// and nothing per page program on a warm device (stray runtime
	// allocations in a window are a few hundredths per op; one buffer per
	// op, or one allocation per memsim call, is 1 or more).
	for _, path := range []string{"sim-line", "blockdev-write"} {
		if row := r.Row(path); row.AllocsPerOp >= 0.5 || row.BytesPerOp >= 1024 {
			t.Fatalf("%s allocates %.3f/op, %.1f bytes/op, want 0", path, row.AllocsPerOp, row.BytesPerOp)
		}
	}
	if r.Row("unknown") != nil {
		t.Fatal("Row invented a path")
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "allocation audit") || !strings.Contains(b.String(), "group-commit") {
		t.Fatalf("Print output unexpected:\n%s", b.String())
	}
}
