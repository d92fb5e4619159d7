package wal

import (
	"testing"

	"repro/internal/pager"
)

// TestCommitFrameEncodeScratchReuse pins the reused frame-encode
// buffer: a commit frame followed by a non-commit frame in the same
// buffer must not leak the stale commit word, or recovery would end a
// transaction early.
func TestCommitFrameEncodeScratchReuse(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, ModeStock)
	// Transaction 1 ends with a commit frame (sets the commit word in
	// the scratch); transaction 2's first frame reuses the scratch and
	// must clear it.
	commit(t, w, map[uint32]byte{2: 'a'})
	if err := w.CommitTransaction([]pager.Frame{
		{Pgno: 3, Data: mkPage('b')},
		{Pgno: 4, Data: mkPage('c')},
	}); err != nil {
		t.Fatal(err)
	}
	// Recovery decodes the on-file bytes, so a leaked commit word in
	// frame 1's slot shows up here even though the in-memory index was
	// built without re-reading the file.
	w2, err := Open(e.fs, "test.db-wal", e.db, Options{Mode: ModeStock}, e.m)
	if err != nil {
		t.Fatal(err)
	}
	var commits []bool
	for _, fi := range w2.frames {
		commits = append(commits, fi.commit)
	}
	want := []bool{true, false, true}
	if len(commits) != len(want) {
		t.Fatalf("frame count = %d, want %d", len(commits), len(want))
	}
	for i := range want {
		if commits[i] != want[i] {
			t.Fatalf("frame %d commit flag = %v, want %v (stale commit word leaked from encode scratch)", i, commits[i], want[i])
		}
	}
}
