package core

import (
	"bytes"
	"testing"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// streamsOf stages each frame set into a fresh stream of w, as full
// frames, the way a group of sessions reaches CommitStreams.
func streamsOf(t *testing.T, w *NVWAL, sets ...[]pager.Frame) []*Stream {
	t.Helper()
	streams := make([]*Stream, len(sets))
	for i, frames := range sets {
		streams[i] = w.NewStream()
		for _, fr := range frames {
			stage(t, streams[i], fr.Pgno, fr.Data, nil)
		}
	}
	return streams
}

// TestCommitStreamsGroup pins the group contract: the member
// transactions' streams commit under one Algorithm 1 sequence, a later
// member's image of a page wins, and the metrics credit every member
// transaction plus one batched flush — also for a group whose members
// staged nothing.
func TestCommitStreamsGroup(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())

	before := e.m.Snapshot()
	streams := streamsOf(t, w,
		[]pager.Frame{{Pgno: 2, Data: fullPage('a')}, {Pgno: 3, Data: fullPage('b')}},
		[]pager.Frame{{Pgno: 2, Data: fullPage('c')}},
		[]pager.Frame{{Pgno: 4, Data: fullPage('d')}},
	)
	if err := w.CommitStreams(streams, len(streams)); err != nil {
		t.Fatal(err)
	}
	delta := e.m.Snapshot().Sub(before)
	if got := delta.Count(metrics.Transactions); got != 3 {
		t.Fatalf("Transactions delta = %d, want 3 (one per group member)", got)
	}
	if got := delta.Count(metrics.GroupCommits); got != 1 {
		t.Fatalf("GroupCommits delta = %d, want 1", got)
	}
	check := func(w *NVWAL, when string) {
		t.Helper()
		for _, want := range []struct {
			pgno uint32
			fill byte
		}{{2, 'c'}, {3, 'b'}, {4, 'd'}} {
			img, ok := w.PageVersion(want.pgno)
			if !ok {
				t.Fatalf("%s: page %d missing", when, want.pgno)
			}
			if !bytes.Equal(img, fullPage(want.fill)) {
				t.Fatalf("%s: page %d = %q..., want fill %q", when, want.pgno, img[:4], want.fill)
			}
		}
	}
	check(w, "live")

	// A group whose members staged nothing still committed its member
	// transactions: nothing reaches NVRAM, but the txn and group tallies
	// (which throughput numbers and the torture oracle count) must
	// include them.
	mid := e.m.Snapshot()
	if err := w.CommitStreams(streamsOf(t, w, nil, nil), 2); err != nil {
		t.Fatal(err)
	}
	d2 := e.m.Snapshot().Sub(mid)
	if got := d2.Count(metrics.Transactions); got != 2 {
		t.Fatalf("empty group Transactions delta = %d, want 2", got)
	}
	if got := d2.Count(metrics.GroupCommits); got != 1 {
		t.Fatalf("empty group GroupCommits delta = %d, want 1", got)
	}
	if got := d2.Count(metrics.WALFrames); got != 0 {
		t.Fatalf("empty group wrote %d frames, want 0", got)
	}

	// The single commit mark covers the whole group across a crash.
	check(e.reopen(t, VariantUHLSDiff(), memsim.FailDropAll, 21), "recovered")
}

// TestCommitStreamsAmortizesSync: a group of K single-page transactions
// must cost fewer persist barriers than K solo commits of the same
// frames.
func TestCommitStreamsAmortizesSync(t *testing.T) {
	frames := make([][]pager.Frame, 8)
	for i := range frames {
		frames[i] = []pager.Frame{{Pgno: uint32(10 + i), Data: fullPage(byte('a' + i))}}
	}

	eSolo := newEnv(t)
	wSolo := eSolo.open(t, VariantUHLSDiff())
	before := eSolo.m.Snapshot()
	for _, fs := range frames {
		if err := wSolo.CommitTransaction(fs); err != nil {
			t.Fatal(err)
		}
	}
	solo := eSolo.m.Snapshot().Sub(before).Count(metrics.PersistBarrier)

	eGrp := newEnv(t)
	wGrp := eGrp.open(t, VariantUHLSDiff())
	streams := streamsOf(t, wGrp, frames...)
	before = eGrp.m.Snapshot()
	if err := wGrp.CommitStreams(streams, len(streams)); err != nil {
		t.Fatal(err)
	}
	grouped := eGrp.m.Snapshot().Sub(before).Count(metrics.PersistBarrier)

	if grouped >= solo {
		t.Fatalf("group commit did not amortize persist barriers: solo=%d grouped=%d", solo, grouped)
	}
	t.Logf("persist barriers for 8 txns: solo=%d grouped=%d", solo, grouped)
}

// TestBrokenLatch: the NVRAM log is append-only, so a failed frame
// write cannot be overwritten — the first error must poison the log and
// every later write must report it.
func TestBrokenLatch(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	w.SetCrashHook(func(step string) {
		if step == StepAfterCommitWrite {
			panic("injected")
		}
	})
	func() {
		defer func() { recover() }()
		w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: fullPage('x')}})
		t.Fatal("crash hook did not fire")
	}()
	w.SetCrashHook(nil)
	// The panic unwound through the defer-unlocked mutex; the log keeps
	// working (panic is a crash simulation, not an I/O error)...
	if err := w.CommitTransaction([]pager.Frame{{Pgno: 3, Data: fullPage('y')}}); err != nil {
		t.Fatalf("log unusable after simulated crash: %v", err)
	}
}
