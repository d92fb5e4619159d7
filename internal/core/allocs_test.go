package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pager"
)

// The commit path is zero-copy (DESIGN.md §15): frames are encoded
// straight into reserved NVRAM and the plan/index bookkeeping lives in
// scratch reused across transactions. What remains per commit is only
// what outlives it — the history-payload arena, the replacement version
// image, and amortized map/slice growth. These tests pin that budget so
// a regression (an intermediate frame image creeping back in, a scratch
// buffer dropped) fails loudly.

// soloAllocBudget bounds steady-state allocations for a one-page
// differential commit: one history arena + one version image + slack
// for amortized growth of history/byPage/versions and simulator
// bookkeeping. The pre-audit commit path sat far above this.
const soloAllocBudget = 8.0

func TestSoloCommitAllocs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	page := fullPage('a')
	commitPages(t, w, map[uint32][]byte{2: page})

	i := byte(0)
	avg := testing.AllocsPerRun(300, func() {
		i++
		page[100] = i
		page[200] = i ^ 0xFF
		if err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: page}}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("solo differential commit: %.2f allocs/op", avg)
	if avg > soloAllocBudget {
		t.Fatalf("solo commit allocates %.2f/op, budget %.1f — zero-copy path regressed", avg, soloAllocBudget)
	}
}

func TestGroupCommitAllocs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	const members = 3
	pages := make([][]byte, members)
	groups := make([][]pager.Frame, members)
	for g := range pages {
		pages[g] = fullPage(byte('a' + g))
		groups[g] = []pager.Frame{{Pgno: uint32(2 + g), Data: pages[g]}}
	}
	if err := w.CommitGroup(groups); err != nil {
		t.Fatal(err)
	}

	// Budget: one arena + one version image per member + amortized
	// growth, with the coalescer's map and output reused across calls.
	const groupAllocBudget = 6.0 * members
	i := byte(0)
	avg := testing.AllocsPerRun(300, func() {
		i++
		for g := range pages {
			pages[g][64*g] = i
		}
		if err := w.CommitGroup(groups); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("group commit (%d members): %.2f allocs/op", members, avg)
	if avg > groupAllocBudget {
		t.Fatalf("group commit allocates %.2f/op, budget %.1f — coalescer or commit scratch regressed", avg, groupAllocBudget)
	}
}

func TestPageVersionIntoAllocs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	img := fullPage(0x5A)
	commitPages(t, w, map[uint32][]byte{2: img})

	buf := make([]byte, 4096)
	avg := testing.AllocsPerRun(300, func() {
		if !w.PageVersionInto(2, buf) {
			t.Fatal("PageVersionInto lost page 2")
		}
	})
	if avg != 0 {
		t.Fatalf("PageVersionInto allocates %.2f/op, want 0", avg)
	}
	if !bytes.Equal(buf, img) {
		t.Fatal("PageVersionInto returned wrong image")
	}

	// Short buffer: the copy truncates to the caller's length — still
	// allocation-free, still the image's prefix.
	short := make([]byte, 100)
	avg = testing.AllocsPerRun(300, func() {
		if !w.PageVersionInto(2, short) {
			t.Fatal("PageVersionInto lost page 2")
		}
	})
	if avg != 0 {
		t.Fatalf("short-buffer PageVersionInto allocates %.2f/op, want 0", avg)
	}
	if !bytes.Equal(short, img[:100]) {
		t.Fatal("short-buffer PageVersionInto returned wrong prefix")
	}
}

// TestCommitStallOnlyWhenContended pins the CommitStallNanos fix: an
// uncontended writer-lock acquisition charges nothing (time.Since is
// positive on every acquisition, so charging unconditionally inflated
// the metric the incremental checkpoint is judged by), while a real
// contention charges the wait.
func TestCommitStallOnlyWhenContended(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	for i := byte(0); i < 10; i++ {
		commitPages(t, w, map[uint32][]byte{2: fullPage(i)})
	}
	if got := e.m.Count(metrics.CommitStallNanos); got != 0 {
		t.Fatalf("uncontended commits charged %dns of commit stall, want 0", got)
	}

	for attempt := 0; attempt < 20; attempt++ {
		w.mu.Lock()
		done := make(chan struct{})
		go func() {
			w.lockWriter()
			w.mu.Unlock()
			close(done)
		}()
		time.Sleep(20 * time.Millisecond)
		w.mu.Unlock()
		<-done
		if e.m.Count(metrics.CommitStallNanos) > 0 {
			return
		}
	}
	t.Fatal("contended lockWriter never charged the stall metric")
}

// TestScratchReuseConcurrentCommits hammers the reused commit scratch
// (plan items, written/hist slices, header buffer, coalescer) from
// concurrent committers and readers. Run under -race (the fuzz-smoke CI
// tier does) it proves the scratch never escapes the writer lock; the
// final images prove commits never bled into each other.
func TestScratchReuseConcurrentCommits(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	const (
		writers = 4
		rounds  = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for s := 0; s < writers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			pgno := uint32(10 + s)
			page := fullPage(byte('A' + s))
			buf := make([]byte, 4096)
			for i := 0; i < rounds; i++ {
				page[i*8] = byte(i)
				if err := w.CommitTransaction([]pager.Frame{{Pgno: pgno, Data: page}}); err != nil {
					errs <- err
					return
				}
				if !w.PageVersionInto(pgno, buf) || buf[i*8] != byte(i) {
					errs <- errReadback(pgno)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for s := 0; s < writers; s++ {
		want := fullPage(byte('A' + s))
		for i := 0; i < rounds; i++ {
			want[i*8] = byte(i)
		}
		got, ok := w.PageVersion(uint32(10 + s))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("writer %d's final image corrupted (ok=%v)", s, ok)
		}
	}
}

type errReadback uint32

func (e errReadback) Error() string { return "immediate readback of committed page failed" }

// A bulk session must not leave its size behind in the reused page set
// of CommitStreams: clearing a map that once held thousands of pages
// would tax every group after it.
func TestSeenScratchDroppedAfterBulkGroup(t *testing.T) {
	w := &NVWAL{}
	id := func(m map[uint32]struct{}) uintptr { return reflect.ValueOf(m).Pointer() }
	small := w.seenScratch()
	small[7] = struct{}{}
	if again := w.seenScratch(); id(again) != id(small) || len(again) != 0 {
		t.Fatal("a small group's set must be reused, emptied")
	}
	for pgno := uint32(0); pgno <= maxReusedSeen; pgno++ {
		small[pgno] = struct{}{}
	}
	if fresh := w.seenScratch(); id(fresh) == id(small) || len(fresh) != 0 {
		t.Fatal("a bulk group's set must be replaced, not cleared")
	}
}
