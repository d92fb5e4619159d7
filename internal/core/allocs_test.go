package core

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// The commit path is zero-copy (DESIGN.md §15): frames are encoded
// straight into reserved NVRAM, the plan/index bookkeeping lives in
// scratch reused across transactions, and a successful commit takes the
// caller's page images — each becomes the page's version, and its
// history records alias it. What remains per commit is amortized
// map/slice growth. These tests pin that budget so a regression (an
// image copied, an intermediate frame image, a scratch buffer dropped)
// fails loudly.

// soloAllocBudget bounds steady-state allocations for a one-page
// differential commit: the history array and the versions map growing
// until they are warm, and simulator bookkeeping, well under one
// allocation per commit. The per-page index grows nothing once warm, and
// keeps its arrays across checkpoint rounds
// (TestIndexAllocatesNothingAcrossRounds). The
// pre-audit commit path sat far above this; copying the handed-over
// image, or a payload arena per append, is one more each.
const soloAllocBudget = 1.0

// successiveImages returns n page images, each a fresh copy of the one
// before with two bytes changed — what a writer hands over commit after
// commit, since it may not touch an image it has handed over.
func successiveImages(first []byte, n int) [][]byte {
	imgs := [][]byte{first}
	for i := 1; i < n; i++ {
		img := bytes.Clone(imgs[i-1])
		img[100], img[200] = byte(i), byte(i)^0xFF
		imgs = append(imgs, img)
	}
	return imgs
}

func TestSoloCommitAllocs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	const runs = 300
	imgs := successiveImages(fullPage('a'), runs+2)
	commitPages(t, w, map[uint32][]byte{2: imgs[0]})

	next := 1
	avg, perCommit := alloctest.PerRun(runs, func() {
		if err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: imgs[next]}}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("solo differential commit: %.2f allocs/op, %.0f bytes/op", avg, perCommit)
	if avg > soloAllocBudget {
		t.Fatalf("solo commit allocates %.2f/op, budget %.1f — zero-copy path regressed", avg, soloAllocBudget)
	}
	if perCommit >= 2048 {
		t.Fatalf("solo commit allocates %.0f bytes/op: the journal is copying the image it was handed", perCommit)
	}
	if got, _ := w.PageVersion(2); !bytes.Equal(got, imgs[next-1]) {
		t.Fatal("the last commit's image is not the page's version")
	}
}

// TestGroupCommitAllocs drives the group commit the database layer runs:
// one reused stream per member, each page staged against its last image,
// then one CommitStreams call.
func TestGroupCommitAllocs(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	const members, runs = 3, 300
	imgs := make([][][]byte, members)
	streams := make([]*Stream, members)
	for g := range imgs {
		imgs[g] = successiveImages(fullPage(byte('a'+g)), runs+2)
		streams[g] = w.NewStream()
	}
	commit := func(next int) {
		for g, s := range streams {
			s.Reset()
			var base []byte
			if next > 0 {
				base = imgs[g][next-1]
			}
			if _, err := s.StagePage(uint32(2+g), imgs[g][next], base); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CommitStreams(streams, members); err != nil {
			t.Fatal(err)
		}
	}
	commit(0)

	// Budget: amortized growth per member, with the streams and the
	// append kernel's scratch reused across calls.
	const groupAllocBudget = 1.0 * members
	next := 1
	avg, perCommit := alloctest.PerRun(runs, func() {
		commit(next)
		next++
	})
	t.Logf("group commit (%d members): %.2f allocs/op, %.0f bytes/op", members, avg, perCommit)
	if avg > groupAllocBudget {
		t.Fatalf("group commit allocates %.2f/op, budget %.1f — stream or commit scratch regressed", avg, groupAllocBudget)
	}
	if perCommit >= 2048 {
		t.Fatalf("group commit allocates %.0f bytes/op: the journal is copying the images it was handed", perCommit)
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
			for i := 0; i < rounds; i++ {
				page = bytes.Clone(page) // the last one was handed over
				page[i*8] = byte(i)
				if err := w.CommitTransaction([]pager.Frame{{Pgno: pgno, Data: page}}); err != nil {
					errs <- err
					return
				}
				if img, _, _ := w.PageImageAt(pgno, pager.Latest); img == nil || img[i*8] != byte(i) {
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

// TestIndexAllocatesNothingAcrossRounds drives one-page commits through
// checkpoint rounds that leave both kinds of page behind: pages written
// only before a round froze, whose index the round retires whole, and
// pages written again after it froze, whose index it trims. Once the
// history array and the retired indexes are warm, indexing a frame
// allocates nothing, round after round, and neither does a round's
// bookkeeping: the new generation's block list and the round's state are
// the last round's, kept. An index rebuilt each round costs ≈ 0.8
// allocations per commit here.
func TestIndexAllocatesNothingAcrossRounds(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	const sets, pages, warm, rounds, perRound = 3, 6, 4, 6, 40
	imgs := make(map[uint32][][]byte)
	for pgno := uint32(2); pgno < 2+sets*pages; pgno++ {
		imgs[pgno] = successiveImages(fullPage(byte(pgno)), 1+(warm+rounds)*perRound)
	}
	next := make(map[uint32]int)
	// commits makes n commits on the pages of set and reports what they
	// allocated.
	commits := func(set, n int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			pgno := uint32(2 + set*pages + i%pages)
			next[pgno]++
			if err := w.CommitTransaction([]pager.Frame{{Pgno: pgno, Data: imgs[pgno][next[pgno]]}}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	var allocs uint64
	for r := 0; r < warm+rounds; r++ {
		a := commits(r%sets, perRound)
		if err := w.FreezeCheckpoint(); err != nil {
			t.Fatal(err)
		}
		a += commits((r+1)%sets, perRound/4)
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if r >= warm {
			allocs += a
		}
	}
	perCommit := float64(allocs) / float64(rounds*(perRound+perRound/4))
	t.Logf("%d rounds of %d commits: %d allocations, %.3f per commit", rounds, perRound+perRound/4, allocs, perCommit)
	if perCommit > 0.1 {
		t.Fatalf("commits across checkpoint rounds allocate %.3f each: indexing a frame allocates", perCommit)
	}
	for pgno, n := range next {
		if got, _ := w.PageVersion(pgno); !bytes.Equal(got, imgs[pgno][n]) {
			t.Fatalf("page %d is not its last committed image", pgno)
		}
	}
}

// TestCheckpointRoundAllocatesNothing: on a warm log, a commit and the
// checkpoint round after it allocate nothing — the round's state, its
// pages map and the next generation's block list are the last round's,
// the file system updates its durable snapshot in place, and the commit's
// image is a spare the previous round released.
func TestCheckpointRoundAllocatesNothing(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	last := fullPage('r')
	i := 0
	cycle := func() {
		img := w.SpareImage()
		if img == nil {
			img = make([]byte, len(last))
		}
		copy(img, last)
		i++
		img[i%len(img)] ^= byte(i)
		if err := w.CommitTransaction([]pager.Frame{{Pgno: 2, Data: img}}); err != nil {
			t.Fatal(err)
		}
		last = img
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		cycle()
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("a commit and its checkpoint round allocate %v times, want 0", n)
	}
}
