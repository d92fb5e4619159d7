package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestCommitsProceedDuringBackfill drives the tentpole property with
// real goroutines (so the race detector sees the interleaving): a
// writer commits transactions while the checkpoint's phase B writeback
// is in flight, and both the frozen generation and the overlapping
// commits survive into the post-checkpoint state.
func TestCommitsProceedDuringBackfill(t *testing.T) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)

	expect := make(map[uint32][]byte)
	for i := 0; i < 4; i++ {
		pgno := uint32(2 + i)
		img := fullPage(byte(0x50 + i))
		commitPages(t, w, map[uint32][]byte{pgno: img})
		expect[pgno] = img
	}

	// The hook parks the checkpointer inside phase B (no lock held) and
	// waits for the writer goroutine to land a commit — a deterministic
	// overlap, not a sleep-and-hope race.
	entered := make(chan struct{})
	release := make(chan struct{})
	w.SetCrashHook(func(s string) {
		if s == StepCkptAfterPages {
			close(entered)
			<-release
		}
	})
	overlap2 := patchedPage(expect[2], 1000, 80, 0x66)
	overlap7 := fullPage(0x67)
	commitDone := make(chan error, 1)
	go func() {
		<-entered
		commitDone <- w.CommitTransaction([]pager.Frame{
			{Pgno: 2, Data: overlap2},
			{Pgno: 7, Data: overlap7},
		})
		close(release)
	}()
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	w.SetCrashHook(nil)
	if err := <-commitDone; err != nil {
		t.Fatalf("overlapping commit: %v", err)
	}
	expect[2] = overlap2
	expect[7] = overlap7

	// The overlapping frames were carried past the watermark: they are
	// still in the log, and every page reads back current.
	if w.FramesSinceCheckpoint() == 0 {
		t.Fatal("overlapping commit's frames were dropped by the checkpoint")
	}
	for pgno, img := range expect {
		v, ok := w.PageVersion(pgno)
		if !ok || !bytes.Equal(v, img) {
			t.Fatalf("page %d wrong after overlapped checkpoint", pgno)
		}
	}
	// A second round drains the carried-over frames.
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := w.FramesSinceCheckpoint(); n != 0 {
		t.Fatalf("frames after second checkpoint = %d, want 0", n)
	}
	for pgno, img := range expect {
		buf := make([]byte, 4096)
		if err := e.db.ReadPage(pgno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, img) {
			t.Fatalf("database file stale for page %d after full drain", pgno)
		}
	}
}

// TestReaderMarkSurvivesCheckpoint pins a snapshot mark taken while a
// checkpoint's phase B is parked, then verifies PageVersionAt at that
// mark still resolves after the round completes — the watermark
// carried the reader's frames.
func TestReaderMarkSurvivesCheckpoint(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())

	img1 := fullPage(0x11)
	commitPages(t, w, map[uint32][]byte{2: img1})

	entered := make(chan struct{})
	release := make(chan struct{})
	w.SetCrashHook(func(s string) {
		if s == StepCkptAfterPages {
			close(entered)
			<-release
		}
	})
	type markRead struct {
		mark int
		img  []byte
		ok   bool
	}
	got := make(chan markRead, 1)
	go func() {
		<-entered
		// Reader opens mid-checkpoint: its mark covers the frozen
		// generation's frames plus nothing new.
		mark := w.Mark()
		close(release)
		v, ok := w.PageVersionAt(2, mark)
		got <- markRead{mark, v, ok}
	}()
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	w.SetCrashHook(nil)
	r := <-got
	if r.ok && !bytes.Equal(r.img, img1) {
		t.Fatal("mid-checkpoint read returned a wrong image")
	}
	// After the round, the same mark must still resolve correctly:
	// either from surviving frames, or as a miss whose database-file
	// fallback the backfill made exact.
	v, ok := w.PageVersionAt(2, r.mark)
	if !ok {
		v = make([]byte, 4096)
		if err := e.db.ReadPage(2, v); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(v, img1) {
		t.Fatal("reader's mark invalidated by the checkpoint round")
	}
}

// BenchmarkPageVersionAt covers the read view's cases. "rewritten after
// mark" is the one that replays — into the one page buffer it allocates
// — and shows the per-page index at work: resolving a page with a fixed
// number of its own frames costs the same whether the rest of the log
// holds 64 or 4096 unrelated frames. "unchanged since mark" (the newest
// frame lies below the mark) and "fully backfilled" (a completed
// checkpoint retired every frame) hand out the log's own image: 0
// allocs/op.
func BenchmarkPageVersionAt(b *testing.B) {
	// build commits 9 versions of page 2, then `unrelated` small diffs
	// to page 3 (small, to keep the log within the simulated device), and
	// returns the mark after page 2's fifth version.
	build := func(b *testing.B, unrelated int) (w *NVWAL, mid int) {
		e := newEnv(b)
		w = e.open(b, VariantUHLSDiff())
		target := fullPage(0xAA)
		commitPages(b, w, map[uint32][]byte{2: target})
		for i := 0; i < 8; i++ {
			if i == 4 {
				mid = w.Mark()
			}
			target = patchedPage(target, (i*97)%4000, 32, byte(i))
			commitPages(b, w, map[uint32][]byte{2: target})
		}
		base := fullPage(0xBB)
		commitPages(b, w, map[uint32][]byte{3: base})
		for i := 0; i < unrelated; i++ {
			base = patchedPage(base, (i*131)%4000, 24, byte(i))
			commitPages(b, w, map[uint32][]byte{3: base})
		}
		return w, mid
	}
	loop := func(b *testing.B, resolved func() bool) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !resolved() {
				b.Fatal("target page missing")
			}
		}
	}
	versionAt := func(w *NVWAL, mark int) func() bool {
		return func() bool { _, ok := w.PageVersionAt(2, mark); return ok }
	}
	for _, unrelated := range []int{64, 1024, 4096} {
		b.Run(fmt.Sprintf("rewritten-after-mark/unrelated=%d", unrelated), func(b *testing.B) {
			w, mid := build(b, unrelated)
			loop(b, versionAt(w, mid))
		})
	}
	b.Run("unchanged-since-mark", func(b *testing.B) {
		w, _ := build(b, 64)
		loop(b, versionAt(w, w.Mark()))
	})
	b.Run("fully-backfilled", func(b *testing.B) {
		w, _ := build(b, 64)
		if err := w.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		// No frame is left below the mark, so PageVersionAt would report
		// ok=false; PageImageAt is the call that still serves the image.
		mark := w.Mark()
		loop(b, func() bool { img, _, _ := w.PageImageAt(2, mark); return img != nil })
	})
}

// BenchmarkPageImageAt is the read the pager's cache miss and a pinned
// reader make, over 1 024 logged pages: "latest" asks for a page's latest
// image, "pinned" for its image at a mark pinned before every other page
// was rewritten (those resolve to their base, the rest to their version).
// Both hand out an image the log holds: 0 allocs/op.
func BenchmarkPageImageAt(b *testing.B) {
	const pages = 1024
	e := newEnv(b)
	w := e.open(b, VariantUHLSDiff())
	commit := func(step uint32, v byte) {
		var frames []pager.Frame
		for pgno := uint32(2); pgno < 2+pages; pgno += step {
			img := make([]byte, 4096)
			img[0], img[1], img[2] = byte(pgno), byte(pgno>>8), v
			frames = append(frames, pager.Frame{Pgno: pgno, Data: img})
		}
		if err := w.CommitTransaction(frames); err != nil {
			b.Fatal(err)
		}
	}
	commit(1, 1)
	if err := w.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	mark := w.Pin()
	defer w.Unpin(mark)
	commit(2, 2)
	for _, c := range []struct {
		name string
		mark int
	}{{"latest", pager.Latest}, {"pinned", mark}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pgno := 2 + uint32(i)*2654435761>>22 // 0..1023, scattered
				if img, _, err := w.PageImageAt(pgno, c.mark); err != nil || img == nil {
					b.Fatalf("page %d at mark %d: %v", pgno, c.mark, err)
				}
			}
		})
	}
}

// TestPinRefusesRoundsPastItsMark holds the reader registry's contract: a
// pin below the round's watermark refuses Checkpoint and FreezeCheckpoint
// with ErrCheckpointPending and leaves the log as it was, a pin at the
// current mark refuses nothing, pins count, Unpin lets the round run, and
// a round already frozen resumes whatever the pins.
func TestPinRefusesRoundsPastItsMark(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	rounds := []struct {
		name string
		run  func() error
	}{{"FreezeCheckpoint", w.FreezeCheckpoint}, {"Checkpoint", w.Checkpoint}}
	refused := func(step string) {
		t.Helper()
		frames, mark := w.FramesSinceCheckpoint(), w.Mark()
		for _, r := range rounds {
			if err := r.run(); !errors.Is(err, pager.ErrCheckpointPending) {
				t.Fatalf("%s: %s = %v, want ErrCheckpointPending", step, r.name, err)
			}
		}
		if w.FramesSinceCheckpoint() != frames || w.Mark() != mark || w.ckpt != nil {
			t.Fatalf("%s: a refused round changed the log", step)
		}
	}

	img2 := fullPage(0x21)
	commitPages(t, w, map[uint32][]byte{2: img2})
	at, again := w.Pin(), w.Pin()
	if at != w.Mark() || again != at {
		t.Fatalf("pins at %d and %d, mark %d", at, again, w.Mark())
	}
	for _, r := range rounds {
		if err := r.run(); err != nil {
			t.Fatalf("%s with a pin at the current mark: %v", r.name, err)
		}
	}
	if w.FramesSinceCheckpoint() != 0 {
		t.Fatal("the round under a pin at the current mark left frames")
	}

	commitPages(t, w, map[uint32][]byte{3: fullPage(0x31)})
	refused("two pins below the watermark")
	w.Unpin(at)
	refused("one pin left below the watermark")
	if _, ok := w.PageVersionAt(3, again); ok {
		t.Fatal("the pinned mark sees a later commit")
	}
	w.Unpin(again)
	if err := w.Checkpoint(); err != nil || w.FramesSinceCheckpoint() != 0 {
		t.Fatalf("Checkpoint after Unpin = %v with %d frames left", err, w.FramesSinceCheckpoint())
	}

	commitPages(t, w, map[uint32][]byte{4: fullPage(0x41)})
	if err := w.FreezeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	commitPages(t, w, map[uint32][]byte{5: fullPage(0x51)})
	late := w.Pin()
	commitPages(t, w, map[uint32][]byte{6: fullPage(0x61)})
	if err := w.Checkpoint(); err != nil || w.ckpt != nil || w.FramesSinceCheckpoint() != 2 {
		t.Fatalf("resuming the frozen round = %v with %d frames left, want nil and 2", err, w.FramesSinceCheckpoint())
	}
	refused("a pin below the next round's watermark")
	w.Unpin(late)
	if err := w.Checkpoint(); err != nil || w.FramesSinceCheckpoint() != 0 {
		t.Fatalf("Checkpoint after the last Unpin = %v with %d frames left", err, w.FramesSinceCheckpoint())
	}
}

// TestPinRacesWritersAndCheckpointer runs readers that pin, resolve a page
// at their mark and unpin against a writer rewriting that page and a
// checkpointer looping rounds: every read sees exactly the image the
// page had at the reader's mark — one frame per commit, so the mark says
// which — never a later one a round left in its place.
func TestPinRacesWritersAndCheckpointer(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	view := pager.NewReadView(w, e.db)
	commitPages(t, w, map[uint32][]byte{2: fullPage(1)})
	first := w.Mark()   // commit i (fill i) ends at mark first+i-1
	const commits = 250 // one fill byte per commit
	stop := make(chan struct{})
	errs := make(chan error, 4) // one failure per goroutine at most
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The image is read before the reader unpins: past that
				// a round may recycle it.
				mark := w.Pin()
				img, _, err := view.PageAt(2, mark)
				ok := err == nil && bytes.Equal(img, fullPage(byte(mark-first+1)))
				fill := byte(0)
				if err == nil {
					fill = img[0]
				}
				w.Unpin(mark)
				switch {
				case err != nil:
					errs <- err
					return
				case !ok:
					errs <- fmt.Errorf("page 2 at mark %d reads fill %d, want %d", mark, fill, mark-first+1)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Checkpoint(); err != nil && !errors.Is(err, pager.ErrCheckpointPending) {
				errs <- err
				return
			}
		}
	}()
	for i := 2; i <= commits; i++ {
		commitPages(t, w, map[uint32][]byte{2: fullPage(byte(i))})
		if w.Mark() != first+i-1 {
			t.Errorf("commit %d ends at mark %d, want %d", i, w.Mark(), first+i-1)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
