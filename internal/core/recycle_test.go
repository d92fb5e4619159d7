package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pager"
)

// TestNoImageEntersSpareTwice drives a pager over the log through
// commits, rolled-back transactions, prepared transactions aborted and
// completed, and checkpoint rounds, with a hook on the spare list: an
// image may enter it again only after a writer has taken it out. An
// image in the list twice would be handed to two writers.
func TestNoImageEntersSpareTwice(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	var mu sync.Mutex
	spare := map[*byte]bool{}
	entered, taken := 0, 0
	w.spareHook = func(img []byte, in bool) {
		mu.Lock()
		defer mu.Unlock()
		p := &img[0]
		if !in {
			delete(spare, p)
			taken++
			return
		}
		if spare[p] {
			t.Errorf("image %p entered the spare list twice", p)
		}
		spare[p] = true
		entered++
	}
	p, err := pager.Open(e.db, w)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 8
	p.Begin()
	for i := 0; i < pages; i++ {
		if _, _, err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var gtx uint64
	for i := 0; i < 600; i++ {
		p.Begin()
		for k := 1 + rng.Intn(3); k > 0; k-- {
			pgno := uint32(2 + rng.Intn(pages))
			if _, err := p.Get(pgno); err != nil {
				t.Fatal(err)
			}
			p.MarkDirty(pgno)[rng.Intn(4096)] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(3) == 0 {
			// A header commit, whose page-1 image the next one releases.
			p.MarkDirty(1)[pager.HeaderPositionOff+rng.Intn(20)] ^= byte(1 + rng.Intn(255))
		}
		switch rng.Intn(4) {
		case 0:
			p.Rollback()
		case 1:
			frames, err := p.PrepareCommit()
			if err != nil {
				t.Fatal(err)
			}
			gtx++
			if err := w.PrepareTransaction(frames, gtx); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := w.AbortPrepared(gtx); err != nil {
					t.Fatal(err)
				}
				p.Rollback()
			} else {
				if err := w.CompletePrepared(gtx); err != nil {
					t.Fatal(err)
				}
				p.FinishCommit()
			}
		default:
			if err := p.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if entered == 0 || taken == 0 {
		t.Fatalf("%d images released, %d taken: the test proves nothing", entered, taken)
	}
}

// drainSpares takes every spare image the log holds and counts them.
func drainSpares(w *NVWAL) int {
	n := 0
	for w.SpareImage() != nil {
		n++
	}
	return n
}

// TestSpareListCarriesAtMostOneRound: each round adds the images it
// released to the spares left untaken, of which it keeps at most as many
// as it released — the list never holds more than twice one round's
// retirements — and a round that releases nothing, because an export
// batch is out, empties the list.
func TestSpareListCarriesAtMostOneRound(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	imgs := successiveImages(fullPage('a'), 40)
	next := 0
	round := func(commits int, beforeRound func()) {
		t.Helper()
		for i := 0; i < commits; i++ {
			commitPages(t, w, map[uint32][]byte{2: imgs[next]})
			next++
		}
		beforeRound()
		if err := w.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	nothing := func() {}
	round(4, nothing) // the first commit replaced nothing
	if n := drainSpares(w); n != 3 {
		t.Fatalf("first round released %d images, want 3", n)
	}
	round(5, nothing)
	round(2, nothing) // the previous round's five stay untaken; two carry over
	if n := drainSpares(w); n != 4 {
		t.Fatalf("spare list holds %d images after a two-commit round, want 2 released + 2 carried", n)
	}
	round(3, nothing)
	round(1, nothing) // of the three untaken, one carries over
	if n := drainSpares(w); n != 2 {
		t.Fatalf("spare list holds %d images after a one-commit round, want 1 released + 1 carried", n)
	}
	round(1, nothing)
	// A batch out holds back every round until it is handed back; the
	// list that round leaves is empty.
	round(3, func() {
		if b, ok := w.ExportSince(w.Mark()-2, w.Mark(), nil); !ok || len(b.Frames) != 2 {
			t.Fatalf("export: ok=%v, %d frames", ok, len(b.Frames))
		}
	})
	if n := drainSpares(w); n != 0 {
		t.Fatalf("a round with a batch out released %d images", n)
	}
	round(3, nothing)
	if n := drainSpares(w); n != 0 {
		t.Fatalf("a second round with the batch still out released %d images", n)
	}
	w.ExportDone()
	// A cursor standing below the watermark holds nothing back: the round
	// copies the frames it keeps for it into the export tail.
	c := w.OpenExportCursor()
	round(3, nothing)
	if n := drainSpares(w); n != 3 {
		t.Fatalf("a round with a cursor below its watermark released %d images, want 3", n)
	}
	tail, ok := w.ExportSince(c.pos, w.Mark(), nil)
	if !ok || len(tail.Frames) != 6 { // two extents per commit
		t.Fatalf("the cursor's frames are not retained: ok=%v, %d frames", ok, len(tail.Frames))
	}
	w.ExportDone()
	c.Close()
}

// TestHeaderCommitReleasesPageOneAtOnce: a commit whose page-1 frames
// lie in the pager's header releases the page-1 image it replaces at
// once, unless a reader is pinned, a batch is out or the image is the
// page's base; a commit that writes past the header leaves its image to
// the next round. The history replays every mark although each released
// image is written over as soon as it is taken.
func TestHeaderCommitReleasesPageOneAtOnce(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	var marks []int
	var want [][]byte
	cur := fullPage('c')
	commit := func(img []byte) {
		t.Helper()
		commitPages(t, w, map[uint32][]byte{1: img})
		cur = img
		marks = append(marks, w.Mark())
		want = append(want, bytes.Clone(img))
	}
	header := func(k uint64) []byte {
		img := bytes.Clone(cur)
		binary.LittleEndian.PutUint64(img[pager.HeaderPositionOff:], k)
		return img
	}
	released := func(step string, n int) {
		t.Helper()
		got := 0
		for img := w.SpareImage(); img != nil; img = w.SpareImage() {
			for i := range img {
				img[i] = 0xDB
			}
			got++
		}
		if got != n {
			t.Fatalf("%s: %d page-1 images released at once, want %d", step, got, n)
		}
	}
	replays := func() {
		t.Helper()
		for i, m := range marks {
			if img, ok := w.PageVersionAt(1, m); !ok || !bytes.Equal(img, want[i]) {
				t.Fatalf("page 1 at mark %d does not replay", m)
			}
		}
	}

	commit(cur) // a full frame: no header commit
	commit(header(1))
	released("after a full frame", 0)
	commit(header(2))
	released("header after header", 1)
	mark := w.Pin()
	commit(header(3))
	released("with a reader pinned", 0)
	w.Unpin(mark)
	commit(header(4))
	released("after the reader left", 1)
	if _, ok := w.ExportSince(w.Mark()-1, w.Mark(), nil); !ok {
		t.Fatal("export refused")
	}
	commit(header(5))
	released("with a batch out", 0)
	w.ExportDone()
	past := bytes.Clone(header(6))
	past[pager.HeaderReserved] ^= 1
	commit(past)
	released("a commit past the header, after a header commit", 1)
	commit(header(7))
	released("header after a commit past the header", 0)
	replays()

	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	released("the round", 4) // the four queued above
	marks, want = marks[:0], want[:0]
	commit(header(8))
	released("replacing the page's base", 0)
	commit(header(9))
	released("header after header, past the round", 1)
	replays()
}
