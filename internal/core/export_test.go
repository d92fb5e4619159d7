package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/memsim"
	"repro/internal/pager"
)

// applyExport patches one exported frame into a model page set, the
// way a replica reconstructs state from a shipped range.
func applyExport(model map[uint32][]byte, fr ExportFrame, pageSize int) {
	img, ok := model[fr.Pgno]
	if !ok || fr.Full {
		img = make([]byte, pageSize)
		model[fr.Pgno] = img
	}
	copy(img[fr.Off:], fr.Payload)
}

func TestExportSinceStreamsCommittedFrames(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())

	commitPages(t, w, map[uint32][]byte{2: fullPage(0x11), 3: fullPage(0x12)})
	commitPages(t, w, map[uint32][]byte{2: patchedPage(fullPage(0x11), 100, 40, 0x13)})

	b, ok := w.ExportSince(0, w.Mark(), nil)
	if !ok {
		t.Fatal("ExportSince(0) reported a gap on a fresh log")
	}
	if b.From != 0 || b.To != w.Mark() {
		t.Fatalf("batch range [%d,%d), want [0,%d)", b.From, b.To, w.Mark())
	}
	if len(b.Frames) != b.To-b.From {
		t.Fatalf("%d frames for range [%d,%d): marks and frames must be 1:1", len(b.Frames), b.From, b.To)
	}
	model := make(map[uint32][]byte)
	for _, fr := range b.Frames {
		applyExport(model, fr, 4096)
	}
	for _, pgno := range []uint32{2, 3} {
		want, _ := w.PageVersion(pgno)
		if !bytes.Equal(model[pgno], want) {
			t.Fatalf("replayed export diverges from page %d image", pgno)
		}
	}

	// Caught up: empty batch, still ok.
	b2, ok := w.ExportSince(b.To, w.Mark(), nil)
	if !ok || len(b2.Frames) != 0 || b2.From != b2.To {
		t.Fatalf("caught-up export = %+v ok=%v, want empty ok batch", b2, ok)
	}
	// Beyond the mark: a gap.
	if _, ok := w.ExportSince(b.To+1, w.Mark(), nil); ok {
		t.Fatal("ExportSince past the mark must report a gap")
	}

	// The export chain is deterministic for the same range.
	c1 := ChainExport(ExportChainSeed(0), b)
	c2 := ChainExport(ExportChainSeed(0), b)
	if c1 != c2 {
		t.Fatalf("chain not deterministic: %#x vs %#x", c1, c2)
	}
	if c1 == ExportChainSeed(0) {
		t.Fatal("chain did not absorb the frames")
	}
}

// TestExportSinceStopsAtItsBound: a batch ends where the caller bounds it
// and announces only a round whose watermark it reaches — the completed
// one, not a round frozen above its end — so Backfill is never above To.
func TestExportSinceStopsAtItsBound(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x31)})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	done := w.Mark()
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x32)})
	mid := w.Mark()
	commitPages(t, w, map[uint32][]byte{2: fullPage(0x33)})
	if err := w.FreezeCheckpoint(); err != nil {
		t.Fatal(err)
	}
	frozen := w.Mark()

	for _, c := range []struct{ to, backfill int }{{mid, done}, {frozen, frozen}} {
		b, ok := w.ExportSince(done, c.to, nil)
		if !ok || b.From != done || b.To != c.to || len(b.Frames) != c.to-done || b.Backfill != c.backfill {
			t.Fatalf("ExportSince(%d, %d) = [%d, %d) %d frames watermark %d ok=%v, want [%d, %d) watermark %d",
				done, c.to, b.From, b.To, len(b.Frames), b.Backfill, ok, done, c.to, c.backfill)
		}
		w.ExportDone()
	}
	if _, ok := w.ExportSince(done, frozen+1, nil); ok {
		t.Fatal("a bound past the mark must report a gap")
	}
	if _, ok := w.ExportSince(mid, done, nil); ok {
		t.Fatal("a bound below the start must report a gap")
	}
}

// TestExportGapAfterCheckpointRetirement pins the re-seed contract: a
// cursor below histBase (its frames retired by a completed checkpoint)
// is an unhealable gap, not a silent empty batch.
func TestExportGapAfterCheckpointRetirement(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())

	commitPages(t, w, map[uint32][]byte{2: fullPage(0x21)})
	commitPages(t, w, map[uint32][]byte{3: fullPage(0x22)})
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.ExportSince(0, w.Mark(), nil); ok {
		t.Fatal("cursor 0 must be a gap after the checkpoint retired the frames")
	}
	if b, ok := w.ExportSince(w.Mark(), w.Mark(), nil); !ok || len(b.Frames) != 0 {
		t.Fatalf("cursor at the post-checkpoint mark must be a caught-up empty batch, got %+v ok=%v", b, ok)
	}
}

// TestExportGapAfterRecovery pins the incarnation contract: recovery
// rebases the mark space (histBase resets, live frames replay from 0),
// so a pre-crash cursor is meaningless and the exporter must observe
// either a gap or a range it can chain-verify — never silently wrong
// frames. Replication re-seeds on reconnect via the incarnation id;
// this test documents why.
func TestExportGapAfterRecovery(t *testing.T) {
	e := newEnv(t)
	cfg := VariantUHLSDiff()
	w := e.open(t, cfg)

	for i := 0; i < 6; i++ {
		commitPages(t, w, map[uint32][]byte{uint32(2 + i): fullPage(byte(0x30 + i))})
	}
	preMark := w.Mark()
	w2 := e.reopen(t, cfg, memsim.FailDropAll, 1)
	if w2.Mark() > preMark {
		t.Fatalf("recovered mark %d exceeds pre-crash mark %d", w2.Mark(), preMark)
	}
	// The recovered log replays live frames from mark 0; an old cursor
	// equal to the new mark is "caught up" only by coincidence of mark
	// arithmetic — the chain values diverge, which is what replication
	// keys re-seeding on.
	b, ok := w2.ExportSince(0, w2.Mark(), nil)
	if !ok {
		t.Fatal("full re-export from 0 must succeed on the recovered log")
	}
	if len(b.Frames) != b.To {
		t.Fatalf("recovered export has %d frames for [0,%d)", len(b.Frames), b.To)
	}
}

// TestExportConcurrentWithCheckpointRounds is the torn-read pin for
// the satellite: an export stream runs while commits land and
// incremental checkpoint rounds freeze, backfill and retire the
// frozen generation (the same lifecycle salvage finishes after a
// crash). Run under -race this checks the locking; the model replay
// checks atomicity — every batch is a whole number of commits, and the
// replayed state converges to the log's own page images, so a torn
// (half-frozen, half-retired) read would be caught as divergence.
func TestExportConcurrentWithCheckpointRounds(t *testing.T) {
	e := newEnv(t)
	w := e.open(t, VariantUHLSDiff())

	const (
		writers   = 2
		commits   = 60
		pageRange = 8
	)
	var writerWG, ckptWG sync.WaitGroup
	writersDone := make(chan struct{})
	stopCkpt := make(chan struct{})

	// Writers: each owns a disjoint page range so final images are
	// deterministic per page.
	for wk := 0; wk < writers; wk++ {
		writerWG.Add(1)
		go func(wk int) {
			defer writerWG.Done()
			for i := 0; i < commits; i++ {
				pgno := uint32(2 + wk*pageRange + i%pageRange)
				img := fullPage(byte(wk*commits + i))
				if err := w.CommitTransaction([]pager.Frame{{Pgno: pgno, Data: img}}); err != nil {
					t.Errorf("writer %d: %v", wk, err)
					return
				}
			}
		}(wk)
	}
	go func() { writerWG.Wait(); close(writersDone) }()

	// Checkpointer: keeps freezing and retiring generations under the
	// exporter. ErrCheckpointPending and empty rounds are fine.
	ckptWG.Add(1)
	go func() {
		defer ckptWG.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			_ = w.Checkpoint()
		}
	}()

	// Exporter: follows the stream, re-seeding exactly as a replica
	// would when a checkpoint retires frames under its cursor. reseed
	// snapshots the committed page images and rebases the cursor under
	// the same lock the log uses, which is exactly what ExportPages
	// does one layer up.
	model := make(map[uint32][]byte)
	cursor := 0
	reseeds := 0
	reseed := func() {
		w.mu.RLock()
		cursor = w.histBase + len(w.history)
		for pgno, e := range w.pages {
			if e.version != nil {
				model[uint32(pgno)] = bytes.Clone(e.version)
			}
		}
		w.mu.RUnlock()
		reseeds++
	}
	exportErr := func() error {
		for {
			b, ok := w.ExportSince(cursor, w.Mark(), nil)
			if !ok {
				reseed()
				continue
			}
			if b.From != cursor || len(b.Frames) != b.To-b.From {
				return fmt.Errorf("batch [%d,%d) with %d frames at cursor %d", b.From, b.To, len(b.Frames), cursor)
			}
			for _, fr := range b.Frames {
				applyExport(model, fr, 4096)
			}
			cursor = b.To
			if len(b.Frames) == 0 {
				// Caught up; stop once the writers have finished.
				select {
				case <-writersDone:
					return nil
				default:
				}
			}
		}
	}()
	close(stopCkpt)
	ckptWG.Wait()
	if exportErr != nil {
		t.Fatal(exportErr)
	}

	// Drain whatever landed after the exporter's last cursor, then the
	// replayed model must equal the log's own idea of every page.
	for {
		b, ok := w.ExportSince(cursor, w.Mark(), nil)
		if !ok {
			reseed()
			continue
		}
		for _, fr := range b.Frames {
			applyExport(model, fr, 4096)
		}
		cursor = b.To
		break
	}
	for wk := 0; wk < writers; wk++ {
		for p := 0; p < pageRange; p++ {
			pgno := uint32(2 + wk*pageRange + p)
			want, ok := w.PageVersion(pgno)
			if !ok {
				// Retired into the database file by a checkpoint; the
				// model must then match the backfilled file content.
				want = make([]byte, 4096)
				if err := e.db.ReadPage(pgno, want); err != nil {
					t.Fatalf("page %d: %v", pgno, err)
				}
			}
			if !bytes.Equal(model[pgno], want) {
				t.Fatalf("exported replay of page %d diverged (reseeds=%d)", pgno, reseeds)
			}
		}
	}
}

// TestExportRetentionProperty drives a log with a seeded mix of commits,
// group commits, checkpoints (some parked in phase B while commits land
// behind them) and export cursors registering, seeking and closing, next
// to a reference log that takes the same commits and never checkpoints.
// After every step: each registered cursor's range is exportable and
// chains to the value the reference's frames give, its backlog is their
// payload, the tail is empty whenever no cursor is registered, and it
// never holds a frame below the lowest cursor.
func TestExportRetentionProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { exportRetentionRun(t, seed) })
	}
}

func exportRetentionRun(t *testing.T, seed int64) {
	const pages = 12
	rng := rand.New(rand.NewSource(seed))
	w := newEnv(t).open(t, VariantUHLSDiff())
	ref := newEnv(t).open(t, VariantUHLSDiff())
	images := make(map[uint32][]byte)
	dirty := func() pager.Frame {
		pgno := uint32(2 + rng.Intn(pages))
		img, ok := images[pgno]
		if !ok {
			img = fullPage(byte(pgno))
		}
		img = patchedPage(img, rng.Intn(4000), 1+rng.Intn(90), byte(rng.Intn(256)))
		images[pgno] = img
		return pager.Frame{Pgno: pgno, Data: img}
	}
	var cursors []*ExportCursor
	var parked *ckptState // a round past phase A, its phase C still to come
	finish := func() {
		if err := w.backfill(parked); err != nil {
			t.Fatal(err)
		}
		if err := w.completeCheckpoint(parked, nil); err != nil {
			t.Fatal(err)
		}
		parked = nil
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			fr := []pager.Frame{dirty()}
			for _, l := range []*NVWAL{w, ref} {
				if err := l.CommitTransaction(fr); err != nil {
					t.Fatal(err)
				}
			}
		case op < 55:
			// A group of three one-page streams.
			frames := []pager.Frame{dirty(), dirty(), dirty()}
			for _, l := range []*NVWAL{w, ref} {
				streams := make([]*Stream, len(frames))
				for i, fr := range frames {
					streams[i] = l.NewStream()
					if _, err := streams[i].StagePage(fr.Pgno, fr.Data, nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.CommitStreams(streams, len(streams)); err != nil {
					t.Fatal(err)
				}
			}
		case op < 65:
			if parked != nil {
				finish()
			} else if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case op < 72:
			if parked == nil {
				st, err := w.beginCheckpoint()
				if err != nil {
					t.Fatal(err)
				}
				parked = st // nil when the log had nothing to backfill
			}
		case op < 80:
			cursors = append(cursors, w.OpenExportCursor())
		case op < 95:
			if len(cursors) > 0 {
				c := cursors[rng.Intn(len(cursors))]
				// Anywhere between the floor and the mark, forward or back;
				// one step outside must be refused and leave the cursor put.
				floor, mark, was := w.exportFloor(), w.Mark(), c.pos
				if !c.Seek(floor + rng.Intn(mark-floor+1)) {
					t.Fatalf("step %d: seek inside [%d,%d] refused", step, floor, mark)
				}
				at := c.pos
				if c.Seek(mark+1) || c.Seek(w.exportFloor()-1) || c.pos != at {
					t.Fatalf("step %d: seek outside [%d,%d] moved the cursor %d -> %d (was %d)",
						step, w.exportFloor(), mark, at, c.pos, was)
				}
			}
		default:
			if len(cursors) > 0 {
				i := rng.Intn(len(cursors))
				cursors[i].Close()
				cursors[i].Close() // idempotent
				if cursors[i].Seek(w.Mark()) {
					t.Fatalf("step %d: a closed cursor sought", step)
				}
				cursors = append(cursors[:i], cursors[i+1:]...)
			}
		}

		all, ok := ref.ExportSince(0, ref.Mark(), nil)
		if !ok || all.To != w.Mark() {
			t.Fatalf("step %d: reference at mark %d (ok=%v), log at %d", step, all.To, ok, w.Mark())
		}
		lowest := w.Mark()
		for _, c := range cursors {
			lowest = min(lowest, c.pos)
			b, ok := w.ExportSince(c.pos, w.Mark(), nil)
			backfill := w.histBase
			if parked != nil {
				backfill = parked.watermark // announced from the moment the round froze it
			}
			if !ok || b.From != c.pos || b.To != w.Mark() || b.Backfill != backfill {
				t.Fatalf("step %d: cursor at %d exports %+v ok=%v (mark %d, backfill %d)",
					step, c.pos, b, ok, w.Mark(), backfill)
			}
			want := ExportBatch{Frames: all.Frames[c.pos:]}
			if got, exp := ChainExport(ExportChainSeed(c.pos), b), ChainExport(ExportChainSeed(c.pos), want); got != exp {
				t.Fatalf("step %d: cursor at %d chains to %#x, the reference to %#x", step, c.pos, got, exp)
			}
			var payload int64
			for _, fr := range want.Frames {
				payload += int64(len(fr.Payload))
			}
			if got := c.Backlog(); got != payload {
				t.Fatalf("step %d: cursor at %d reports a backlog of %d B, the reference holds %d B", step, c.pos, got, payload)
			}
		}
		ret := w.ExportRetention()
		switch {
		case len(cursors) == 0 && (len(w.tail) != 0 || w.tail != nil):
			t.Fatalf("step %d: %d frames retained with no cursor registered", step, len(w.tail))
		case len(w.tail) > 0 && (w.tailBase < lowest || w.tailBase+len(w.tail) != w.histBase):
			t.Fatalf("step %d: tail [%d,%d) under lowest cursor %d, backfill watermark %d",
				step, w.tailBase, w.tailBase+len(w.tail), lowest, w.histBase)
		case ret.Frames != len(w.tail) || int64(ret.Bytes) != payloadBytes(w.tail) || ret.PeakFrames < ret.Frames || ret.PeakBytes < ret.Bytes:
			t.Fatalf("step %d: retention report %+v for a tail of %d frames, %d B", step, ret, len(w.tail), payloadBytes(w.tail))
		}
		if floor := w.exportFloor(); floor > 0 {
			if _, ok := w.ExportSince(floor-1, w.Mark(), nil); ok {
				t.Fatalf("step %d: mark %d below the retained floor %d exported", step, floor-1, floor)
			}
		}
	}
	if w.ExportRetention().PeakFrames == 0 {
		t.Fatal("no checkpoint ever retained a frame: the run did not exercise the tail")
	}
}

// TestRetentionTailHoldsPayloadNotImages: a cursor that never moves (a
// subscriber that never acknowledges) keeps every frame the checkpoints
// retire, and the memory that costs must be what its Backlog and
// ExportRetention report — the payload bytes a subscriber's budget is
// held to — not the page images the live history's payloads alias.
// One-byte patches make the difference a page per retained frame. The
// tail's memory is measured as what closing the cursor frees.
func TestRetentionTailHoldsPayloadNotImages(t *testing.T) {
	const commits, perFrame = 2048, 128 // perFrame: a frame's tail bookkeeping, generously
	w := newEnv(t).open(t, VariantUHLSDiff())
	img := fullPage(0x40)
	commitPages(t, w, map[uint32][]byte{2: img})
	c := w.OpenExportCursor()
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for i := 0; i < commits; i++ {
		img = patchedPage(img, i%4096, 1, ^img[i%4096])
		commitPages(t, w, map[uint32][]byte{2: img})
		if i%64 == 63 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	ret := w.ExportRetention()
	if ret.Frames != commits {
		t.Fatalf("the tail holds %d frames, want all %d the checkpoints retired", ret.Frames, commits)
	}
	if backlog := c.Backlog(); backlog != int64(ret.Bytes) {
		t.Fatalf("backlog %d B, tail payload %d B", backlog, ret.Bytes)
	}
	held := heap()
	c.Close()
	if w.ExportRetention().Frames != 0 {
		t.Fatal("closing the only cursor left the tail in place")
	}
	held -= heap()
	t.Logf("tail: %d frames, %d B of payload, %d B of heap", ret.Frames, ret.Bytes, held)
	if limit := int64(ret.Bytes + perFrame*ret.Frames); held > limit {
		t.Fatalf("a tail of %d frames, %d B of payload, held %d B of heap (limit %d B): it pins page images",
			ret.Frames, ret.Bytes, held, limit)
	}
	runtime.KeepAlive(w) // and with it everything but the tail
}

// TestChainExportMatchesReference holds the export chain, which folds each
// frame's header a word at a time, to the construction it must equal on
// the wire: crc32 over the 12-byte header, then over the payload.
func TestChainExportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b ExportBatch
	for i := 0; i < 64; i++ {
		payload := make([]byte, rng.Intn(300))
		rng.Read(payload)
		b.Frames = append(b.Frames, ExportFrame{Pgno: rng.Uint32(), Off: rng.Uint32() >> 1, Full: rng.Intn(2) == 0, Payload: payload})
	}
	want := ExportChainSeed(42)
	for _, fr := range b.Frames {
		var hdr [12]byte
		off := fr.Off
		if fr.Full {
			off |= 1 << 31
		}
		binary.LittleEndian.PutUint32(hdr[0:], fr.Pgno)
		binary.LittleEndian.PutUint32(hdr[4:], off)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(fr.Payload)))
		want = crc32.Update(want, crcTab, hdr[:])
		want = crc32.Update(want, crcTab, fr.Payload)
	}
	if got := ChainExport(ExportChainSeed(42), b); got != want {
		t.Fatalf("ChainExport = %08x, reference %08x", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { ChainExport(want, b) }); n != 0 {
		t.Fatalf("ChainExport allocates %.1f per batch, want 0", n)
	}
}
