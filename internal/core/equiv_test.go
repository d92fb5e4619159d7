// Equivalence goldens for the commit entry points: one fixed script per
// entry point (CommitTransaction/WriteFrames, CommitStreams,
// PrepareTransaction+CompletePrepared) under every variant must leave
// exactly the virtual time, device op count, counters, NVRAM image and
// volatile views recorded from the implementation that carried
// Algorithm 1 once per entry point. The host-side structure of the
// append may change; none of these may.
package core

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/pager"
)

// equivOutcome is everything an equivalence script observes. Hash folds
// the durable and volatile NVRAM images, every page's live image, its
// snapshot image at every open mark, and the recovered images after a
// power failure.
type equivOutcome struct {
	Hash     uint64
	Now      time.Duration
	Ops      int64
	Counters uint32 // crc32 of the counters snapshot rendered as text
}

const equivMaxPage = 12

// equivPage is a deterministic page image: n pseudo-random bytes from
// seed, the rest clean (so full frames exercise §3.2 truncation).
func equivPage(seed uint32, n int) []byte {
	p := make([]byte, 4096)
	x := seed*2654435761 + 1
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// equivPatch returns base with [off, off+n) rewritten from seed.
func equivPatch(base []byte, off, n int, seed uint32) []byte {
	p := append([]byte(nil), base...)
	copy(p[off:off+n], equivPage(seed, n))
	return p
}

func fr(pgno uint32, data []byte) pager.Frame { return pager.Frame{Pgno: pgno, Data: data} }

type equivRun struct {
	t *testing.T
	e *testEnv
	w *NVWAL
}

func (r *equivRun) must(err error) {
	r.t.Helper()
	if err != nil {
		r.t.Fatal(err)
	}
}

func (r *equivRun) commit(frames ...pager.Frame) {
	r.t.Helper()
	r.must(r.w.CommitTransaction(frames))
}

// sp is one StagePage call: a nil base stages a full frame.
type sp struct {
	pgno      uint32
	img, base []byte
}

func (r *equivRun) stream(pages ...sp) *Stream {
	r.t.Helper()
	s := r.w.NewStream()
	r.stageInto(s, pages...)
	return s
}

func (r *equivRun) stageInto(s *Stream, pages ...sp) {
	r.t.Helper()
	for _, p := range pages {
		if _, err := s.StagePage(p.pgno, p.img, p.base); err != nil {
			r.t.Fatal(err)
		}
	}
}

var equivScripts = []struct {
	name string
	run  func(r *equivRun)
}{
	{"transaction", func(r *equivRun) {
		a, b, c := equivPage(1, 3000), equivPage(2, 4096), equivPage(3, 700)
		r.commit(fr(2, a), fr(3, b), fr(4, c))
		a2 := equivPatch(equivPatch(a, 64, 40, 10), 2048, 300, 11)
		r.commit(fr(2, a2), fr(3, b), fr(5, make([]byte, 4096)))
		a3 := equivPatch(a2, 3900, 100, 12)
		r.must(r.w.WriteFrames([]pager.Frame{fr(6, equivPage(4, 1500)), fr(2, a3)}, false))
		r.must(r.w.WriteFrames([]pager.Frame{fr(7, equivPage(5, 4000))}, true))
		r.commit(fr(3, b))
		p2, p3, p4 := a3, b, c
		for i := 0; i < 6; i++ {
			p2 = equivPatch(p2, 100*i, 1200, uint32(20+i))
			p3 = equivPatch(p3, 4096-700-200*i, 700, uint32(30+i))
			p4 = equivPatch(p4, 1000, 9+i, uint32(40+i))
			r.commit(fr(2, p2), fr(3, p3), fr(4, p4))
		}
		r.must(r.w.Checkpoint())
		r.commit(fr(2, equivPatch(p2, 8, 16, 50)), fr(8, equivPage(6, 2222)))
		r.commit()
		x := equivPage(7, 900)
		r.commit(fr(9, x), fr(9, equivPatch(x, 300, 64, 51)))
	}},
	{"streams", func(r *equivRun) {
		a, b := equivPage(1, 3000), equivPage(2, 4096)
		r.commit(fr(2, a), fr(3, b))
		cs := func(txns int, streams ...*Stream) { r.t.Helper(); r.must(r.w.CommitStreams(streams, txns)) }
		a2, b2 := equivPatch(a, 100, 10, 10), equivPatch(equivPatch(b, 200, 10, 11), 3000, 500, 12)
		cs(2, r.stream(sp{2, a2, a}), r.stream(sp{3, b2, b}, sp{4, equivPage(3, 1234), nil}))
		x := equivPage(4, 2000)
		cs(1, r.stream(sp{5, equivPatch(x, 40, 5, 13), x}))
		m := equivPage(5, 3500)
		cs(2, r.stream(sp{6, m, nil}), r.stream(sp{6, equivPatch(m, 300, 5, 14), m}))
		z := equivPage(6, 100)
		noop := r.stream(sp{7, z, z})
		cs(1, noop)
		cs(2, noop, r.stream(sp{7, z, nil}))
		for i := 0; i < 3; i++ {
			var ss []*Stream
			for j := 0; j < 3; j++ {
				k := uint32(100 + 10*i + j)
				ss = append(ss, r.stream(sp{uint32(8 + j), equivPage(k, 4096), nil}, sp{11, equivPage(k+50, 3000), nil}))
			}
			cs(3, ss...)
		}
		r.must(r.w.Checkpoint())
		s := r.stream(sp{2, equivPatch(a2, 2000, 64, 15), a2}, sp{12, equivPage(7, 512), equivPage(8, 512)})
		cs(1, s)
		s.Reset()
		r.stageInto(s, sp{3, equivPatch(b2, 0, 4096, 16), b2})
		cs(1, s)
	}},
	{"prepare", func(r *equivRun) {
		a := equivPage(1, 3000)
		r.commit(fr(2, a))
		a2 := equivPatch(a, 777, 33, 10)
		r.must(r.w.PrepareTransaction([]pager.Frame{fr(3, equivPage(2, 4096)), fr(2, a2)}, 7))
		r.must(r.w.CompletePrepared(7))
		r.must(r.w.PrepareTransaction([]pager.Frame{fr(4, equivPage(3, 4096)), fr(5, equivPage(4, 4096))}, 8))
		r.must(r.w.AbortPrepared(8))
		r.must(r.w.PrepareTransaction(nil, 9))
		r.must(r.w.CompletePrepared(9))
		r.must(r.w.PrepareTransaction(nil, 10))
		r.must(r.w.AbortPrepared(10))
		r.commit(fr(5, equivPage(5, 1000)))
		r.must(r.w.Checkpoint())
		r.must(r.w.PrepareTransaction([]pager.Frame{fr(2, equivPatch(a2, 0, 100, 11)), fr(6, equivPage(6, 4096)), fr(7, equivPage(7, 4096))}, 11))
		r.must(r.w.CompletePrepared(11))
		r.must(r.w.PrepareTransaction([]pager.Frame{fr(5, equivPage(5, 1000))}, 12))
		r.must(r.w.CompletePrepared(12))
		r.commit(fr(8, equivPage(8, 10)))
	}},
}

func equivConfigs() []NamedConfig {
	bug := VariantUHLSDiff()
	bug.UnsafeEarlyCommitMark = true
	return append(allVariants(), NamedConfig{"NVWAL UH+LS+Diff early-mark", bug})
}

func runEquivScript(t *testing.T, cfg Config, script func(*equivRun)) equivOutcome {
	e := newEnv(t)
	r := &equivRun{t: t, e: e, w: e.open(t, cfg)}
	script(r)

	h := fnv.New64a()
	fold := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	image := make([]byte, e.dev.Size())
	views := func(w *NVWAL) {
		e.dev.Domain().ReadPersisted(0, image)
		fold(uint64(crc32.ChecksumIEEE(image)))
		e.dev.Read(0, image)
		fold(uint64(crc32.ChecksumIEEE(image)))
		fold(uint64(w.Mark()))
		fold(uint64(w.FramesSinceCheckpoint()))
		fold(uint64(w.Blocks()))
		for pgno := uint32(1); pgno <= equivMaxPage; pgno++ {
			if img, ok := w.PageVersion(pgno); ok {
				fold(uint64(pgno)<<32 | uint64(crc32.ChecksumIEEE(img)))
			}
			for mark := w.Mark() - w.FramesSinceCheckpoint(); mark <= w.Mark(); mark++ {
				if img, ok := w.PageVersionAt(pgno, mark); ok {
					fold(uint64(mark)<<32 | uint64(crc32.ChecksumIEEE(img)))
				}
			}
		}
	}
	views(r.w)
	snap := e.m.Snapshot()
	delete(snap.Counts, metrics.CheckpointNanos) // wall time
	out := equivOutcome{
		Now:      e.clock.Now(),
		Ops:      e.dev.Domain().OpCount(),
		Counters: crc32.ChecksumIEEE([]byte(snap.String())),
	}
	views(e.reopen(t, cfg, memsim.FailDropAll, 20160402))
	out.Hash = h.Sum64()
	return out
}

func TestEntryPointsMatchRecordedGoldens(t *testing.T) {
	for _, sc := range equivScripts {
		for _, v := range equivConfigs() {
			key := sc.name + "/" + v.Name
			got := runEquivScript(t, v.Cfg, sc.run)
			if want := equivGolden[key]; got != want {
				t.Errorf("outcome moved\n\t%q: {Hash: %#x, Now: %d, Ops: %d, Counters: %#x},", key, got.Hash, int64(got.Now), got.Ops, got.Counters)
			}
		}
	}
}
