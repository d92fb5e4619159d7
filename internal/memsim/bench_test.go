package memsim

import "testing"

// BenchmarkPersistBarrierAfterBurst is one small commit's flush and
// barriers on a domain whose line map once held 300 k lines (a
// populate, a replica seed): the barrier must cost what it persists,
// not what the map grew to.
func BenchmarkPersistBarrierAfterBurst(b *testing.B) {
	d, _, _ := newDomain(b, Config{Size: 16 << 20})
	ls := uint64(d.LineSize())
	burst := make([]byte, 128*ls)
	for l := uint64(0); l < 300_000; l += 128 {
		d.Write(l*ls, burst)
	}
	d.PersistBarrier()
	frame := make([]byte, 4*ls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%1024) * 4 * ls
		d.Write(addr, frame)
		d.CacheLineFlush(addr, addr+uint64(len(frame)))
		d.MemoryBarrier()
		d.PersistBarrier()
	}
}

// BenchmarkCommitShapedFlush is the NVRAM half of one served PUT: a
// frame header and a page's worth of differential payload stored as one
// gather write over 48 lines, the lazy flush batch, dmb, persist
// barrier. ns/line is the host cost the simulator adds per cache line a
// commit flushes, everything included.
func BenchmarkCommitShapedFlush(b *testing.B) {
	const lines = 48
	d, _, _ := newDomain(b, Config{Size: 16 << 20})
	ls := uint64(d.LineSize())
	hdr, payload := make([]byte, ls), make([]byte, (lines-1)*ls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%2048) * lines * ls
		d.WriteV(addr, hdr, payload)
		d.CacheLineFlush(addr, addr+lines*ls)
		d.MemoryBarrier()
		d.PersistBarrier()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lines, "ns/line")
}

// BenchmarkCommitSequence is the NVRAM side of a two-frame lazy commit
// (Algorithm 1): two frames stored as gather writes, their sync phase
// (dmb, a cache_line_flush syscall and the flushes per frame, dmb,
// persist barrier), the 8-byte commit mark and its own phase. "sync"
// makes each phase one Sync call; "calls" makes the separate
// MemoryBarrier, Syscall, CacheLineFlush and PersistBarrier calls it
// stands for, to the same virtual cost.
func BenchmarkCommitSequence(b *testing.B) {
	for _, oneCall := range []bool{true, false} {
		name := "calls"
		if oneCall {
			name = "sync"
		}
		b.Run(name, func(b *testing.B) {
			d, _, _ := newDomain(b, Config{Size: 16 << 20})
			ls := uint64(d.LineSize())
			hdr, payload := make([]byte, 24), make([]byte, 3*ls)
			frames := make([]AddrRange, 2)
			mark := []AddrRange{{}}
			phase := func(ranges []AddrRange) {
				if oneCall {
					d.Sync(0, ranges, SyncFence|SyncSyscall|SyncPersist)
					return
				}
				d.MemoryBarrier()
				for _, r := range ranges {
					d.Syscall()
					d.CacheLineFlush(r.Start, r.End)
				}
				d.MemoryBarrier()
				d.PersistBarrier()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := uint64(i%4096) * 8 * ls
				for f := range frames {
					d.WriteV(addr, hdr, payload)
					frames[f] = AddrRange{Start: addr, End: addr + uint64(len(hdr)+len(payload))}
					addr += 4 * ls
				}
				phase(frames)
				d.Write(frames[0].Start, hdr[:8])
				mark[0] = AddrRange{Start: frames[0].Start, End: frames[0].Start + 8}
				phase(mark)
			}
		})
	}
}
