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
