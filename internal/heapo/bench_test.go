package heapo

import "testing"

// BenchmarkReserveInto is the admission a commit pays: one reservation
// on a 64 MiB (16 k-page) heap that already holds live log blocks and a
// recycled pool, released again as the commit's end does.
func BenchmarkReserveInto(b *testing.B) {
	h, _, _ := newHeap(b, 64<<20)
	h.EnsureHeadroom(2)
	var live []Block
	for i := 0; i < 96; i++ {
		blk, err := h.NVMalloc(2 * PageSize)
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, blk)
	}
	for _, blk := range live[:64] {
		if err := h.Recycle(blk); err != nil {
			b.Fatal(err)
		}
	}
	var r Reservation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.ReserveInto(&r, 2, 2*PageSize); err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}
