package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/pager"
)

// GroupCommitRow is one group size's measurement.
type GroupCommitRow struct {
	GroupSize  int
	Throughput float64 // logical transactions per second
}

// GroupCommitResult holds the ablation sweep.
type GroupCommitResult struct {
	Latency time.Duration
	Rows    []GroupCommitRow
}

// GroupCommit measures an extension the paper's design enables but does
// not evaluate: amortizing the commit synchronization across several
// transactions. sqliteWriteWalFramesToNVRAM takes a commit flag
// (Algorithm 1), so a group of G transactions can share one
// flush-batch + commit-mark persist — at the cost of group-level
// durability (a crash loses the whole in-flight group, never a prefix
// of it, because only the final frame carries the mark).
//
// The sweep runs single-insert logical transactions against NVWAL
// UH+LS+Diff on Tuna at the slow end of the latency range, where the
// ordering overhead is most visible.
func GroupCommit(txns int) (*GroupCommitResult, error) {
	if txns <= 0 {
		txns = 400
	}
	const latency = 1942 * time.Nanosecond
	res := &GroupCommitResult{Latency: latency}
	for _, g := range []int{1, 2, 4, 8, 16} {
		s, err := NewNVWALSetup(Tuna, core.VariantUHLSDiff(), -1)
		if err != nil {
			return nil, err
		}
		s.Plat.SetNVRAMLatency(latency)
		nv, ok := s.DB.Journal().(*core.NVWAL)
		if !ok {
			return nil, fmt.Errorf("journal is not NVWAL")
		}
		// Work against raw page images: each logical transaction dirties
		// one page with a small change, like the Figure 7 inserts.
		base := make([]byte, 4096)
		pages := make(map[uint32][]byte)
		cpu := Tuna.cpu()
		start := s.Plat.Clock.Now()
		for i := 0; i < txns; i++ {
			pgno := uint32(2 + i%32)
			img, okp := pages[pgno]
			if !okp {
				img = append([]byte(nil), base...)
			}
			img = append([]byte(nil), img...)
			off := 64 + (i/32)*8%3800
			for b := 0; b < 100; b++ {
				img[off+b%128] = byte(i + b)
			}
			pages[pgno] = img
			// Query-processing CPU cost per logical transaction.
			s.Plat.Clock.Advance(cpu.TxnFixed + cpu.PerOp)
			commit := (i+1)%g == 0 || i == txns-1
			if err := nv.WriteFrames([]pager.Frame{{Pgno: pgno, Data: img}}, commit); err != nil {
				return nil, err
			}
		}
		elapsed := s.Plat.Clock.Now() - start
		res.Rows = append(res.Rows, GroupCommitRow{
			GroupSize:  g,
			Throughput: perSecond(txns, elapsed),
		})
	}
	return res, nil
}

// Print renders the sweep.
func (r *GroupCommitResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Group-commit ablation (NVWAL UH+LS+Diff, Tuna @ %v NVRAM latency)\n", r.Latency)
	fmt.Fprintf(w, "%-12s %12s\n", "group size", "txn/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12d %12.0f\n", row.GroupSize, row.Throughput)
	}
	fmt.Fprintln(w, "durability coarsens to group granularity; atomicity is preserved (one commit mark per group)")
}
