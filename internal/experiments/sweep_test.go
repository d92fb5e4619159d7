package experiments

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
)

func TestDriveWritersAccounting(t *testing.T) {
	const writers, perWriter = 4, 25
	out, err := driveWriters(writers, perWriter, func(w, i int) (time.Duration, error) {
		if i%5 == 0 {
			return 0, fmt.Errorf("deadline: %w", db.ErrBusy)
		}
		return time.Duration(perWriter*(writers-w) - i), nil
	})
	if err != nil {
		t.Fatalf("ErrBusy stopped the sweep: %v", err)
	}
	if out.committed+out.busy != writers*perWriter || out.busy != writers*perWriter/5 {
		t.Fatalf("committed %d + busy %d, want %d attempts of which %d busy",
			out.committed, out.busy, writers*perWriter, writers*perWriter/5)
	}
	if len(out.lats) != out.committed || !slices.IsSorted(out.lats) {
		t.Fatalf("%d latencies for %d commits, sorted=%v", len(out.lats), out.committed, slices.IsSorted(out.lats))
	}
}

func TestDriveWritersStopsOnHardError(t *testing.T) {
	hard := errors.New("hard")
	var calls [3]atomic.Int32
	out, err := driveWriters(3, 10, func(w, i int) (time.Duration, error) {
		calls[w].Add(1)
		switch {
		case w == 0 && i == 3:
			return 0, hard
		case w == 0 && i > 3:
			return 0, errors.New("writer 0 ran past its failure")
		case w == 1 && i%2 == 0:
			return 0, db.ErrBusy
		}
		return time.Duration(i), nil
	})
	if !errors.Is(err, hard) {
		t.Fatalf("err = %v, want the hard error", err)
	}
	if got := [3]int32{calls[0].Load(), calls[1].Load(), calls[2].Load()}; got != [3]int32{4, 10, 10} {
		t.Fatalf("calls per writer = %v, want writer 0 stopped at its failure and the others run out", got)
	}
	if out.committed != 3+5+10 || out.busy != 5 {
		t.Fatalf("committed %d busy %d, want 18 and 5: a failed attempt is neither", out.committed, out.busy)
	}
}

// TestFailedInsertDoesNotHangSweep: a body whose Insert fails must roll
// its transaction back. In Concurrent mode a transaction left open holds
// the writer slot, every other writer blocks in Begin, and the sweep never
// returns.
func TestFailedInsertDoesNotHangSweep(t *testing.T) {
	s, err := newSetup(Tuna.newPlatform, db.Options{
		Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, CheckpointLimit: -1,
	}, "bench")
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := driveWriters(4, 20, func(w, i int) (time.Duration, error) {
			key := []byte(fmt.Sprintf("w%d-%d", w, i))
			if w == 2 {
				defer close(failed)
				return commitTxn(s.DB.Begin, s.Plat.Clock.Now, func(tx *db.Tx) error { return tx.Insert("missing", key, key) })
			}
			if i == 0 {
				<-failed // the other writers begin only after the failure
			}
			return commitTxn(s.DB.Begin, s.Plat.Clock.Now, func(tx *db.Tx) error { return tx.Insert("bench", key, key) })
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, db.ErrNoTable) {
			t.Fatalf("sweep returned %v, want the missing table", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep hung after one writer's Insert failed")
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("quantile of nothing = %v, want 0", got)
	}
	qs := []float64{0.5, 0.99, 0.999, 1}
	for _, tc := range []struct {
		n    int
		want []int // index ⌊(n−1)·q⌋ for each q
	}{
		{1, []int{0, 0, 0, 0}},
		{2, []int{0, 0, 0, 1}},
		{100, []int{49, 98, 98, 99}},
		{1000, []int{499, 989, 998, 999}},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i)
		}
		for j, q := range qs {
			if got := quantile(sorted, q); got != time.Duration(tc.want[j]) {
				t.Errorf("n=%d q=%v: index %d, want %d", tc.n, q, got, tc.want[j])
			}
		}
	}
}
