package metrics

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestEveryConstantIsInTheTable: a key constant added to metrics.go but
// not to the lists the table is built from would panic at its first
// Inc; this fails first, naming it.
func TestEveryConstantIsInTheTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "metrics.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, v := range vs.Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				seen++
				if _, ok := cellIndex[name]; !ok {
					t.Errorf("constant %s = %q is not in the name table", vs.Names[i].Name, name)
				}
			}
		}
	}
	if seen == 0 || seen != len(cellNames) {
		t.Fatalf("parsed %d key constants, table holds %d names", seen, len(cellNames))
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestUnknownNameIsRefused: a name outside the table is a loud failure
// where it is bound or used, never a counter that silently goes nowhere.
func TestUnknownNameIsRefused(t *testing.T) {
	var c Counters
	mustPanic(t, "Cell(unknown)", func() { c.Cell("no_such_counter") })
	mustPanic(t, "Inc(unknown)", func() { c.Inc("no_such_counter", 1) })
	mustPanic(t, "AddTime(unknown)", func() { c.AddTime("t_no_such_phase", time.Second) })
	mustPanic(t, "Count(unknown)", func() { c.Count("no_such_counter") })
	mustPanic(t, "Inc(a time)", func() { c.Inc(TimeFlush, 1) })
	mustPanic(t, "AddTime(a counter)", func() { c.AddTime(Syscall, time.Second) })
	mustPanic(t, "registering a name twice", func() { RegisterCounter(Syscall) })
	if s := c.Snapshot(); len(s.Counts)+len(s.Times) != 0 {
		t.Fatalf("refused names left something behind: %v", s)
	}
}

// TestSnapshotListsExactlyWhatWasAddedTo: untouched names are absent, a
// zero delta still lists its name, and by-name and bound adds land in
// the same cell.
func TestSnapshotListsExactlyWhatWasAddedTo(t *testing.T) {
	var c Counters
	c.Inc(ReplFramesShipped, 0)
	c.Cell(Fsync).Add(2)
	c.Inc(Fsync, 3)
	c.Cell(TimeBlockIO).Add(int64(5 * time.Microsecond))
	s := c.Snapshot()
	if len(s.Counts) != 2 || len(s.Times) != 1 {
		t.Fatalf("snapshot lists %v / %v, want exactly repl_frames_shipped, fsync / t_block_io", s.Counts, s.Times)
	}
	if v, ok := s.Counts[ReplFramesShipped]; !ok || v != 0 {
		t.Fatalf("zero-delta counter: %d, present %v", v, ok)
	}
	if s.Count(Fsync) != 5 || s.Time(TimeBlockIO) != 5*time.Microsecond {
		t.Fatalf("fsync %d, t_block_io %v", s.Count(Fsync), s.Time(TimeBlockIO))
	}
}

// TestResetKeepsBoundCells: Reset zeroes in place, so a cell handed out
// before it keeps counting into the same Counters after it.
func TestResetKeepsBoundCells(t *testing.T) {
	var c Counters
	cell := c.Cell(BlockWrite)
	cell.Add(9)
	c.Reset()
	if s := c.Snapshot(); len(s.Counts) != 0 || c.Count(BlockWrite) != 0 {
		t.Fatalf("Reset left %v", s.Counts)
	}
	cell.Add(4)
	if got := c.Snapshot().Count(BlockWrite); got != 4 {
		t.Fatalf("cell bound before Reset counted %d after it, want 4", got)
	}
	if c.Cell(BlockWrite) != cell {
		t.Fatal("a name's cell moved")
	}
}

// TestConcurrentCellsAndNames: 8 goroutines mix bound-cell adds with
// by-name Inc/AddTime on two registry members while another goroutine
// keeps taking Snapshots and Aggregates. Every observation is monotone
// and the final sums are exact. Run under -race.
func TestConcurrentCellsAndNames(t *testing.T) {
	const workers, rounds = 8, 2000
	r := NewRegistry()
	members := []*Counters{r.Counters("a"), r.Counters("b")}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var lastAgg, lastSnap int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			agg := r.Aggregate().Count(NVRAMLineWrites)
			snap := members[0].Snapshot().Count(NVRAMLineWrites)
			if agg < lastAgg || snap < lastSnap {
				t.Errorf("a counter went backwards: aggregate %d after %d, snapshot %d after %d", agg, lastAgg, snap, lastSnap)
				return
			}
			lastAgg, lastSnap = agg, snap
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := members[w%2]
			lines, flush := c.Cell(NVRAMLineWrites), c.Cell(TimeFlush)
			for i := 0; i < rounds; i++ {
				lines.Add(1)
				c.Inc(NVRAMLineWrites, 2)
				flush.Add(int64(time.Nanosecond))
				c.AddTime(TimeFlush, 3*time.Nanosecond)
				c.Inc(Syscall, 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	agg := r.Aggregate()
	if got, want := agg.Count(NVRAMLineWrites), int64(workers*rounds*3); got != want {
		t.Fatalf("nvram_line_writes = %d, want %d", got, want)
	}
	if got, want := agg.Time(TimeFlush), time.Duration(workers*rounds*4); got != want {
		t.Fatalf("t_flush = %v, want %v", got, want)
	}
	for i, c := range members {
		if got, want := c.Count(Syscall), int64(workers/2*rounds); got != want {
			t.Fatalf("member %d syscalls = %d, want %d", i, got, want)
		}
	}
}

// BenchmarkCountersAdd: what one counter update costs a hot component
// (a bound cell) and everyone else (lookup by name), contended.
func BenchmarkCountersAdd(b *testing.B) {
	b.Run("bound", func(b *testing.B) {
		var c Counters
		cell := c.Cell(NVRAMLineWrites)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				cell.Add(1)
			}
		})
	})
	b.Run("by-name", func(b *testing.B) {
		var c Counters
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc(NVRAMLineWrites, 1)
			}
		})
	})
}
