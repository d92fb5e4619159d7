package repro

// One benchmark per table/figure of the paper's evaluation. Each runs
// the corresponding experiment and reports the headline quantity as a
// custom metric in *virtual* time (the simulation is deterministic;
// wall-clock ns/op only measures the simulator itself).
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/experiments"
	"repro/internal/mobibench"
	"repro/internal/platform"
)

const benchTxns = 100

func BenchmarkTable1FlushesPerTxn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rows[0].Flushes, "flushes/txn(K=1)")
		b.ReportMetric(r.Rows[len(r.Rows)-1].Flushes, "flushes/txn(K=32)")
	}
}

func BenchmarkTable2BytesPerTxn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Reduction(mobibench.Insert, 0)*100, "insert-diff-saving-%")
		b.ReportMetric(r.FramesPerBlock, "frames/block")
	}
}

func BenchmarkFig5LazyVsEager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		l, e := fig5Cell(r, 32, true), fig5Cell(r, 32, false)
		b.ReportMetric(float64(l.Ordering().Microseconds()), "lazy-ordering-us(K=32)")
		b.ReportMetric(float64(e.Ordering().Microseconds()), "eager-ordering-us(K=32)")
	}
}

func BenchmarkFig6OverheadPercent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig5Cell(r, 1, true).OverheadPercent(), "overhead-%(K=1)")
		b.ReportMetric(fig5Cell(r, 32, true).OverheadPercent(), "overhead-%(K=32)")
	}
}

func fig5Cell(r *experiments.Fig5Result, k int, lazy bool) *experiments.Fig5Cell {
	return experiments.Find(r.Cells, func(c experiments.Fig5Cell) bool { return c.InsertsPerTxn == k && c.Lazy == lazy })
}

func BenchmarkFig7Variants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7(mobibench.Insert, benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		slow := r.Latencies[len(r.Latencies)-1]
		tput := func(v string) float64 {
			return experiments.Find(r.Points, func(p experiments.Fig7Point) bool { return p.Variant == v && p.Latency == slow }).Throughput
		}
		b.ReportMetric(tput("NVWAL UH+LS+Diff"), "UH+LS+Diff-txn/s@1942ns")
		b.ReportMetric(tput("NVWAL LS"), "LS-txn/s@1942ns")
	}
}

func BenchmarkFig8BlockTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.JournalReduction()*100, "journal-saving-%")
	}
}

func BenchmarkFig9NVWALvsFlash(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup(2*time.Microsecond), "speedup-x@2us")
		wal := experiments.Find(r.Points, func(p experiments.Fig9Point) bool { return p.Series == experiments.Fig9Series[2] })
		b.ReportMetric(wal.Throughput, "wal-txn/s")
	}
}

func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Baselines(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		tput := func(mode string) float64 {
			return experiments.Find(r.Rows, func(row experiments.BaselineRow) bool { return row.Mode == mode }).Throughput
		}
		b.ReportMetric(tput("Rollback journal"), "rollback-txn/s")
		b.ReportMetric(tput("NVWAL UH+LS+Diff"), "nvwal-txn/s")
	}
}

func BenchmarkPersistencyModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Persistency(benchTxns)
		if err != nil {
			b.Fatal(err)
		}
		slow := r.Latencies[len(r.Latencies)-1]
		tput := func(m string) float64 {
			return experiments.Find(r.Points, func(p experiments.PersistencyPoint) bool { return p.Model == m && p.Latency == slow }).Throughput
		}
		b.ReportMetric(tput("Epoch persistency"), "epoch-txn/s@1942ns")
		b.ReportMetric(tput("Strict persistency"), "strict-txn/s@1942ns")
	}
}

// BenchmarkCommitPath measures the simulator's own wall-clock cost of
// one NVWAL commit (not a paper figure; a sanity benchmark for the
// reproduction itself). ReportAllocs makes allocs/op part of the
// default output: the zero-copy commit path is audited by allocation
// count, not just latency (DESIGN.md §15).
func BenchmarkCommitPath(b *testing.B) {
	plat, err := platform.NewNexus5()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	d, err := db.Open(plat, "bench.db", db.Options{
		Journal: db.JournalNVWAL,
		NVWAL:   core.VariantUHLSDiff(),
		CPU:     db.CPUNexus5,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := d.Begin()
		if err != nil {
			b.Fatal(err)
		}
		key := []byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)}
		if err := tx.Insert("t", key, val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
