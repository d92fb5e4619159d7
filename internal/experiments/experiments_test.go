package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/mobibench"
)

// These tests pin the reproduction targets: each experiment's *shape*
// must match the paper (who wins, roughly by what factor, where the
// crossovers fall). Transaction counts are reduced for test speed; the
// bench harness runs the full sizes.

const testTxns = 60

func TestTable1FlushesGrowWithBatchSize(t *testing.T) {
	r, err := Table1(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(kSweep) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Flushes <= r.Rows[i-1].Flushes {
			t.Fatalf("flushes not increasing: %+v", r.Rows)
		}
	}
	// K=1 lands in the Table 1 ballpark (tens of flushes, not hundreds:
	// differential logging keeps single-insert transactions small).
	if f := r.Rows[0].Flushes; f < 5 || f > 60 {
		t.Fatalf("K=1 flushes = %.1f, want tens", f)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "cache line flushes") {
		t.Fatal("Print output malformed")
	}
}

func TestTable2DifferentialSavesMostForInsert(t *testing.T) {
	r, err := Table2(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.OpsPerTxn {
		ins := r.Reduction(mobibench.Insert, i)
		upd := r.Reduction(mobibench.Update, i)
		del := r.Reduction(mobibench.Delete, i)
		if ins <= 0 || upd <= 0 || del <= 0 {
			t.Fatalf("differential logging increased I/O at column %d: ins=%.2f upd=%.2f del=%.2f", i, ins, upd, del)
		}
		// The paper's per-op ranges overlap (insert 73–84%, update
		// 29–85%, delete 49–69%), so only positivity holds pointwise;
		// the small-K insert band is checked below.
		_ = upd
	}
	// §5.2: single-insert transactions benefit the most from
	// differential logging.
	if ins1 := r.Reduction(mobibench.Insert, 0); ins1 < r.Reduction(mobibench.Delete, 0) {
		t.Fatalf("K=1 insert reduction (%.2f) below delete's (%.2f)", ins1, r.Reduction(mobibench.Delete, 0))
	}
	// Insert reduction in the paper's 73–84%% band (we accept 60–97%%).
	if red := r.Reduction(mobibench.Insert, 0); red < 0.60 || red > 0.97 {
		t.Fatalf("insert K=1 reduction = %.0f%%, want roughly the paper's 73–84%%", red*100)
	}
	// §3.3: several frames share one 8 KB block under differential
	// logging (paper: 4.9).
	if r.FramesPerBlock < 2 || r.FramesPerBlock > 12 {
		t.Fatalf("frames per block = %.1f, want a small multiple (paper 4.9)", r.FramesPerBlock)
	}
}

func TestFigure5LazyBeatsEagerOnOrdering(t *testing.T) {
	r, err := Figure5(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(k int, lazy bool) *Fig5Cell {
		return Find(r.Cells, func(c Fig5Cell) bool { return c.InsertsPerTxn == k && c.Lazy == lazy })
	}
	for _, k := range kSweep {
		l, e := cell(k, true), cell(k, false)
		if l == nil || e == nil {
			t.Fatalf("missing cells for K=%d", k)
		}
		if l.Ordering() >= e.Ordering() {
			t.Fatalf("K=%d: lazy ordering overhead %v not below eager %v", k, l.Ordering(), e.Ordering())
		}
		// memcpy time is scheme-independent (§5.1: "amounts of time
		// spent on memcpy in both schemes are similar").
		diff := float64(l.Memcpy-e.Memcpy) / float64(e.Memcpy)
		if diff < -0.1 || diff > 0.1 {
			t.Fatalf("K=%d: memcpy differs by %.0f%% between schemes", k, diff*100)
		}
	}
	// The dccmvac(+dmb) component of eager is a few percent to a few
	// tens of percent slower (paper: 2–23%).
	l32, e32 := cell(32, true), cell(32, false)
	ratio := float64(e32.Dccmvac+e32.Dmb) / float64(l32.Dccmvac+l32.Dmb)
	if ratio < 1.01 || ratio > 1.6 {
		t.Fatalf("eager/lazy dccmvac+dmb ratio = %.2f, want within the paper's up-to-23%% band", ratio)
	}
}

func TestFigure6OverheadSmallAndDecreasing(t *testing.T) {
	r, err := Figure5(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(k int, lazy bool) *Fig5Cell {
		return Find(r.Cells, func(c Fig5Cell) bool { return c.InsertsPerTxn == k && c.Lazy == lazy })
	}
	first := cell(kSweep[0], true)
	last := cell(kSweep[len(kSweep)-1], true)
	if first.OverheadPercent() > 6.0 {
		t.Fatalf("K=1 overhead = %.1f%%, paper reports at most 4.6%%", first.OverheadPercent())
	}
	if last.OverheadPercent() >= first.OverheadPercent() {
		t.Fatalf("overhead %% must fall with K: K=1 %.1f%%, K=32 %.1f%%",
			first.OverheadPercent(), last.OverheadPercent())
	}
}

func TestFigure7VariantOrderingAndLatencySensitivity(t *testing.T) {
	r, err := Figure7(mobibench.Insert, testTxns)
	if err != nil {
		t.Fatal(err)
	}
	tput := func(v string, lat time.Duration) float64 {
		return Find(r.Points, func(p Fig7Point) bool { return p.Variant == v && p.Latency == lat }).Throughput
	}
	slow := r.Latencies[len(r.Latencies)-1]
	// Throughput decreases with latency for every variant.
	for _, v := range r.Variants {
		prev := tput(v, r.Latencies[0])
		for _, lat := range r.Latencies[1:] {
			cur := tput(v, lat)
			if cur > prev {
				t.Fatalf("%s: throughput rose with latency (%f -> %f)", v, prev, cur)
			}
			prev = cur
		}
	}
	at := func(v string) float64 { return tput(v, slow) }
	// Figure 7 ordering at high latency: UH+CS+Diff fastest; each
	// technique helps.
	if !(at("NVWAL UH+CS+Diff") >= at("NVWAL UH+LS+Diff") &&
		at("NVWAL UH+LS+Diff") > at("NVWAL LS+Diff") &&
		at("NVWAL LS+Diff") > at("NVWAL LS") &&
		at("NVWAL UH+LS") > at("NVWAL LS")) {
		t.Fatalf("variant ordering wrong at %v: %+v", slow, r.Points)
	}
	// §5.3: UH+LS+Diff is comparable to (within ~10%% of) UH+CS+Diff.
	if gap := at("NVWAL UH+CS+Diff") / at("NVWAL UH+LS+Diff"); gap > 1.10 {
		t.Fatalf("UH+LS+Diff not comparable to UH+CS+Diff: gap %.2fx", gap)
	}
	// Abstract anchor: one-fifth latency gives only a few %% gain for
	// UH+LS+Diff (2517 -> 2621 ins/s, ~4%%).
	gain := tput("NVWAL UH+LS+Diff", r.Latencies[0]) /
		tput("NVWAL UH+LS+Diff", slow)
	if gain < 1.0 || gain > 1.12 {
		t.Fatalf("latency insensitivity broken: 437ns/1942ns gain = %.2fx (paper ~1.04x)", gain)
	}
}

func TestFigure8OptimizedWALCutsJournalTraffic(t *testing.T) {
	r, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	red := r.JournalReduction()
	if red < 0.25 || red > 0.55 {
		t.Fatalf("journal reduction = %.0f%%, paper ~40%%", red*100)
	}
	if r.Optimized.BatchTime >= r.Stock.BatchTime {
		t.Fatalf("optimized batch (%v) not faster than stock (%v)", r.Optimized.BatchTime, r.Stock.BatchTime)
	}
	if len(r.Stock.Events) == 0 || len(r.Optimized.Events) == 0 {
		t.Fatal("empty block traces")
	}
	// Stock WAL writes more .db-wal blocks (misaligned frames).
	if r.Stock.ByTag["db-wal"] <= r.Optimized.ByTag["db-wal"] {
		t.Fatal("stock WAL did not show frame-misalignment write amplification")
	}
}

func TestFigure9HeadlineSpeedupAndCrossovers(t *testing.T) {
	r, err := Figure9(200)
	if err != nil {
		t.Fatal(err)
	}
	tput := func(s string, lat time.Duration) float64 {
		return Find(r.Points, func(p Fig9Point) bool { return p.Series == s && p.Latency == lat }).Throughput
	}
	// Headline: >= 10x over WAL on flash at 2 µs (§1, §5.4).
	if s := r.Speedup(2 * time.Microsecond); s < 9.0 {
		t.Fatalf("speedup at 2µs = %.1fx, paper >= 10x", s)
	}
	// Optimized WAL beats stock WAL.
	lat0 := r.Latencies[0]
	if tput(Fig9Series[2], lat0) <= tput(Fig9Series[3], lat0) {
		t.Fatal("optimized WAL not faster than stock WAL")
	}
	// LS crosses the WAL baseline around 47 µs (within our sweep's
	// granularity), and much earlier than UH+LS+Diff.
	lsCross := r.Crossover(Fig9Series[1])
	if lsCross == 0 || lsCross < 22*time.Microsecond || lsCross > 100*time.Microsecond {
		t.Fatalf("LS crossover = %v, paper ~47µs", lsCross)
	}
	uhCross := r.Crossover(Fig9Series[0])
	if uhCross != 0 && uhCross < 160*time.Microsecond {
		t.Fatalf("UH+LS+Diff crossover = %v, paper ~230µs", uhCross)
	}
	// NVWAL throughput decreases monotonically with latency.
	for _, s := range Fig9Series[:2] {
		prev := tput(s, r.Latencies[0])
		for _, lat := range r.Latencies[1:] {
			cur := tput(s, lat)
			if cur > prev {
				t.Fatalf("%s: throughput rose with latency", s)
			}
			prev = cur
		}
	}
}

// TestPrintersProduceOutput runs the paper's figures and the baselines
// study small and checks that each printer writes its header.
func TestPrintersProduceOutput(t *testing.T) {
	r5, err := Figure5(20)
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Figure7(mobibench.Insert, 20)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Figure9(20)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Baselines(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		print  func(io.Writer)
		header string
	}{
		{r5.Print, "Figure 5"},
		{r5.WriteFigure6, "Figure 6"},
		{r7.Print, "Figure 7(insert)"},
		{r8.Print, "EXT4 journal traffic reduction"},
		{r9.Print, "speedup of UH+LS+Diff over optimized WAL"},
		{rb.Print, "Journaling baselines"},
	} {
		var b bytes.Buffer
		p.print(&b)
		if !strings.Contains(b.String(), p.header) {
			t.Errorf("printer output lacks %q:\n%s", p.header, b.String())
		}
	}
}
