package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPersistencyModelShapes(t *testing.T) {
	r, err := Persistency(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	point := func(m string, lat time.Duration) *PersistencyPoint {
		return Find(r.Points, func(p PersistencyPoint) bool { return p.Model == m && p.Latency == lat })
	}
	tput := func(m string, lat time.Duration) float64 { return point(m, lat).Throughput }
	slow := r.Latencies[len(r.Latencies)-1]
	// §4.4 conjectures: relaxed (epoch) persistency is the fastest; it
	// beats strict persistency at every latency.
	for _, lat := range r.Latencies {
		if tput("Epoch persistency", lat) < tput("Strict persistency", lat) {
			t.Fatalf("epoch not faster than strict at %v", lat)
		}
	}
	// Both hardware models remove explicit flush instructions.
	for _, m := range []string{"Strict persistency", "Epoch persistency"} {
		p := point(m, slow)
		if p == nil || p.Flushes > 1 {
			t.Fatalf("%s issued %v dccmvac per txn", m, p.Flushes)
		}
	}
	// The software schemes do flush explicitly.
	if p := point("Lazy (software)", slow); p == nil || p.Flushes < 5 {
		t.Fatalf("software lazy flushes = %+v", p)
	}
	// Epoch persistency also beats the software schemes (no kernel
	// crossings).
	if tput("Epoch persistency", slow) < tput("Lazy (software)", slow) {
		t.Fatal("epoch persistency slower than software lazy")
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "Persistency-model") {
		t.Fatal("printer output malformed")
	}
}

func TestPreallocShapes(t *testing.T) {
	r, err := Prealloc(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	var stock, p8, p32 *PreallocRow
	for i := range r.Rows {
		switch r.Rows[i].InitialPages {
		case 0:
			stock = &r.Rows[i]
		case 8:
			p8 = &r.Rows[i]
		case 32:
			p32 = &r.Rows[i]
		}
	}
	if stock == nil || p8 == nil || p32 == nil {
		t.Fatalf("missing rows: %+v", r.Rows)
	}
	// Pre-allocation beats stock on both throughput and journal bytes.
	if p8.Throughput <= stock.Throughput {
		t.Fatalf("prealloc throughput %f <= stock %f", p8.Throughput, stock.Throughput)
	}
	if p8.JournalKB >= stock.JournalKB {
		t.Fatalf("prealloc journal %f >= stock %f", p8.JournalKB, stock.JournalKB)
	}
	// The trade-off: pre-allocation leaves unused log pages behind
	// ("it may waste several disk pages if there is no next
	// transaction", §5.4). Exactly which policy wastes most depends on
	// where the doubling schedule lands relative to the workload, so
	// only the existence of waste is asserted.
	if p32.WastedPages == 0 && p8.WastedPages == 0 {
		t.Fatal("pre-allocation policies wasted no pages; the trade-off is invisible")
	}
}

func TestBaselinesOrdering(t *testing.T) {
	r, err := Baselines(testTxns)
	if err != nil {
		t.Fatal(err)
	}
	row := func(mode string) *BaselineRow {
		return Find(r.Rows, func(b BaselineRow) bool { return b.Mode == mode })
	}
	rb := row("Rollback journal")
	sw := row("Stock WAL")
	ow := row("Optimized WAL")
	nv := row("NVWAL UH+LS+Diff")
	if rb == nil || sw == nil || ow == nil || nv == nil {
		t.Fatalf("missing rows: %+v", r.Rows)
	}
	// §1/§2: rollback < stock WAL < optimized WAL << NVWAL.
	if !(rb.Throughput < sw.Throughput && sw.Throughput < ow.Throughput && ow.Throughput < nv.Throughput) {
		t.Fatalf("mode ordering wrong: %+v", r.Rows)
	}
	// Rollback journaling syncs two files; WAL one; NVWAL none.
	if rb.FsyncsPerTx <= sw.FsyncsPerTx {
		t.Fatalf("rollback fsyncs (%f) not above WAL's (%f)", rb.FsyncsPerTx, sw.FsyncsPerTx)
	}
	if nv.FsyncsPerTx != 0 || nv.BlockIOPerTx != 0 {
		t.Fatalf("NVWAL touched flash on the commit path: %+v", nv)
	}
	if nv.NVRAMPerTx <= 0 {
		t.Fatal("NVWAL logged no NVRAM bytes")
	}
}

func TestGroupCommitShapes(t *testing.T) {
	r, err := GroupCommit(150)
	if err != nil {
		t.Fatal(err)
	}
	tput := func(g int) float64 {
		return Find(r.Rows, func(row GroupCommitRow) bool { return row.GroupSize == g }).Throughput
	}
	// Grouping never hurts, and the gain is modest — the paper's own
	// point that ordering overhead is a small share of transaction time.
	if tput(16) < tput(1) {
		t.Fatalf("group commit slowed things down: %+v", r.Rows)
	}
	if gain := tput(16) / tput(1); gain > 1.2 {
		t.Fatalf("group-commit gain %.2fx implausibly large for a CPU-bound workload", gain)
	}
}

func TestChecksumStudyShapes(t *testing.T) {
	r, err := ChecksumStudy(60)
	if err != nil {
		t.Fatal(err)
	}
	corruptionRate := func(bits int) float64 {
		row := Find(r.Rows, func(row ChecksumRow) bool { return row.Bits == bits })
		return float64(row.Corrupted) / float64(row.Trials)
	}
	// The full CRC32 never admits corruption.
	if got := corruptionRate(32); got != 0 {
		t.Fatalf("32-bit CRC corruption rate = %f", got)
	}
	// Severely narrowed checksums do corrupt (the §4.2 hazard made
	// visible) — allow the 2-bit row to demonstrate it.
	if corruptionRate(2) == 0 && corruptionRate(4) == 0 {
		t.Fatal("narrowed checksums never corrupted; the study shows nothing")
	}
	// Every trial ends in one of the three outcomes.
	for _, row := range r.Rows {
		if row.Survived+row.Dropped+row.Corrupted != row.Trials {
			t.Fatalf("outcome accounting broken: %+v", row)
		}
	}
}

func TestCheckpointStallShapes(t *testing.T) {
	r, err := CheckpointStall(160)
	if err != nil {
		t.Fatal(err)
	}
	p99 := func(mode string, writers int) int64 {
		return Find(r.Rows, func(row CheckpointRow) bool { return row.Mode == mode && row.Writers == writers }).P99CommitNs
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Txns == 0 || row.P99CommitNs == 0 {
			t.Fatalf("empty measurement: %+v", row)
		}
		if row.P99CommitNs < row.P50CommitNs {
			t.Fatalf("p99 below p50: %+v", row)
		}
	}
	// The blocking baseline runs its rounds inline from the commit path,
	// so its checkpoint count must be substantial (one per ~limit frames);
	// the background mode must have checkpointed at least once too —
	// otherwise the comparison measured nothing.
	for _, row := range r.Rows {
		if row.Checkpoints == 0 {
			t.Fatalf("%s/%d writers ran no checkpoint rounds: %+v", row.Mode, row.Writers, row)
		}
	}
	// Wall-clock latency comparisons are load-sensitive, so the shape
	// check stays coarse: with one writer the background p99 must not be
	// dramatically WORSE than blocking (it has strictly less work on the
	// commit path). Allow 2x slack for scheduler noise.
	if bg, bl := p99("background", 1), p99("blocking", 1); bg > 2*bl {
		t.Fatalf("background p99 %dns > 2x blocking p99 %dns", bg, bl)
	}
}

func TestPressureShapes(t *testing.T) {
	r, err := Pressure(120)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	var urgentOnSmallest int64
	for _, row := range r.Rows {
		// The headline property: every transaction either committed or came
		// back ErrBusy — Pressure returns an error for anything else, so
		// reaching here with full accounting is the assertion.
		if row.Committed+row.Busy != row.Txns {
			t.Fatalf("unaccounted transactions: %+v", row)
		}
		if row.Committed == 0 {
			t.Fatalf("no commits ever succeeded: %+v", row)
		}
		if row.P99CommitNs < row.P50CommitNs {
			t.Fatalf("p99 below p50: %+v", row)
		}
		if row.HeapPages == 24 {
			urgentOnSmallest += row.UrgentCkpts
		}
	}
	// A 24-page heap cannot absorb 120 1KB overwrites without the
	// watermarks checkpointing early; zero urgent rounds would mean the
	// sweep exercised no pressure at all.
	if urgentOnSmallest == 0 {
		t.Fatal("24-page cells triggered no urgent checkpoints")
	}
}

func TestShardsShapes(t *testing.T) {
	r, err := Shards(96)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(shards, writers int) *ShardRow {
		return Find(r.Rows, func(row ShardRow) bool { return row.Shards == shards && row.Writers == writers })
	}
	// 3 baseline cells (shards=0) + 4 shard counts × 3 writer counts.
	if len(r.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Committed+row.Busy != row.Txns {
			t.Fatalf("unaccounted transactions: %+v", row)
		}
		if row.Committed == 0 {
			t.Fatalf("no commits ever succeeded: %+v", row)
		}
		if row.P99CommitNs < row.P50CommitNs {
			t.Fatalf("p99 below p50: %+v", row)
		}
	}
	// The headline property survives even a tiny sweep: with 32 writers,
	// 8 shards on 8 lanes must out-commit 1 shard per unit virtual time.
	one, eight := rowOf(1, 32), rowOf(8, 32)
	if one == nil || eight == nil {
		t.Fatal("sweep missing the 1- or 8-shard 32-writer cell")
	}
	if eight.Throughput < 2*one.Throughput {
		t.Fatalf("8 shards only %.2fx over 1 at 32 writers",
			eight.Throughput/one.Throughput)
	}
	// The shard layer may not tax the single-shard path: shards=1 stays
	// in the same latency regime as the bare engine (loose 2x bound —
	// the committed full-size run pins it within 10%).
	base := rowOf(0, 1)
	if s1 := rowOf(1, 1); s1.P50CommitNs > 2*base.P50CommitNs {
		t.Fatalf("shards=1 p50 %dns vs bare-engine %dns", s1.P50CommitNs, base.P50CommitNs)
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "scale-out") {
		t.Fatal("printer output missing header")
	}
}

func TestMVCCShapes(t *testing.T) {
	r, err := MVCC(256)
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(mode string, writers int) *MVCCRow {
		return Find(r.Rows, func(row MVCCRow) bool { return row.Mode == mode && row.Writers == writers })
	}
	// 2 modes × 4 writer counts.
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Committed == 0 {
			t.Fatalf("no commits ever succeeded: %+v", row)
		}
		if row.P99CommitNs < row.P50CommitNs {
			t.Fatalf("p99 below p50: %+v", row)
		}
		if row.Conflicts > 0 && row.Mode == "legacy" {
			t.Fatalf("legacy slot transactions can never conflict: %+v", row)
		}
	}
	// The headline property survives a tiny sweep: sessions on
	// independent CPU lanes out-commit slot-serialized writers per unit
	// virtual time, and keep scaling with writers (loose bounds — the
	// committed full-size run pins 6.4x at 64 writers).
	l8, m8, m64 := rowOf("legacy", 8), rowOf("mvcc", 8), rowOf("mvcc", 64)
	if l8 == nil || m8 == nil || m64 == nil {
		t.Fatal("sweep missing a mode/writer cell")
	}
	if m8.Throughput < 2*l8.Throughput {
		t.Fatalf("mvcc only %.2fx over legacy at 8 writers", m8.Throughput/l8.Throughput)
	}
	if m64.Throughput < 1.5*m8.Throughput {
		t.Fatalf("mvcc at 64 writers only %.2fx over 8", m64.Throughput/m8.Throughput)
	}
	var b bytes.Buffer
	r.Print(&b)
	if !strings.Contains(b.String(), "MVCC sweep") {
		t.Fatal("printer output missing header")
	}
}
