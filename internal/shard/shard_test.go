package shard

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/simclock"
)

func testConfig() platform.Config {
	return platform.Config{
		NVRAM: nvram.Config{
			Size:              32 << 20,
			CacheLineSize:     64,
			NVRAMWriteLatency: 500 * time.Nanosecond,
		},
	}
}

func testOpts() Options {
	return Options{DB: db.Options{NVWAL: core.VariantUHLSDiff()}}
}

func newSharded(t *testing.T, n int) (*Platform, *DB) {
	t.Helper()
	plat, err := NewShared(testConfig(), n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(plat, "test.db", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return plat, s
}

// keyOn fabricates a key routed to the wanted shard by appending a
// counter until the hash lands there.
func keyOn(s *DB, shard int, stem string) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("%s-%d", stem, i))
		if s.ShardOf(k) == shard {
			return k
		}
	}
}

func TestRouterIsStableAndCovering(t *testing.T) {
	_, s := newSharded(t, 4)
	seen := make(map[int]int)
	for i := 0; i < 256; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		a, b := s.ShardOf(k), s.ShardOf(k)
		if a != b {
			t.Fatalf("router unstable for %q: %d vs %d", k, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("router out of range: %d", a)
		}
		seen[a]++
	}
	for i := 0; i < 4; i++ {
		if seen[i] == 0 {
			t.Fatalf("shard %d got no keys out of 256", i)
		}
	}
}

func TestPutGetDeleteAndScan(t *testing.T) {
	_, s := newSharded(t, 4)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("k%03d", i)
		if err := s.Put("t", []byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.Get("t", []byte("k007"))
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("Get = (%q,%v,%v)", v, ok, err)
	}
	if n, _ := s.Count("t"); n != 64 {
		t.Fatalf("Count = %d", n)
	}
	// Scan is globally key-ordered despite sharding.
	var last string
	n := 0
	err = s.Scan("t", func(k, v []byte) bool {
		if string(k) <= last {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = string(k)
		n++
		return true
	})
	if err != nil || n != 64 {
		t.Fatalf("scan: n=%d err=%v", n, err)
	}
	if ok, err := s.Delete("t", []byte("k007")); err != nil || !ok {
		t.Fatalf("Delete = (%v,%v)", ok, err)
	}
	if _, ok, _ := s.Get("t", []byte("k007")); ok {
		t.Fatal("deleted key visible")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestShardLocalCommitsSurviveReboot(t *testing.T) {
	plat, s := newSharded(t, 2)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := s.Put("t", []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	s.Abandon()
	plat.PowerFail(memsim.FailDropAll, 3)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(plat, "test.db", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, ok, _ := s2.Get("t", []byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("k%d lost across reboot", i)
		}
	}
	if err := s2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsShardCountChange(t *testing.T) {
	plat, s := newSharded(t, 2)
	_ = s
	// Reopening the same device with a different count must refuse, not
	// misroute. Simulate by reopening the ctl with the wrong count.
	if _, err := openCtl(plat.View(0).Heap, 3); err == nil {
		t.Fatal("shard-count change accepted")
	}
}

func TestApplyCrossShardAtomicCommit(t *testing.T) {
	_, s := newSharded(t, 4)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	ka, kb := keyOn(s, 0, "a"), keyOn(s, 3, "b")
	err := s.Apply([]Op{
		{Table: "t", Key: ka, Value: []byte("va")},
		{Table: "t", Key: kb, Value: []byte("vb")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range [][]byte{ka, kb} {
		if _, ok, _ := s.Get("t", k); !ok {
			t.Fatalf("cross-shard key %q missing", k)
		}
	}
	// Single-shard Apply takes the local path and works too.
	if err := s.Apply([]Op{{Table: "t", Key: keyOn(s, 1, "c"), Value: []byte("vc")}}); err != nil {
		t.Fatal(err)
	}
	// Deletes participate in cross-shard batches.
	if err := s.Apply([]Op{{Table: "t", Key: ka, Delete: true}, {Table: "t", Key: kb, Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("t", ka); ok {
		t.Fatal("cross-shard delete lost")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

type stageCrash struct{ stage Stage }

// TestCrossShardCrashAtStages is the protocol's crash matrix: power
// fails exactly between phases of a two-shard commit. Before the decide
// record persists the transaction must vanish everywhere; after, it
// must land everywhere.
func TestCrossShardCrashAtStages(t *testing.T) {
	for _, tc := range []struct {
		stage Stage
		want  bool // both keys present after recovery
	}{
		{StageAfterPrepare, false},
		{StageAfterDecide, true},
		{StageAfterComplete, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			plat, s := newSharded(t, 2)
			if err := s.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			ka, kb := keyOn(s, 0, "a"), keyOn(s, 1, "b")
			if err := s.Put("t", []byte("base"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			s.SetCommitHook(func(stage Stage, gtx uint64) {
				if stage == tc.stage {
					panic(stageCrash{stage})
				}
			})
			func() {
				defer func() {
					if r := recover(); r == nil {
						t.Fatalf("stage %d: hook never fired", tc.stage)
					} else if _, ok := r.(stageCrash); !ok {
						panic(r)
					}
				}()
				_ = s.Apply([]Op{
					{Table: "t", Key: ka, Value: []byte("va")},
					{Table: "t", Key: kb, Value: []byte("vb")},
				})
			}()
			// Power fails at the stage boundary: nothing else persisted.
			s.Abandon()
			plat.PowerFail(memsim.FailDropAll, seed)
			if err := plat.Reboot(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(plat, "test.db", testOpts())
			if err != nil {
				t.Fatalf("stage %d: reopen: %v", tc.stage, err)
			}
			_, okA, _ := s2.Get("t", ka)
			_, okB, _ := s2.Get("t", kb)
			if okA != okB {
				t.Fatalf("stage %d seed %d: atomicity broken: shard0=%v shard1=%v", tc.stage, seed, okA, okB)
			}
			if okA != tc.want {
				t.Fatalf("stage %d seed %d: present=%v, want %v", tc.stage, seed, okA, tc.want)
			}
			if _, ok, _ := s2.Get("t", []byte("base")); !ok {
				t.Fatalf("stage %d: earlier commit lost", tc.stage)
			}
			// The recovered system keeps working, including another 2PC.
			if err := s2.Apply([]Op{
				{Table: "t", Key: keyOn(s2, 0, "post"), Value: []byte("x")},
				{Table: "t", Key: keyOn(s2, 1, "post"), Value: []byte("y")},
			}); err != nil {
				t.Fatalf("stage %d: post-recovery 2PC: %v", tc.stage, err)
			}
			if err := s2.Check(); err != nil {
				t.Fatalf("stage %d: %v", tc.stage, err)
			}
		}
	}
}

func TestPerShardMetricsAndAggregate(t *testing.T) {
	plat, s := newSharded(t, 2)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	k0, k1 := keyOn(s, 0, "m"), keyOn(s, 1, "m")
	for i := 0; i < 4; i++ {
		if err := s.Put("t", append(k0, byte('0'+i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put("t", append(k1, 'z'), []byte("v")); err != nil {
		t.Fatal(err)
	}
	m0 := s.MetricsFor(0).Count("transactions")
	m1 := s.MetricsFor(1).Count("transactions")
	if m0 == 0 || m1 == 0 {
		t.Fatalf("per-shard transactions: shard0=%d shard1=%d", m0, m1)
	}
	agg := s.Metrics().Count("transactions")
	if agg < m0+m1 {
		t.Fatalf("aggregate %d < %d+%d", agg, m0, m1)
	}
	labels := plat.Registry.Labels()
	if len(labels) < 3 { // device + 2 shards
		t.Fatalf("labels = %v", labels)
	}
}

func TestLanedPlatformParallelTime(t *testing.T) {
	plat, err := NewLaned(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(plat, "test.db", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	// Commit the same work on every shard; on lanes, the parent clock
	// advances by the max over shards, not the sum.
	parentStart := plat.Clock.Now()
	var per [4]time.Duration
	for i := 0; i < 4; i++ {
		start := plat.View(i).Clock.Now()
		for j := 0; j < 8; j++ {
			k := keyOn(s, i, fmt.Sprintf("w%d-%d", i, j))
			if err := s.Put("t", k, bytes.Repeat([]byte("v"), 32)); err != nil {
				t.Fatal(err)
			}
		}
		per[i] = plat.View(i).Clock.Now() - start
	}
	var total time.Duration
	for _, d := range per {
		total += d
	}
	if parentDelta := plat.Clock.Now() - parentStart; parentDelta >= total {
		t.Fatalf("parent clock advanced %v, serial sum is %v: lanes are not parallel", parentDelta, total)
	}
	for i := 0; i < 4; i++ {
		if plat.Clock.Now() < plat.View(i).Clock.Now() {
			t.Fatalf("parent clock behind lane %d", i)
		}
	}
	// Cross-shard 2PC still works on laned platforms.
	if err := s.Apply([]Op{
		{Table: "t", Key: keyOn(s, 0, "x"), Value: []byte("1")},
		{Table: "t", Key: keyOn(s, 2, "x"), Value: []byte("2")},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestArmedCrashAndLifecycle covers the whole-machine surfaces the
// torturer drives — the op-counted crash trigger, disarm, power fail,
// reboot — plus the lifecycle accessors: per-shard views, table
// existence, a manual whole-machine checkpoint and a clean
// close/reopen.
func TestArmedCrashAndLifecycle(t *testing.T) {
	plat, s := newSharded(t, 2)
	if s.Shards() != 2 || plat.Shards() != 2 {
		t.Fatalf("shard count: db=%d plat=%d, want 2", s.Shards(), plat.Shards())
	}
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if !s.HasTable("t") || s.HasTable("missing") {
		t.Fatal("HasTable misreports")
	}
	ka, kb := keyOn(s, 0, "a"), keyOn(s, 1, "b")
	if err := s.Put("t", ka, []byte("va")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t", kb, []byte("vb")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		if s.Shard(i) == nil {
			t.Fatalf("Shard(%d) view is nil", i)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(plat, "test.db", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s2.Get("t", ka); !ok || !bytes.Equal(v, []byte("va")) {
		t.Fatal("checkpointed key lost across close/reopen")
	}

	// Armed then disarmed: the trigger must never fire.
	plat.ArmCrash(1, memsim.FailDropAll, 1)
	plat.DisarmCrash()
	if err := s2.Put("t", ka, []byte("va2")); err != nil {
		t.Fatal(err)
	}
	if plat.CrashTriggered() {
		t.Fatal("disarmed trigger fired")
	}

	// Armed for real: the machine freezes after 5 more persistence ops,
	// mid-commit somewhere, exactly like a torture round.
	start := plat.OpCount()
	plat.ArmCrash(5, memsim.FailDropAll, 2)
	for i := 0; !plat.CrashTriggered(); i++ {
		if i > 1000 {
			t.Fatal("armed trigger never fired")
		}
		_ = s2.Put("t", kb, []byte{byte(i)})
	}
	if got := plat.OpCount(); got < start+5 {
		t.Fatalf("trigger fired after %d ops, armed for 5", got-start)
	}
	s2.Abandon()
	plat.PowerFail(memsim.FailDropAll, 2)
	if err := plat.Reboot(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(plat, "test.db", testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s3.Get("t", ka); !ok || !bytes.Equal(v, []byte("va2")) {
		t.Fatal("pre-crash committed key lost")
	}
	if err := s3.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLanedPlatformRefusesCrashAPI pins the laned mode's contract: N
// independent domains cannot crash coherently, so the whole-machine
// crash surface panics rather than producing a meaningless fault.
func TestLanedPlatformRefusesCrashAPI(t *testing.T) {
	plat, err := NewLaned(testConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"PowerFail": func() { plat.PowerFail(memsim.FailDropAll, 1) },
		"ArmCrash":  func() { plat.ArmCrash(1, memsim.FailDropAll, 1) },
		"Reboot":    func() { _ = plat.Reboot() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic in laned mode", name)
				}
			}()
			fn()
		}()
	}
}

// TestSingleKeyErrorPaths covers the auto-commit wrappers' error
// branches: a missing table rolls the implicit transaction back and the
// engine stays healthy.
func TestSingleKeyErrorPaths(t *testing.T) {
	_, s := newSharded(t, 2)
	if err := s.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("missing", []byte("k"), []byte("v")); err == nil {
		t.Fatal("Put into a missing table succeeded")
	}
	if _, err := s.Delete("missing", []byte("k")); err == nil {
		t.Fatal("Delete from a missing table succeeded")
	}
	if ok, err := s.Delete("t", []byte("absent")); err != nil || ok {
		t.Fatalf("Delete of an absent key = (%v, %v)", ok, err)
	}
	if err := s.Apply([]Op{{Table: "missing", Key: keyOn(s, 0, "x"), Value: []byte("v")}}); err == nil {
		t.Fatal("single-shard Apply into a missing table succeeded")
	}
	if err := s.Apply([]Op{
		{Table: "missing", Key: keyOn(s, 0, "x"), Value: []byte("v")},
		{Table: "missing", Key: keyOn(s, 1, "y"), Value: []byte("v")},
	}); err == nil {
		t.Fatal("cross-shard Apply into a missing table succeeded")
	}
	// The failed rounds left nothing behind and the engine still works.
	if err := s.Put("t", []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

// scaleCell commits txns single-key transactions from writers
// goroutines. Writer w is bound to home shard w mod shards, writes 8 keys
// routed there and times each Commit on that shard's lane; shards == 0
// runs the same loop on a bare engine with no shard layer. It returns the
// virtual transactions per second on the platform clock and the median
// commit latency.
func scaleCell(t *testing.T, shards, writers, txns int) (perSec float64, p50 time.Duration) {
	t.Helper()
	opts := db.Options{Journal: db.JournalNVWAL, NVWAL: core.VariantUHLSDiff(), Concurrent: true, GroupCommit: 1, CheckpointLimit: -1}
	var (
		clock *simclock.Clock
		home  func(w int) (*db.DB, *simclock.Clock)
		key   = func(w, k int) []byte { return []byte(fmt.Sprintf("w%d-k%d", w, k)) }
	)
	if shards == 0 {
		plat, err := platform.New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := db.Open(plat, "bare.db", opts)
		if err == nil {
			err = d.CreateTable("t")
		}
		if err != nil {
			t.Fatal(err)
		}
		clock = plat.Clock
		home = func(int) (*db.DB, *simclock.Clock) { return d, plat.Clock }
	} else {
		plat, err := NewLaned(testConfig(), shards)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(plat, "test.db", Options{DB: opts})
		if err == nil {
			err = s.CreateTable("t")
		}
		if err != nil {
			t.Fatal(err)
		}
		clock = plat.Clock
		home = func(w int) (*db.DB, *simclock.Clock) { return s.Shard(w % shards), plat.View(w % shards).Clock }
		key = func(w, k int) []byte { return keyOn(s, w%shards, fmt.Sprintf("w%d-k%d", w, k)) }
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		lats []time.Duration
	)
	start := clock.Now()
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, lane := home(w)
			val := make([]byte, 256)
			for i := range txns / writers {
				for j := range val {
					val[j] = byte(i + j + w)
				}
				tx, err := d.Begin()
				if err != nil {
					t.Errorf("shards=%d writer %d: %v", shards, w, err)
					return
				}
				if err := tx.Insert("t", key(w, i%8), val); err != nil {
					tx.Rollback()
					t.Errorf("shards=%d writer %d: %v", shards, w, err)
					return
				}
				t0 := lane.Now()
				if err := tx.Commit(); err != nil {
					t.Errorf("shards=%d writer %d: %v", shards, w, err)
					return
				}
				mu.Lock()
				lats = append(lats, lane.Now()-t0)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	slices.Sort(lats)
	return simclock.Throughput(len(lats), clock.Now()-start), lats[(len(lats)-1)/2]
}

// TestLanedShardsScaleOut: on a laned platform every shard is its own
// virtual core, so single-key transactions that never leave their shard
// commit in parallel. At 32 writers 8 shards commit at least twice the
// virtual txn/s of 1 shard, and at 1 writer the shard layer costs the
// commit path little: the 1-shard median stays within 2x the bare
// engine's.
func TestLanedShardsScaleOut(t *testing.T) {
	const txns = 96
	one, _ := scaleCell(t, 1, 32, txns)
	eight, _ := scaleCell(t, 8, 32, txns)
	if eight < 2*one {
		t.Errorf("32 writers: 8 shards commit only %.2fx the txn/s of 1", eight/one)
	}
	_, bare := scaleCell(t, 0, 1, txns)
	_, sharded := scaleCell(t, 1, 1, txns)
	if sharded > 2*bare {
		t.Errorf("1 writer: 1-shard p50 commit %v against the bare engine's %v", sharded, bare)
	}
}
