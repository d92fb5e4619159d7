// Command nvwal-crash drives the §4.3 failure-atomicity argument
// end to end: it injects a simulated power failure at every step of
// NVWAL's commit protocol (Algorithm 1) and of checkpointing, under
// conservative and adversarial cache-line survival, then recovers and
// verifies that the database holds exactly the committed transactions —
// the second transaction appears entirely or not at all.
//
// With -shards > 1 the matrix instead targets the cross-shard commit
// protocol: a two-shard transaction is crashed at every Algorithm 1
// step of the second participant's prepare (the decision never
// persists, so it must vanish from both shards) and at each
// coordinator stage boundary (before the decide record it vanishes
// everywhere, after it lands everywhere).
//
// Usage:
//
//	nvwal-crash [-seeds N] [-variant UH+LS+Diff|LS|E|...] [-shards N]
//
// The exit code is 0 when every case passes, 1 on any failed case and 2
// on a usage error, an unknown -variant label included.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	"repro/internal/nvram"
	"repro/internal/platform"
	"repro/internal/shard"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// policies are the two cache-line survival rules every case runs under.
var policies = []struct {
	name   string
	policy memsim.FailPolicy
}{{"dropall", memsim.FailDropAll}, {"adversarial", memsim.FailAdversarial}}

// run is the whole command: parse args, run the matrix, print the table.
// It returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nvwal-crash", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seeds := fs.Int("seeds", 3, "adversarial seeds per case")
	variant := fs.String("variant", "", "single variant label (default: all; UH+LS+Diff with -shards)")
	shards := fs.Int("shards", 1, "run the cross-shard 2PC crash matrix over this many shards instead of the single-engine one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	variants, err := pickVariants(*variant)
	if err != nil {
		fmt.Fprintf(stderr, "nvwal-crash: %v\n", err)
		return 2
	}

	pass, fail := 0, 0
	report := func(label string, err error) {
		if err != nil {
			fail++
			fmt.Fprintf(stdout, "FAIL %s: %v\n", label, err)
		} else {
			pass++
			fmt.Fprintf(stdout, "ok   %s\n", label)
		}
	}
	if *shards > 1 {
		cfg := core.VariantUHLSDiff()
		if *variant != "" {
			cfg = variants[0]
		}
		runShardedMatrix(cfg, *shards, *seeds, report)
	} else {
		for _, cfg := range variants {
			for _, step := range append(core.WriteSteps(), core.CheckpointSteps()...) {
				for _, pol := range policies {
					for seed := int64(1); seed <= int64(*seeds); seed++ {
						err := runCase(cfg, step, pol.policy, seed)
						report(fmt.Sprintf("%-12s %-22s %-12s seed=%d", cfg.Label(), step, pol.name, seed), err)
					}
				}
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d cases passed, %d failed\n", pass, fail)
	if fail > 0 {
		return 1
	}
	return 0
}

// pickVariants returns the variant labelled label — of Figure 7's six and
// NVWAL E — or all seven for "".
func pickVariants(label string) ([]core.Config, error) {
	var picked []core.Config
	var labels []string
	for _, v := range append(core.Figure7Variants(), core.NamedConfig{Name: "NVWAL E", Cfg: core.VariantE()}) {
		labels = append(labels, v.Cfg.Label())
		if label == "" || v.Cfg.Label() == label {
			picked = append(picked, v.Cfg)
		}
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("unknown variant %q (one of %s)", label, strings.Join(labels, ", "))
	}
	return picked, nil
}

type crashSignal struct{}

// runCase commits one transaction, crashes a second one at the given
// step, recovers the machine, and checks atomicity.
func runCase(cfg core.Config, step string, policy memsim.FailPolicy, seed int64) error {
	plat, err := platform.NewTuna()
	if err != nil {
		return err
	}
	opts := db.Options{Journal: db.JournalNVWAL, NVWAL: cfg, CheckpointLimit: -1}
	d, err := db.Open(plat, "crash.db", opts)
	if err != nil {
		return err
	}
	if err := d.CreateTable("t"); err != nil {
		return err
	}

	// Transaction 1 (must survive, except under the checksum scheme).
	t1 := map[string][]byte{"alpha": bytes.Repeat([]byte{0xA1}, 100), "beta": bytes.Repeat([]byte{0xA2}, 100)}
	if err := commit(d, t1); err != nil {
		return err
	}

	nv, ok := d.Journal().(*core.NVWAL)
	if !ok {
		return fmt.Errorf("journal is not NVWAL")
	}

	// Transaction 2 (or a checkpoint), crashed at the step.
	t2 := map[string][]byte{
		"alpha": bytes.Repeat([]byte{0xB1}, 100),
		"gamma": bytes.Repeat([]byte{0xB3}, 100),
	}
	crashed := false
	func() {
		nv.SetCrashHook(func(s string) {
			if s == step {
				crashed = true
				panic(crashSignal{})
			}
		})
		defer func() {
			nv.SetCrashHook(nil)
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); !ok {
					panic(r)
				}
			}
		}()
		isCkpt := false
		for _, s := range core.CheckpointSteps() {
			if s == step {
				isCkpt = true
			}
		}
		if isCkpt {
			_ = d.Checkpoint()
		} else {
			_ = commit(d, t2)
		}
	}()
	_ = crashed

	// Power failure + reboot.
	plat.PowerFail(policy, seed)
	if err := plat.Reboot(); err != nil {
		return err
	}
	d2, err := db.Open(plat, "crash.db", opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if !d2.HasTable("t") {
		if cfg.Sync == core.SyncChecksum {
			// Asynchronous commit never flushed the log entries, so a
			// crash may legally lose everything back to the last
			// checkpoint — detected, not corrupted (§4.2).
			return nil
		}
		return fmt.Errorf("table lost after recovery")
	}

	// Atomicity: either the full t2 state or the full t1 state.
	gammaV, gammaOK, err := d2.Get("t", []byte("gamma"))
	if err != nil {
		return err
	}
	want := t1
	if gammaOK {
		if !bytes.Equal(gammaV, t2["gamma"]) {
			return fmt.Errorf("gamma corrupted")
		}
		want = map[string][]byte{"alpha": t2["alpha"], "beta": t1["beta"], "gamma": t2["gamma"]}
	}
	for k, v := range want {
		got, ok, err := d2.Get("t", []byte(k))
		if err != nil {
			return err
		}
		if cfg.Sync == core.SyncChecksum {
			// Asynchronous commit trades durability for speed; torn
			// transactions are detected and dropped, so absence is
			// legal — corruption is not.
			if ok && !bytes.Equal(got, v) && !bytes.Equal(got, t2[k]) {
				return fmt.Errorf("%s corrupted under checksum scheme", k)
			}
			continue
		}
		if !ok || !bytes.Equal(got, v) {
			return fmt.Errorf("%s lost or stale after recovery", k)
		}
	}
	// The database must remain fully usable.
	if err := commit(d2, map[string][]byte{"post": []byte("recovery")}); err != nil {
		return fmt.Errorf("post-recovery commit: %w", err)
	}
	return d2.Check()
}

// runShardedMatrix is the -shards > 1 mode: every write step of the
// second participant's prepare plus every coordinator stage boundary,
// under both survival policies, each case's outcome handed to report.
func runShardedMatrix(cfg core.Config, nshards, seeds int, report func(label string, err error)) {
	name := cfg.Label()
	stages := []struct {
		name  string
		stage shard.Stage
		want  bool // transaction present on both shards after recovery
	}{
		{"after-prepare", shard.StageAfterPrepare, false},
		{"after-decide", shard.StageAfterDecide, true},
		{"after-complete", shard.StageAfterComplete, true},
	}
	for _, pol := range policies {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			for _, step := range core.WriteSteps() {
				err := runShardedCase(cfg, nshards, step, nil, pol.policy, seed)
				report(fmt.Sprintf("%-12s shards=%d prepare@%-22s %-12s seed=%d", name, nshards, step, pol.name, seed), err)
			}
			for _, st := range stages {
				err := runShardedCase(cfg, nshards, "", &st.want, pol.policy, seed, st.stage)
				report(fmt.Sprintf("%-12s shards=%d %-30s %-12s seed=%d", name, nshards, st.name, pol.name, seed), err)
			}
		}
	}
}

// shardedKey fabricates a key routed to the wanted shard.
func shardedKey(s *shard.DB, sh int, stem string) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("%s-%d", stem, i))
		if s.ShardOf(k) == sh {
			return k
		}
	}
}

// runShardedCase commits one cross-shard transaction, crashes a second
// one — at a write step of participant 1's prepare (step != "") or at a
// coordinator stage (stage set) — recovers, and checks all-or-nothing
// across both shards. want, when non-nil, pins the required outcome;
// for participant-prepare crashes the decision never persisted, so the
// transaction must vanish.
func runShardedCase(cfg core.Config, nshards int, step string, want *bool, policy memsim.FailPolicy, seed int64, stage ...shard.Stage) error {
	plat, err := shard.NewShared(platform.Config{
		NVRAM: nvram.Config{
			Size:              32 << 20,
			CacheLineSize:     64,
			NVRAMWriteLatency: 500 * time.Nanosecond,
		},
	}, nshards)
	if err != nil {
		return err
	}
	opts := shard.Options{DB: db.Options{NVWAL: cfg, CheckpointLimit: -1}}
	s, err := shard.Open(plat, "crash.db", opts)
	if err != nil {
		return err
	}
	if err := s.CreateTable("t"); err != nil {
		return err
	}
	baseA, baseB := shardedKey(s, 0, "base-a"), shardedKey(s, 1, "base-b")

	// Transaction 1: a cross-shard commit that must survive.
	if err := s.Apply([]shard.Op{
		{Table: "t", Key: baseA, Value: bytes.Repeat([]byte{0xA1}, 100)},
		{Table: "t", Key: baseB, Value: bytes.Repeat([]byte{0xA2}, 100)},
	}); err != nil {
		return err
	}

	// Transaction 2, crashed mid-protocol. Its volume exceeds a log
	// block, so the prepare exercises the block-allocation steps too.
	var ops []shard.Op
	t2 := map[string]byte{}
	for i := 0; i < 4; i++ {
		a := shardedKey(s, 0, fmt.Sprintf("a%d", i))
		b := shardedKey(s, 1, fmt.Sprintf("b%d", i))
		t2[string(a)], t2[string(b)] = 0xB1, 0xB3
		ops = append(ops,
			shard.Op{Table: "t", Key: a, Value: bytes.Repeat([]byte{0xB1}, 2048)},
			shard.Op{Table: "t", Key: b, Value: bytes.Repeat([]byte{0xB3}, 2048)})
	}
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		if step != "" {
			// Participants prepare in shard order, so the hook on shard
			// 1's journal fires inside the second prepare: shard 0 is
			// already prepared, the decide record never persists.
			nv, ok := s.Shard(1).Journal().(*core.NVWAL)
			if !ok {
				panic("journal is not NVWAL")
			}
			nv.SetCrashHook(func(st string) {
				if st == step {
					panic(crashSignal{})
				}
			})
			defer nv.SetCrashHook(nil)
		} else {
			s.SetCommitHook(func(st shard.Stage, gtx uint64) {
				if st == stage[0] {
					panic(crashSignal{})
				}
			})
			defer s.SetCommitHook(nil)
		}
		_ = s.Apply(ops)
	}()
	if !crashed {
		return fmt.Errorf("crash hook never fired")
	}

	s.Abandon()
	plat.PowerFail(policy, seed)
	if err := plat.Reboot(); err != nil {
		return err
	}
	s2, err := shard.Open(plat, "crash.db", opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if !s2.HasTable("t") {
		return fmt.Errorf("table lost after recovery")
	}

	// All-or-nothing across the shards, with the outcome the protocol
	// requires: absent unless the decide record persisted.
	expect := false
	if want != nil {
		expect = *want
	}
	present, absent := 0, 0
	for k, fill := range t2 {
		got, ok, err := s2.Get("t", []byte(k))
		if err != nil {
			return err
		}
		if ok {
			present++
			if !bytes.Equal(got, bytes.Repeat([]byte{fill}, 2048)) {
				return fmt.Errorf("surviving transaction corrupted at %q", k)
			}
		} else {
			absent++
		}
	}
	if present != 0 && absent != 0 {
		return fmt.Errorf("cross-shard transaction torn: %d keys present, %d absent", present, absent)
	}
	if (present != 0) != expect {
		return fmt.Errorf("transaction present=%v, protocol requires %v", present != 0, expect)
	}
	for k, fill := range map[string]byte{string(baseA): 0xA1, string(baseB): 0xA2} {
		got, ok, err := s2.Get("t", []byte(k))
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{fill}, 100)) {
			return fmt.Errorf("baseline key %q lost or stale after recovery", k)
		}
	}
	// The recovered system keeps working, including another 2PC.
	if err := s2.Apply([]shard.Op{
		{Table: "t", Key: shardedKey(s2, 0, "post-a"), Value: []byte("recovery")},
		{Table: "t", Key: shardedKey(s2, 1, "post-b"), Value: []byte("recovery")},
	}); err != nil {
		return fmt.Errorf("post-recovery 2PC: %w", err)
	}
	return s2.Check()
}

func commit(d *db.DB, kv map[string][]byte) error {
	tx, err := d.Begin()
	if err != nil {
		return err
	}
	for k, v := range kv {
		if err := tx.Insert("t", []byte(k), v); err != nil {
			tx.Rollback()
			return err
		}
	}
	return tx.Commit()
}
