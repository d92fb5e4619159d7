package torture

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFuzzShortRun drives a handful of chains across variants, worker
// counts and fail policies; any oracle violation is a real bug.
func TestFuzzShortRun(t *testing.T) {
	rep := Run(Options{Seed: 1, Steps: 4, Step: -1, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	if rep.Txns == 0 {
		t.Fatal("fuzzer committed no transactions")
	}
	t.Logf("chains=%d rounds=%d txns=%d elapsed=%s", rep.Chains, rep.Rounds, rep.Txns, rep.Elapsed)
}

// plantedBugRows are the rows that accept -bug: every crash-chain oracle
// gets run against a known-bad engine.
var plantedBugRows = []struct {
	name string
	opts Options
}{
	{"plain", Options{Seed: 7}},
	{"mvcc", Options{Seed: 7, MVCC: true}},
	{"sharded", Options{Seed: 7, Shards: 4}},
}

// TestFuzzCatchesPlantedBug proves each crash-chain oracle detects an
// ordering violation: with UnsafeEarlyCommitMark the commit mark
// persists before the frames it covers, so an acknowledged transaction
// can vanish. The acceptance bar is detection within 10 seconds of
// fuzzing, with a repro and the evidence attached.
func TestFuzzCatchesPlantedBug(t *testing.T) {
	for _, row := range plantedBugRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			opts := row.opts
			opts.Step, opts.Duration, opts.Bug, opts.Logf = -1, 10*time.Second, true, t.Logf
			rep := Run(opts)
			if len(rep.Violations) == 0 {
				t.Fatalf("planted commit-ordering bug not detected in %s (%d chains, %d rounds, %d txns)",
					rep.Elapsed, rep.Chains, rep.Rounds, rep.Txns)
			}
			v := rep.Violations[0]
			t.Logf("caught in %s after %d chains: %s (%s)", rep.Elapsed, rep.Chains, v.Kind, v.Detail)
			if !strings.HasPrefix(v.Repro, fmt.Sprintf("nvwal-fuzz -seed 7 -step %d", v.Step)) || !strings.Contains(v.Repro, " -bug") {
				t.Errorf("repro %q does not replay this chain", v.Repro)
			}
			var txns, states int
			for _, line := range v.Evidence {
				switch {
				case strings.HasPrefix(line, "txn "):
					txns++
				case strings.HasPrefix(line, "surv "), strings.HasPrefix(line, "base "):
					states++
				}
			}
			if txns == 0 || states == 0 || len(v.Evidence) > maxEvidence {
				t.Errorf("evidence has %d history and %d state lines of %d (bound %d)", txns, states, len(v.Evidence), maxEvidence)
			}
			if out, err := json.Marshal(rep); err != nil || !strings.Contains(string(out), `"evidence":["`) {
				t.Errorf("JSON report does not carry the evidence (err %v)", err)
			}
		})
	}
}

// TestEvidenceIsBounded: however much a failed round leaves behind, a
// violation carries at most maxEvidence lines, the last one saying how
// many were cut, and values are clipped.
func TestEvidenceIsBounded(t *testing.T) {
	survivor := map[string]string{}
	for i := 0; i < 3*maxEvidence; i++ {
		survivor[fmt.Sprintf("w00/k%04d", i)] = strings.Repeat("v", 100)
	}
	c := &chain{mode: modes[2]} // the sharded row's salvage hook needs no engine at zero shards
	ev := c.evidence(&roundLog{hist: History{Txns: []Txn{{Worker: 0, Index: 1, Seq: 9, Acked: true}}}}, survivor, nil)
	if len(ev) != maxEvidence || ev[0] != "txn w=0 idx=1 seq=9 acked=true ops=0" {
		t.Fatalf("%d evidence lines, first %q", len(ev), ev[0])
	}
	if want := fmt.Sprintf("… %d more lines", 1+3*maxEvidence-(maxEvidence-1)); ev[maxEvidence-1] != want {
		t.Errorf("last line %q, want %q", ev[maxEvidence-1], want)
	}
	if len(ev[1]) > 60 {
		t.Errorf("value not clipped: %q", ev[1])
	}
}

// TestFuzzFaultsShortRun drives media-fault chains — NVRAM bit flips,
// stuck lines, read errors, device EIO and torn sectors — under the
// weakened oracle (durability waived, atomicity/no-resurrection/order
// absolute). Any violation is a real bug in salvage recovery.
func TestFuzzFaultsShortRun(t *testing.T) {
	rep := Run(Options{Seed: 3, Steps: 6, Step: -1, Faults: true, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	if rep.Txns == 0 {
		t.Fatal("fault fuzzer committed no transactions")
	}
	t.Logf("chains=%d rounds=%d txns=%d damaged=%d degraded=%d",
		rep.Chains, rep.Rounds, rep.Txns, rep.Damaged, rep.Degraded)
}

// TestFuzzTinyHeapShortRun drives crash chains on a 24-page heap: the
// backpressure machinery (urgent checkpoints, admission stalls, the
// commit deadline) absorbs routine exhaustion, and workers may legally
// see ErrBusy/ErrDegraded — any oracle violation or raw allocation
// error escaping to a worker is a real bug.
func TestFuzzTinyHeapShortRun(t *testing.T) {
	rep := Run(Options{Seed: 5, Steps: 6, Step: -1, HeapPages: 24, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	if rep.Txns == 0 {
		t.Fatal("tiny-heap fuzzer committed no transactions")
	}
	t.Logf("chains=%d rounds=%d txns=%d degraded=%d", rep.Chains, rep.Rounds, rep.Txns, rep.Degraded)
}

// TestFuzzShardedShortRun drives sharded chains: per-shard single-key
// workloads plus cross-shard 2PC transactions over a shared-domain
// shard.DB, with power cuts at random persistence ops (including
// between a participant's prepare and the coordinator's decide) and
// staged coordinator crashes. The oracle verifies each shard's history
// independently and checks cross-shard rounds all-or-nothing; any
// violation is a real bug in the commit protocol or its recovery.
func TestFuzzShardedShortRun(t *testing.T) {
	rep := Run(Options{Seed: 9, Steps: 6, Step: -1, Shards: 4, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	if rep.Txns == 0 {
		t.Fatal("sharded fuzzer committed no transactions")
	}
	t.Logf("chains=%d rounds=%d txns=%d", rep.Chains, rep.Rounds, rep.Txns)
}

// optionsFromRepro is reproCmd's inverse: the options a printed repro
// command line asks for.
func optionsFromRepro(t *testing.T, repro string) Options {
	t.Helper()
	args := strings.Fields(repro)
	if len(args) == 0 || args[0] != "nvwal-fuzz" {
		t.Fatalf("repro %q does not start with the command name", repro)
	}
	var o Options
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.Int64Var(&o.Seed, "seed", 1, "")
	fs.IntVar(&o.Step, "step", -1, "")
	fs.IntVar(&o.Workers, "workers", 0, "")
	fs.BoolVar(&o.Bug, "bug", false, "")
	fs.BoolVar(&o.Faults, "faults", false, "")
	fs.IntVar(&o.MaxRounds, "max-rounds", 0, "")
	fs.IntVar(&o.MaxTxns, "max-txns", 0, "")
	fs.IntVar(&o.HeapPages, "heap-pages", 0, "")
	fs.IntVar(&o.Shards, "shards", 1, "")
	fs.BoolVar(&o.MVCC, "mvcc", false, "")
	fs.BoolVar(&o.Repl, "repl", false, "")
	fs.BoolVar(&o.Slow, "slow", false, "")
	if err := fs.Parse(args[1:]); err != nil || fs.NArg() != 0 {
		t.Fatalf("repro %q does not parse: %v (left over: %v)", repro, err, fs.Args())
	}
	return o
}

// TestReproReplaysTheChainItWasPrintedFor is the property a repro
// exists for, over every row and every modifier set the row accepts:
// the printed command, parsed back, samples the same chain — and on a
// row that replays exactly, under one worker, runs it to the same
// fingerprint. A repro that drops an option which shaped the chain (a
// forced worker count skips a draw in the sampler) fails here.
func TestReproReplaysTheChainItWasPrintedFor(t *testing.T) {
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			base := Options{Seed: 11, MaxRounds: 1, MaxTxns: 3, Shards: 1}
			workerSets := []int{0, 1} // a chain boots a machine, and cluster chains cost real time
			switch m.name {
			case "plain":
				workerSets = []int{0, 1, 3}
			case "mvcc":
				base.MVCC = true
			case "sharded":
				base.Shards = 4
			case "repl":
				base.Repl = true
			case "slow":
				base.Slow = true
			}
			for mods := modifier(0); mods <= modBug|modFaults|modHeapPages; mods++ {
				if mods&^m.accepts != 0 {
					continue
				}
				for _, workers := range workerSets {
					opts := base
					opts.Bug, opts.Faults, opts.Workers = mods&modBug != 0, mods&modFaults != 0, workers
					if mods&modHeapPages != 0 {
						opts.HeapPages = 24
					}
					const step = 3
					res, line := chainAt(opts, step)
					repro := reproCmd(opts, step)
					back := optionsFromRepro(t, repro)
					if back.Step != step {
						t.Fatalf("%s: names step %d, printed for step %d", repro, back.Step, step)
					}
					res2, line2 := chainAt(back, back.Step)
					if line != line2 || line == "" {
						t.Errorf("%s\n\tprinted for %q\n\treplays    %q", repro, line, line2)
					}
					if m.replay == replayExact && workers == 1 && res.fingerprint != res2.fingerprint {
						t.Errorf("%s: fingerprint %#x, replayed %#x", repro, res.fingerprint, res2.fingerprint)
					}
				}
			}
		})
	}
}

// TestMinimizeReplaysTheChainThatViolated finds the planted bug on each
// row that shrinks and expects the shrinker to replay THAT row's chain:
// the minimized repro keeps every option of the run that found it, adds
// the clamps, and fires again when run. One-worker plain and sharded
// chains are bit-deterministic, so there the shrink must succeed; an
// MVCC chain is multi-worker by construction, so it either shrinks (with
// -mvcc kept) or is reported as not reproducible — never as the plain
// chain of the same step.
func TestMinimizeReplaysTheChainThatViolated(t *testing.T) {
	for _, row := range plantedBugRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			opts := row.opts
			opts.Step, opts.Duration, opts.Bug, opts.Workers = -1, 10*time.Second, true, 1
			exact := !opts.MVCC
			rep := Run(opts)
			if len(rep.Violations) == 0 {
				t.Skip("planted bug not hit within the budget")
			}
			found := rep.Violations[0]
			mv, ok := Minimize(opts, found)
			if !ok {
				if exact {
					t.Fatalf("one-worker finding did not reproduce under clamps: %+v", found)
				}
				if mv.Repro != found.Repro {
					t.Fatalf("unshrunk finding came back changed: %q, was %q", mv.Repro, found.Repro)
				}
				return
			}
			if mv.Round > found.Round {
				t.Errorf("shrinker raised the violating round: %d > %d", mv.Round, found.Round)
			}
			if !strings.HasPrefix(mv.Repro, found.Repro+" -max-rounds ") {
				t.Errorf("minimized repro %q does not extend the finding's %q with the clamps", mv.Repro, found.Repro)
			}
			t.Logf("shrunk to round=%d repro: %s", mv.Round, mv.Repro)
			if exact && len(Run(optionsFromRepro(t, mv.Repro)).Violations) == 0 {
				t.Errorf("minimized repro does not fire when run: %s", mv.Repro)
			}
		})
	}
}

// TestMinimizeLeavesClusterFindingsAlone: cluster chains run real client
// goroutines in real time; Minimize reports their findings unshrunk and
// runs nothing (it used to burn a plain chain on a -slow finding).
func TestMinimizeLeavesClusterFindingsAlone(t *testing.T) {
	for _, opts := range []Options{{Repl: true}, {Slow: true}} {
		ran := false
		opts.Logf = func(string, ...any) { ran = true }
		v := ViolationReport{Step: 5, Round: 0, Repro: "as found"}
		if mv, ok := Minimize(opts, v); ok || mv.Repro != v.Repro || ran {
			t.Errorf("%+v: shrunk=%v repro=%q ran a chain=%v", opts, ok, mv.Repro, ran)
		}
	}
}

// TestRunRefusesWhatNoRowAccepts walks every combination of row
// selectors and row-dependent modifiers against the compatibility matrix
// stated here: a combination no row accepts runs nothing and comes back
// as one "error" violation naming the row and every refused option; an
// accepted one runs its chain.
func TestRunRefusesWhatNoRowAccepts(t *testing.T) {
	rows := []struct {
		flag    string
		set     func(*Options)
		accepts string
	}{
		{"-mvcc", func(o *Options) { o.MVCC = true }, "-bug -heap-pages"},
		{"-shards", func(o *Options) { o.Shards = 4 }, "-bug"},
		{"-repl", func(o *Options) { o.Repl = true }, ""},
		{"-slow", func(o *Options) { o.Slow = true }, ""},
	}
	mods := []struct {
		flag string
		set  func(*Options)
	}{
		{"-bug", func(o *Options) { o.Bug = true }},
		{"-faults", func(o *Options) { o.Faults = true }},
		{"-heap-pages", func(o *Options) { o.HeapPages = 24 }},
	}
	for pick := 0; pick < 1<<(len(rows)+len(mods)); pick++ {
		opts := Options{Seed: 5, Step: -1, Steps: 1, MaxRounds: 1, MaxTxns: 2}
		var selected, refused []string
		accepts := "-bug -faults -heap-pages" // the plain row takes them all
		for i, r := range rows {
			if pick&(1<<i) != 0 {
				r.set(&opts)
				if selected = append(selected, r.flag); len(selected) == 1 {
					accepts = r.accepts
				} else {
					refused = append(refused, r.flag)
				}
			}
		}
		for i, m := range mods {
			if pick&(1<<(len(rows)+i)) != 0 {
				m.set(&opts)
				if selected = append(selected, m.flag); !strings.Contains(accepts, m.flag) {
					refused = append(refused, m.flag)
				}
			}
		}
		if len(refused) == 0 && (opts.Repl || opts.Slow) && testing.Short() {
			continue
		}
		rep := Run(opts)
		switch {
		case len(refused) == 0:
			if rep.Chains != 1 || (len(rep.Violations) != 0 && !opts.Bug) {
				t.Errorf("%v: accepted, but ran %d chains with violations %+v", selected, rep.Chains, rep.Violations)
			}
		case rep.Chains != 0 || len(rep.Violations) != 1 || rep.Violations[0].Kind != "error":
			t.Errorf("%v: not refused: %d chains, violations %+v", selected, rep.Chains, rep.Violations)
		default:
			detail := rep.Violations[0].Detail
			if want := selected[0] + " is incompatible with " + strings.Join(refused, ", "); detail != want {
				t.Errorf("%v: refused with %q, want %q", selected, detail, want)
			}
		}
	}
}

// TestSingleStepReplay runs one specific chain twice and expects the
// same fingerprint — every round's survivor and the machine's final op
// count — the deterministic-replay property repro commands rely on
// (exact for single-worker chains).
func TestSingleStepReplay(t *testing.T) {
	opts := Options{Seed: 42, Workers: 1}
	a, _ := chainAt(opts, 0)
	b, _ := chainAt(opts, 0)
	if a.fingerprint != b.fingerprint || a.txns != b.txns || len(a.violations) != len(b.violations) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	if a.rounds == 0 || a.fingerprint == 0 {
		t.Fatalf("chain ran nothing to compare: %+v", a)
	}
}

// TestFuzzMVCCShortRun drives overlapping-keyspace MVCC chains: every
// worker hammers the same shared keys through concurrent sessions
// (mixed with legacy slot transactions), ErrConflict is a legal retried
// outcome, and the oracle replays committed transactions in global
// commit-seq order. Any violation is a real bug in first-committer-wins
// validation, the group stream merge, or recovery.
func TestFuzzMVCCShortRun(t *testing.T) {
	rep := Run(Options{Seed: 13, Steps: 6, Step: -1, MVCC: true, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	if rep.Txns == 0 {
		t.Fatal("MVCC fuzzer committed no transactions")
	}
	t.Logf("chains=%d rounds=%d txns=%d", rep.Chains, rep.Rounds, rep.Txns)
}

// TestFuzzReplShortRun drives two replication chains: a 3-node cluster
// serving clients over a faulty network, a crash-failover with a new
// fencing epoch in every era, the outcome-based oracle after each. Any
// violation is a real bug in shipping, promotion or the client.
func TestFuzzReplShortRun(t *testing.T) {
	rep := Run(Options{Seed: 19, Steps: 2, Step: -1, Repl: true, Logf: t.Logf})
	for _, v := range rep.Violations {
		t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
	}
	if rep.Txns == 0 || rep.Rounds < 4 {
		t.Fatalf("replication fuzzer acked %d writes over %d eras", rep.Txns, rep.Rounds)
	}
	t.Logf("chains=%d eras=%d acked=%d elapsed=%s", rep.Chains, rep.Rounds, rep.Txns, rep.Elapsed)
}

// TestFuzzMVCCTinyHeapShortRun composes the MVCC mode with a tiny heap:
// sessions must absorb exhaustion through the same backpressure
// machinery as slot writers (ErrBusy/ErrDegraded legal, raw allocation
// errors are not).
func TestFuzzMVCCTinyHeapShortRun(t *testing.T) {
	rep := Run(Options{Seed: 17, Steps: 4, Step: -1, MVCC: true, HeapPages: 24, Logf: t.Logf})
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s worker=%d %s\n  repro: %s", v.Kind, v.Worker, v.Detail, v.Repro)
		}
	}
	t.Logf("chains=%d rounds=%d txns=%d degraded=%d", rep.Chains, rep.Rounds, rep.Txns, rep.Degraded)
}
