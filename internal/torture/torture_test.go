package torture

import (
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

// TestFuzzCatchesPlantedBug proves the oracle detects an ordering
// violation: with UnsafeEarlyCommitMark the commit mark persists before
// the frames it covers, so an acknowledged transaction can vanish. The
// acceptance bar is detection within 10 seconds of fuzzing.
func TestFuzzCatchesPlantedBug(t *testing.T) {
	rep := Run(Options{Seed: 7, Step: -1, Duration: 10 * time.Second, Bug: true, Logf: t.Logf})
	if len(rep.Violations) == 0 {
		t.Fatalf("planted commit-ordering bug not detected in %s (%d chains, %d rounds, %d txns)",
			rep.Elapsed, rep.Chains, rep.Rounds, rep.Txns)
	}
	v := rep.Violations[0]
	t.Logf("caught in %s after %d chains: %s (%s)", rep.Elapsed, rep.Chains, v.Kind, v.Detail)
	if v.Repro == "" {
		t.Fatal("violation carries no repro command")
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

// TestMinimizeShrinksPlantedBug finds the planted-bug violation on a
// single-worker chain (bit-deterministic, so replay under clamps is
// exact) and expects the shrinker to reproduce it under a bounded
// round/transaction clamp with a repro command carrying the flags.
func TestMinimizeShrinksPlantedBug(t *testing.T) {
	opts := Options{Seed: 7, Step: -1, Duration: 10 * time.Second, Bug: true, Workers: 1}
	rep := Run(opts)
	if len(rep.Violations) == 0 {
		t.Skip("planted bug not hit on a single-worker chain within the budget")
	}
	mv, ok := Minimize(opts, rep.Violations[0])
	if !ok {
		t.Fatalf("single-worker finding did not reproduce under clamps: %+v", rep.Violations[0])
	}
	if mv.Round > rep.Violations[0].Round {
		t.Errorf("shrinker raised the violating round: %d > %d", mv.Round, rep.Violations[0].Round)
	}
	if !strings.Contains(mv.Repro, "-max-rounds") {
		t.Errorf("minimized repro lacks the round clamp: %s", mv.Repro)
	}
	t.Logf("shrunk to round=%d repro: %s", mv.Round, mv.Repro)
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
