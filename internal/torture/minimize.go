// Shrinking: once a chain violates, grow a smaller deterministic
// repro out of it. Chains are prefix-closed along two axes — crash
// rounds (each round's draws come after the previous round's on the
// chain rng) and per-worker transactions (each worker generates its
// stream sequentially from its own rng) — so clamping either axis
// replays an exact prefix of the same chain. The shrinker exploits
// that: clamp the rounds to the violating one, then binary-search the
// per-round transaction budget down, keeping every clamp that still
// violates.
package torture

// Minimize shrinks the chain behind a violation to a smaller repro,
// returning the violation observed under the tightest clamps that
// still fire (its Repro carries the -max-rounds/-max-txns flags next to
// every option of the run that found it). It replays through the mode
// table, so what is shrunk is the chain that violated. The second
// result is false when the row does not replay at all (cluster chains:
// real client goroutines over a faulty network), or when the original
// violation could not be reproduced even unclamped — a racy
// multi-worker finding that needs re-runs rather than shrinking — in
// which case the input is returned unchanged.
func Minimize(opts Options, v ViolationReport) (ViolationReport, bool) {
	m, err := modeFor(opts)
	if err != nil || v.Round < 0 || m.replay == replayNever {
		return v, false
	}
	check := func(maxRounds, maxTxns int) (ViolationReport, bool) {
		o := opts
		o.MaxRounds, o.MaxTxns = maxRounds, maxTxns
		res := runChain(m, o, v.Step)
		if len(res.violations) > 0 {
			return res.violations[0], true
		}
		return ViolationReport{}, false
	}

	// Rounds before the violating one only built up state; clamping to
	// it is sound for deterministic chains. If even that does not
	// re-fire, the chain is racy — report it unshrunk.
	best, ok := check(v.Round+1, 0)
	if !ok {
		return v, false
	}
	rounds := best.Round + 1

	// Binary-search the transaction budget up to the largest one the row
	// samples. The predicate is not truly monotone (a smaller budget
	// shifts the crash point), so this is a heuristic descent: every
	// still-violating clamp is kept.
	lo, hi := 1, m.maxTxns
	for lo <= hi {
		mid := (lo + hi) / 2
		if nv, ok := check(rounds, mid); ok {
			best = nv
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, true
}
