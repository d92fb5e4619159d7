// Package alloctest measures what a call costs the Go heap, for the
// package tests that hold each layer's allocation floor (DESIGN.md §15).
package alloctest

import "runtime"

// PerRun reports the mean heap allocations and bytes of f over runs
// calls, after one warm-up call. Like testing.AllocsPerRun it runs with
// GOMAXPROCS 1 and counts what every goroutine allocates meanwhile, so a
// call that hands work to other goroutines is billed for theirs; unlike
// it, the mean is not truncated to an integer, so a bound below one
// allocation per call holds.
func PerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
