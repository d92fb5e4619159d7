package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func exact(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func TestQuantileMatchesExactPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := map[string][]int64{
		"uniform-small": make([]int64, 10000),
		"lognormal":     make([]int64, 10000),
		"constant":      make([]int64, 1000),
		"bimodal":       make([]int64, 10000),
	}
	for i := range sets["uniform-small"] {
		sets["uniform-small"][i] = rng.Int63n(50)
	}
	for i := range sets["lognormal"] {
		sets["lognormal"][i] = int64(math.Exp(rng.NormFloat64()*1.5 + 10))
	}
	for i := range sets["constant"] {
		sets["constant"][i] = 206834
	}
	for i := range sets["bimodal"] {
		sets["bimodal"][i] = 20000 + rng.Int63n(2000)
		if i%50 == 0 {
			sets["bimodal"][i] = 5_000_000 + rng.Int63n(1_000_000)
		}
	}
	for name, data := range sets {
		var h H
		for _, v := range data {
			h.Observe(v)
		}
		if h.Count() != uint64(len(data)) {
			t.Fatalf("%s: count %d, want %d", name, h.Count(), len(data))
		}
		sorted := append([]int64(nil), data...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := h.Quantile(q), exact(sorted, q)
			// One bucket of slack: 1 below 64, 2^-subBits of the value above.
			tol := math.Max(1, want/sub)
			if math.Abs(got-want) > tol {
				t.Errorf("%s: q=%v got %.1f, exact %.1f (tolerance %.1f)", name, q, got, want, tol)
			}
		}
		var sum int64
		for _, v := range data {
			sum += v
		}
		if got, want := h.Mean(), float64(sum)/float64(len(data)); math.Abs(got-want) > 1e-6*want {
			t.Errorf("%s: mean %v, want %v", name, got, want)
		}
	}
}

func TestMergeEqualsObservingEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all H
	for i := 0; i < 5000; i++ {
		v := rng.Int63n(1 << 30)
		all.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the histogram of all samples")
	}
}

func TestEdges(t *testing.T) {
	var h H
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.Observe(-5)            // clamps into the first bucket
	h.Observe(math.MaxInt64) // clamps into the last
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Quantile(1); got < float64(int64(1)<<maxExp) {
		t.Fatalf("overflow sample reported as %v", got)
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<41 + 12345} {
		lo, w := bounds(index(v))
		if v < lo || v >= lo+w {
			t.Errorf("value %d not inside its bucket [%d,%d)", v, lo, lo+w)
		}
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	var h H
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Fatalf("Observe allocates %v times per call", n)
	}
}
