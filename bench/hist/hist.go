// Package hist is the one latency histogram of the benchmark: fixed
// log-scale buckets, an allocation-free Observe, and bucket-wise
// Merge. Every percentile the benchmark prints comes from here, with
// the sample count beside it.
package hist

import "math/bits"

const (
	// subBits sub-buckets per power of two bound the relative error of
	// a reported quantile to 2^-subBits (1.6 %).
	subBits = 6
	sub     = 1 << subBits
	// maxExp caps the range at 2^42 ns (73 min); larger samples land in
	// the last bucket.
	maxExp   = 42
	nBuckets = (maxExp - subBits + 1) * sub
)

// H is a histogram of non-negative int64 samples (nanoseconds, in
// this benchmark). The zero value is ready to use. It is not safe for
// concurrent use: give each goroutine its own and Merge them.
type H struct {
	n   uint64
	sum int64
	b   [nBuckets]uint64
}

func index(v int64) int {
	if v < sub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= maxExp {
		return nBuckets - 1
	}
	return (e-subBits+1)<<subBits | int(v>>(e-subBits))&(sub-1)
}

// bounds returns bucket i's inclusive lower edge and its width.
func bounds(i int) (lo, width int64) {
	if i < sub {
		return int64(i), 1
	}
	shift := i>>subBits - 1
	return int64(sub+i&(sub-1)) << shift, 1 << shift
}

// Observe records one sample.
func (h *H) Observe(v int64) {
	h.n++
	h.sum += v
	h.b[index(v)]++
}

// Merge adds o's samples to h.
func (h *H) Merge(o *H) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.b {
		h.b[i] += c
	}
}

// Count is the number of samples observed.
func (h *H) Count() uint64 { return h.n }

// Mean is the arithmetic mean of the samples (0 when empty).
func (h *H) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank: the
// value below which q·Count samples fall, placed inside its bucket by
// linear interpolation, so the result moves continuously with the data
// instead of jumping between bucket edges. It is 0 when empty.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= target {
			lo, width := bounds(i)
			return float64(lo) + (target-cum)/float64(c)*float64(width)
		}
		cum += float64(c)
	}
	lo, width := bounds(nBuckets - 1)
	return float64(lo + width)
}
