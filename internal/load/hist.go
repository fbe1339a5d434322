package load

import (
	"fmt"
	"math/bits"
)

// Log-bucket latency recorder. Values below histLinear land in exact
// unit-width buckets; above, each power-of-two range is split into histSub
// sub-buckets (top log2(histSub) mantissa bits), bounding the relative
// quantization error by 1/histSub ≈ 3%. Recording is one shift, one
// bits.Len, and one increment — no allocation, no branching on history —
// so the recorder can sit on the per-call hot path of a million-call run.
const (
	histSub    = 32
	histLinear = histSub
	// Largest index: values up to 2^62 map to exponent 57, mantissa < 64.
	histBuckets = 58*histSub + histSub
)

// histIdx maps a non-negative value to its bucket.
func histIdx(v int64) int {
	if v < histLinear {
		return int(v)
	}
	// Shift so the value lands in [histSub, 2*histSub): the exponent is how
	// far we shifted, the remainder selects the sub-bucket. For v in
	// [32, 64) the exponent is 0 and the index equals v, so the linear and
	// logarithmic regions tile without a seam.
	e := uint(bits.Len64(uint64(v))) - 6
	return int(e)*histSub + int(v>>e)
}

// histUpper returns the largest value mapping to bucket idx (the recorder
// reports this conservative edge for quantiles, HDR-style).
func histUpper(idx int) int64 {
	if idx < 2*histSub {
		return int64(idx)
	}
	e := uint(idx/histSub) - 1
	m := int64(idx) - int64(e)*histSub
	return ((m + 1) << e) - 1
}

// Hist is a fixed-size log-bucket histogram. The zero value is ready to
// use; Record never allocates.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// Record adds one observation (negative values clamp to zero).
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histIdx(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// mean returns the arithmetic mean (0 when empty).
func (h *Hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// conservative edge of the bucket holding the ceil(q*n)-th observation.
// The true quantile is within a factor of 1/histSub below the bound.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := int64(q*float64(h.n) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > h.n {
		target = h.n
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= target {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// merge accumulates other into h.
func (h *Hist) merge(other *Hist) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary renders count/mean/p50/p99/p999/max on one line.
func (h *Hist) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p99=%d p999=%d max=%d",
		h.n, h.mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.max)
}
