package load

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHistIdxMonotone: the bucket index is nondecreasing in the value and
// the linear and log regions tile without gaps or overlaps at the seam.
func TestHistIdxMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<14; v++ {
		idx := histIdx(v)
		if idx < prev {
			t.Fatalf("histIdx(%d)=%d < histIdx(%d)=%d", v, idx, v-1, prev)
		}
		if idx >= histBuckets {
			t.Fatalf("histIdx(%d)=%d out of range", v, idx)
		}
		if up := histUpper(idx); up < v {
			t.Fatalf("histUpper(%d)=%d < recorded value %d", idx, up, v)
		}
		prev = idx
	}
	// Spot-check the top of the range.
	for _, v := range []int64{1 << 30, 1 << 40, 1 << 62} {
		idx := histIdx(v)
		if idx >= histBuckets {
			t.Fatalf("histIdx(%d)=%d out of range", v, idx)
		}
		if up := histUpper(idx); up < v {
			t.Fatalf("histUpper(%d)=%d < %d", idx, up, v)
		}
	}
}

// TestHistQuantiles: against an exact sorted sample, every reported
// quantile is an upper bound within the 1/histSub relative error budget.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Hist
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		v := int64(rng.ExpFloat64() * 900)
		vals[i] = v
		h.Record(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(n-1))]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q%.3f: reported %d below exact %d", q, got, exact)
		}
		slack := exact/histSub + 2
		if got > exact+slack {
			t.Fatalf("q%.3f: reported %d exceeds exact %d beyond error budget %d", q, got, exact, slack)
		}
	}
	if h.n != int64(n) {
		t.Fatalf("count=%d want %d", h.n, n)
	}
	if h.max != vals[n-1] {
		t.Fatalf("max=%d want %d", h.max, vals[n-1])
	}
}

// TestHistSmallExact: values below the linear cutoff report exactly.
func TestHistSmallExact(t *testing.T) {
	var h Hist
	for v := int64(0); v < histLinear; v++ {
		h.Record(v)
	}
	if got := h.Quantile(0.5); got != histLinear/2-1 && got != histLinear/2 {
		t.Fatalf("median of 0..%d reported %d", histLinear-1, got)
	}
	if h.Quantile(1.0) != histLinear-1 {
		t.Fatalf("p100=%d want %d", h.Quantile(1.0), histLinear-1)
	}
}

// TestHistMerge: merging two recorders equals recording the union.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b, all Hist
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(100000))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.merge(&b)
	if a.n != all.n || a.max != all.max {
		t.Fatalf("merge count/max mismatch")
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("q%.2f: merged %d, direct %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

// BenchmarkHistRecord: the recorder on the hot path — must not allocate.
func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i & 0xfffff))
	}
}
