package load

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// arrivalLedgerHash renders the first n arrivals of the canonical pinned
// scenario — Poisson timing, Zipf endpoints over GNP(64) — as a byte
// ledger of (t, src, dst) triples and hashes it. This is the generator's
// seed-purity golden: the ledger is a pure function of the seed.
func arrivalLedgerHash(seed int64, n int) string {
	g := graph.GNP(64, 4.0/64, 9)
	pm := core.NewPortMap(g)
	pt, err := NewPairTable(g, pm, 512, 1.1, seed^0x9a1f)
	if err != nil {
		panic(err)
	}
	arr := NewPoisson(0.5, seed^0x41a7)
	pairRng := rand.New(rand.NewSource(seed ^ 0x77e1))
	h := sha256.New()
	var buf [24]byte
	for i := 0; i < n; i++ {
		t := arr.Next()
		src, dst := pt.Pair(pt.Sample(pairRng))
		binary.LittleEndian.PutUint64(buf[0:], uint64(t))
		binary.LittleEndian.PutUint64(buf[8:], uint64(src))
		binary.LittleEndian.PutUint64(buf[16:], uint64(dst))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestArrivalLedgerGolden pins the arrival ledger for seed 1: any change
// to the sampler derivation, the pair-table build, or the rng stream
// discipline shows up as a hash change and must be deliberate.
func TestArrivalLedgerGolden(t *testing.T) {
	const want = "d86d4defd2000affad3653a5bb916e0d96b0b9f9c1c017b610e70195c6396f21"
	got := arrivalLedgerHash(1, 20000)
	if got != want {
		t.Fatalf("arrival ledger hash drifted:\n got  %s\n want %s", got, want)
	}
}

// TestArrivalLedgerSeeds: different seeds produce different ledgers, same
// seed reproduces byte-identically within one process.
func TestArrivalLedgerSeeds(t *testing.T) {
	a := arrivalLedgerHash(2, 5000)
	b := arrivalLedgerHash(2, 5000)
	c := arrivalLedgerHash(3, 5000)
	if a != b {
		t.Fatalf("same seed, different ledgers: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 2 and 3 collide: %s", a)
	}
}

// TestPoissonRate: the empirical arrival rate matches the configured rate.
func TestPoissonRate(t *testing.T) {
	p := NewPoisson(0.5, 42)
	n := 200000
	var last core.Time
	for i := 0; i < n; i++ {
		last = p.Next()
	}
	got := float64(n) / float64(last)
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("empirical rate %.4f, want 0.5", got)
	}
}

// TestBurstRate: the mmpp preserves the long-run mean rate while its
// on-phases run at the peak.
func TestBurstRate(t *testing.T) {
	m := newBurst(0.5, 8, 512, 42)
	n := 200000
	var last core.Time
	for i := 0; i < n; i++ {
		last = m.Next()
	}
	got := float64(n) / float64(last)
	if math.Abs(got-0.5) > 0.075 {
		t.Fatalf("empirical mean rate %.4f, want 0.5 +- 15%%", got)
	}
}

// TestBurstIsBursty: with the same mean rate, the mmpp's inter-arrival
// variance must exceed the Poisson's (burstiness is the point).
func TestBurstIsBursty(t *testing.T) {
	varOf := func(a arrivals, n int) float64 {
		var prev core.Time
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			t := a.Next()
			d := float64(t - prev)
			prev = t
			sum += d
			sumSq += d * d
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	vp := varOf(NewPoisson(0.5, 7), 100000)
	vb := varOf(newBurst(0.5, 8, 512, 7), 100000)
	if vb < 2*vp {
		t.Fatalf("burst variance %.2f not clearly above poisson %.2f", vb, vp)
	}
}

// TestAliasChiSquare: the alias table's empirical distribution over a Zipf
// weight vector matches the analytic one — chi-square over 64 cells with
// 200k draws stays under the p=0.001 critical value (the draw stream is
// seeded, so this is a deterministic regression, not a flaky coin flip).
func TestAliasChiSquare(t *testing.T) {
	const k = 64
	const draws = 200000
	weights := make([]float64, k)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
		sum += weights[i]
	}
	table := newAlias(weights)
	rng := rand.New(rand.NewSource(12345))
	counts := make([]int64, k)
	for i := 0; i < draws; i++ {
		counts[table.sample(rng)]++
	}
	var chi2 float64
	for i := range counts {
		expected := weights[i] / sum * draws
		d := float64(counts[i]) - expected
		chi2 += d * d / expected
	}
	// chi-square critical value for 63 dof at p=0.001 is ~103.4.
	if chi2 > 103.4 {
		t.Fatalf("chi-square %.1f exceeds the 63-dof p=0.001 critical value", chi2)
	}
}

// TestAliasUniform: zero skew degenerates to the uniform distribution.
func TestAliasUniform(t *testing.T) {
	const k = 16
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1
	}
	table := newAlias(weights)
	rng := rand.New(rand.NewSource(9))
	counts := make([]int64, k)
	const draws = 160000
	for i := 0; i < draws; i++ {
		counts[table.sample(rng)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-draws/k) > draws/k/10 {
			t.Fatalf("cell %d: %d draws, want ~%d", i, c, draws/k)
		}
	}
}

// TestPairTableDeterminism: same seed, same table.
func TestPairTableDeterminism(t *testing.T) {
	g := graph.GNP(128, 4.0/128, 5)
	pm := core.NewPortMap(g)
	a, err := NewPairTable(g, pm, 1000, 1.2, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPairTable(g, pm, 1000, 1.2, 77)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		as, ad := a.Pair(i)
		bs, bd := b.Pair(i)
		if as != bs || ad != bd {
			t.Fatalf("pair %d differs: (%d,%d) vs (%d,%d)", i, as, ad, bs, bd)
		}
	}
	// Pairs are distinct and never self-loops.
	seen := make(map[[2]core.NodeID]bool)
	for i := 0; i < a.Len(); i++ {
		s, d := a.Pair(i)
		if s == d {
			t.Fatalf("pair %d is a self-loop at node %d", i, s)
		}
		key := [2]core.NodeID{s, d}
		if seen[key] {
			t.Fatalf("pair %d duplicates (%d,%d)", i, s, d)
		}
		seen[key] = true
	}
}
