package globalfn

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSBinomialRegime(t *testing.T) {
	// Example 1 (C=0, P=1): S(k) = 2^(k-1).
	p := Params{C: 0, P: 1}
	for k := Time(1); k <= 20; k++ {
		got, err := p.S(k)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1) << (k - 1)
		if got != want {
			t.Fatalf("S(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestSFibonacciRegime(t *testing.T) {
	// Example 3 (C=1, P=1): S follows the Fibonacci numbers.
	p := Params{C: 1, P: 1}
	fib := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144}
	for k := 1; k < len(fib); k++ {
		got, err := p.S(Time(k))
		if err != nil {
			t.Fatal(err)
		}
		if got != fib[k] {
			t.Fatalf("S(%d) = %d, want F(%d) = %d", k, got, k, fib[k])
		}
	}
}

func TestSTraditionalBlowsUp(t *testing.T) {
	// Example 2 (C=1, P=0): the recursion degenerates.
	p := Params{C: 1, P: 0}
	if _, err := p.S(5); !errors.Is(err, ErrTraditional) {
		t.Fatalf("err = %v, want ErrTraditional", err)
	}
	if _, err := p.OptimalTime(10); !errors.Is(err, ErrTraditional) {
		t.Fatalf("err = %v, want ErrTraditional", err)
	}
	if _, err := p.OptimalTree(5); !errors.Is(err, ErrTraditional) {
		t.Fatalf("err = %v, want ErrTraditional", err)
	}
}

func TestSBaseCases(t *testing.T) {
	p := Params{C: 2, P: 3}
	cases := []struct {
		t    Time
		want int64
	}{
		{0, 0}, {2, 0}, {3, 1}, {7, 1}, {8, 2}, {10, 2}, {11, 3},
	}
	for _, tc := range cases {
		got, err := p.S(tc.t)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("S(%d) = %d, want %d", tc.t, got, tc.want)
		}
	}
}

func TestSMonotoneQuick(t *testing.T) {
	f := func(cRaw, pRaw uint8, tRaw uint16) bool {
		p := Params{C: Time(cRaw % 6), P: Time(pRaw%5) + 1}
		tt := Time(tRaw % 200)
		a, err := p.S(tt)
		if errors.Is(err, ErrOverflow) {
			return true // growth so fast that int64 overflows: fine
		}
		if err != nil {
			return false
		}
		b, err := p.S(tt + 1)
		if errors.Is(err, ErrOverflow) {
			return true
		}
		if err != nil {
			return false
		}
		return b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSRejectsNegative(t *testing.T) {
	if _, err := (Params{C: -1, P: 1}).S(5); !errors.Is(err, ErrBadParams) {
		t.Fatalf("err = %v, want ErrBadParams", err)
	}
}

func TestTruncate(t *testing.T) {
	p := Params{C: 2, P: 3}
	// Grid: i*3 + j*5, i >= 1: 3, 6, 8, 9, 11, 12, 13, 14, ...
	cases := []struct{ in, want Time }{
		{0, 0}, {2, 0}, {3, 3}, {5, 3}, {7, 6}, {8, 8}, {10, 9}, {13, 13},
	}
	for _, tc := range cases {
		if got := p.Truncate(tc.in); got != tc.want {
			t.Fatalf("Truncate(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestOptimalTimeBinomial(t *testing.T) {
	// C=0, P=1: n nodes need ceil(log2 n) + 1 time units.
	p := Params{C: 0, P: 1}
	cases := []struct {
		n    int64
		want Time
	}{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4}, {9, 5}, {1024, 11},
	}
	for _, tc := range cases {
		got, err := p.OptimalTime(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("OptimalTime(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestOptimalTimeMatchesS(t *testing.T) {
	// min{t : S(t) >= n} as a property across regimes.
	for _, p := range []Params{{C: 0, P: 1}, {C: 1, P: 1}, {C: 3, P: 2}, {C: 1, P: 4}} {
		for _, n := range []int64{1, 2, 3, 7, 20, 100, 999} {
			tm, err := p.OptimalTime(n)
			if err != nil {
				t.Fatal(err)
			}
			at, err := p.S(tm)
			if err != nil {
				t.Fatal(err)
			}
			if at < n {
				t.Fatalf("P=%v: S(OptimalTime(%d)=%d) = %d < n", p, n, tm, at)
			}
			before, err := p.S(tm - 1)
			if err != nil {
				t.Fatal(err)
			}
			if before >= n {
				t.Fatalf("P=%v: S(%d) = %d >= %d already", p, tm-1, before, n)
			}
		}
	}
}

func TestOptimalTreeSizeEqualsS(t *testing.T) {
	for _, p := range []Params{{C: 0, P: 1}, {C: 1, P: 1}, {C: 2, P: 3}, {C: 5, P: 1}} {
		for tt := Time(1); tt <= 20; tt++ {
			want, err := p.S(tt)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := p.OptimalTree(tt)
			if err != nil {
				t.Fatal(err)
			}
			if int64(tr.Size) != want {
				t.Fatalf("C=%d P=%d: |OT(%d)| = %d, want S = %d", p.C, p.P, tt, tr.Size, want)
			}
		}
	}
}

func TestBinomialTreeShape(t *testing.T) {
	tr := Binomial(4) // 16 nodes
	if tr.Size != 16 {
		t.Fatalf("size = %d, want 16", tr.Size)
	}
	// A binomial tree of order k has root degree k and depth k.
	if len(tr.Children[0]) != 4 {
		t.Fatalf("root degree = %d, want 4", len(tr.Children[0]))
	}
	if tr.Depth() != 4 {
		t.Fatalf("depth = %d, want 4", tr.Depth())
	}
}

func TestStarShape(t *testing.T) {
	tr := Star(7)
	if tr.Size != 7 || len(tr.Children[0]) != 6 || tr.Depth() != 1 {
		t.Fatalf("bad star: %+v", tr)
	}
	if len(tr.leaves()) != 6 {
		t.Fatalf("leaves = %v", tr.leaves())
	}
}

func TestPruneTo(t *testing.T) {
	tr := Binomial(4)
	pr, err := tr.PruneTo(9)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Size != 9 {
		t.Fatalf("size = %d, want 9", pr.Size)
	}
	// Parent pointers must stay within the kept prefix.
	for id := 1; id < pr.Size; id++ {
		if pr.Parent[id] >= id {
			t.Fatalf("BFS prefix violated: parent[%d] = %d", id, pr.Parent[id])
		}
	}
	if _, err := tr.PruneTo(0); err == nil {
		t.Fatal("prune to 0 must fail")
	}
	if _, err := tr.PruneTo(17); err == nil {
		t.Fatal("prune beyond size must fail")
	}
}

func TestExecuteComputesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := Params{C: 2, P: 3}
	tr, err := p.OptimalTree(40)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Value, tr.Size)
	var wantSum Value
	wantMax := Value(-1 << 62)
	for i := range inputs {
		inputs[i] = Value(rng.Intn(1000) - 500)
		wantSum += inputs[i]
		if inputs[i] > wantMax {
			wantMax = inputs[i]
		}
	}
	sum, err := Execute(tr, p, inputs, Sum, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Value != wantSum {
		t.Fatalf("sum = %d, want %d", sum.Value, wantSum)
	}
	max, err := Execute(tr, p, inputs, Max, false)
	if err != nil {
		t.Fatal(err)
	}
	if max.Value != wantMax {
		t.Fatalf("max = %d, want %d", max.Value, wantMax)
	}
}

func TestExecuteMatchesOptimalTime(t *testing.T) {
	// The headline §5 check: simulating OT(t*) under exact worst-case
	// delays finishes at exactly t* = OptimalTime(n).
	for _, p := range []Params{{C: 0, P: 1}, {C: 1, P: 1}, {C: 2, P: 3}, {C: 4, P: 1}, {C: 1, P: 5}} {
		for _, n := range []int64{1, 2, 5, 17, 64, 200} {
			tstar, err := p.OptimalTime(n)
			if err != nil {
				t.Fatal(err)
			}
			full, err := p.OptimalTree(tstar)
			if err != nil {
				t.Fatal(err)
			}
			inputs := make([]Value, full.Size)
			for i := range inputs {
				inputs[i] = Value(i)
			}
			res, err := Execute(full, p, inputs, Sum, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Finish != tstar {
				t.Fatalf("C=%d P=%d n=%d: finish = %d, want t* = %d (size %d)",
					p.C, p.P, n, res.Finish, tstar, full.Size)
			}
			// The pruned n-node tree finishes no later.
			pruned, err := full.PruneTo(int(n))
			if err != nil {
				t.Fatal(err)
			}
			pres, err := Execute(pruned, p, inputs[:n], Sum, false)
			if err != nil {
				t.Fatal(err)
			}
			if pres.Finish > tstar {
				t.Fatalf("C=%d P=%d n=%d: pruned finish = %d > t* = %d",
					p.C, p.P, n, pres.Finish, tstar)
			}
		}
	}
}

func TestExecuteOnCompleteGraphIdentical(t *testing.T) {
	p := Params{C: 1, P: 2}
	tr, err := p.OptimalTree(16)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Value, tr.Size)
	for i := range inputs {
		inputs[i] = Value(3 * i)
	}
	onTree, err := Execute(tr, p, inputs, Sum, false)
	if err != nil {
		t.Fatal(err)
	}
	onComplete, err := Execute(tr, p, inputs, Sum, true)
	if err != nil {
		t.Fatal(err)
	}
	if onTree.Finish != onComplete.Finish || onTree.Value != onComplete.Value {
		t.Fatalf("tree run (%d, %d) != complete-graph run (%d, %d)",
			onTree.Finish, onTree.Value, onComplete.Finish, onComplete.Value)
	}
}

func TestStarTimePrediction(t *testing.T) {
	p := Params{C: 3, P: 2}
	for _, n := range []int{1, 2, 5, 30} {
		tr := Star(n)
		inputs := make([]Value, n)
		for i := range inputs {
			inputs[i] = 1
		}
		res, err := Execute(tr, p, inputs, Sum, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finish != StarTime(int64(n), p) {
			t.Fatalf("n=%d: star finish = %d, predicted %d", n, res.Finish, StarTime(int64(n), p))
		}
		if res.Value != Value(n) {
			t.Fatalf("n=%d: value = %d, want %d", n, res.Value, n)
		}
	}
}

func TestOptimalBeatsStarWhenSoftwareDominates(t *testing.T) {
	// P >> C: the star pays (n-1)P serialization at the root; the optimal
	// tree parallelizes: the new model does not degenerate even on a
	// complete graph (the paper's §5 punchline).
	p := Params{C: 1, P: 10}
	n := int64(64)
	tstar, err := p.OptimalTime(n)
	if err != nil {
		t.Fatal(err)
	}
	if st := StarTime(n, p); tstar >= st {
		t.Fatalf("optimal %d >= star %d with P >> C", tstar, st)
	}
	// C >> P, small n: the star is optimal (single message latency
	// dominates); OptimalTime must not beat physics: it equals the star's
	// time for n = 2.
	p2 := Params{C: 100, P: 1}
	t2, err := p2.OptimalTime(2)
	if err != nil {
		t.Fatal(err)
	}
	if t2 != StarTime(2, p2) {
		t.Fatalf("two nodes: optimal %d != star %d", t2, StarTime(2, p2))
	}
}

func TestExecuteErrors(t *testing.T) {
	if _, err := Execute(&Tree{}, Params{C: 0, P: 1}, nil, Sum, false); !errors.Is(err, ErrEmptyTree) {
		t.Fatalf("err = %v, want ErrEmptyTree", err)
	}
	tr := Star(3)
	if _, err := Execute(tr, Params{C: 0, P: 1}, make([]Value, 2), Sum, false); err == nil {
		t.Fatal("input length mismatch must fail")
	}
	if _, err := Execute(tr, Params{C: -1, P: 1}, make([]Value, 3), Sum, false); err == nil {
		t.Fatal("negative delays must fail")
	}
}

func TestExecuteP0Star(t *testing.T) {
	// The traditional regime (P=0) still simulates: a star of any size
	// finishes at C (example 2's degenerate optimum).
	p := Params{C: 4, P: 0}
	n := 50
	tr := Star(n)
	inputs := make([]Value, n)
	res, err := Execute(tr, p, inputs, Sum, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != 4 {
		t.Fatalf("finish = %d, want C = 4", res.Finish)
	}
}

func TestGridUpTo(t *testing.T) {
	p := Params{C: 2, P: 3}
	grid := p.gridUpTo(12)
	want := []Time{3, 6, 8, 9, 11, 12}
	if len(grid) != len(want) {
		t.Fatalf("grid = %v, want %v", grid, want)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid = %v, want %v", grid, want)
		}
	}
}

// Truncate returns the largest achievable completion time <= t, i.e. the
// largest value i*P + j*(C+P) <= t with i >= 1, j >= 0 (every tree-based
// schedule completes at such a point), or 0 if t < P.
func (p Params) Truncate(t Time) Time {
	if t < p.P {
		return 0
	}
	best := Time(0)
	// j is bounded by t/(C+P); for each j take the largest i.
	step := p.C + p.P
	for j := Time(0); j*step+p.P <= t; j++ {
		i := (t - j*step) / p.P // >= 1 by the loop condition
		if v := i*p.P + j*step; v > best {
			best = v
		}
	}
	return best
}

// Binomial returns the binomial tree of order k (2^k nodes): the optimal
// tree of the C=0, P=1 regime (paper example 1).
func Binomial(k int) *Tree {
	p := Params{C: 0, P: 1}
	tr, err := p.OptimalTree(Time(k + 1))
	if err != nil {
		panic(err) // P=1 cannot degenerate
	}
	return tr
}
