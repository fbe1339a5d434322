package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSearchMatchesBFSTree: every path the two-ended search returns — for
// random pairs with out-of-range endpoints and src == dst, across the epoch
// wrap, and on the tie-heavy families where many shortest paths join a pair —
// is the full tree's path, nil included.
func TestSearchMatchesBFSTree(t *testing.T) {
	sparse := New(70) // 50 random edges: several components, isolated nodes
	for r := rand.New(rand.NewSource(3)); sparse.M() < 50; {
		if u, v := NodeID(r.Intn(70)), NodeID(r.Intn(70)); u != v {
			sparse.MustAddEdge(u, v)
		}
	}
	if sparse.Connected() {
		t.Fatal("sparse scenario graph must be disconnected")
	}
	check := func(name string, s *Search, tree *Tree, buf []NodeID, src, dst NodeID) []NodeID {
		t.Helper()
		buf = s.Path(buf[:0], src, dst)
		if want := tree.PathFromRoot(dst); !slices.Equal(buf, want) || (buf == nil) != (want == nil) {
			t.Fatalf("%s: %d->%d: path %v, want %v", name, src, dst, buf, want)
		}
		return buf
	}
	cases := []struct {
		name  string
		g     *Graph
		epoch uint32 // stamp the search starts from
	}{
		{"connected", GNP(60, 0.1, 7), 0},
		{"tree", RandomTree(120, 3), 0},
		{"sparse-disconnected", sparse, 0},
		{"single-node", New(1), 0},
		{"empty", New(0), 0},
		{"epoch-wrap", sparse, math.MaxUint32 - 3},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(11))
		n := tc.g.N()
		s := NewSearch(tc.g)
		if tc.epoch != 0 {
			s.Path(nil, 0, 1) // sizes the stamps, so the planted epoch survives the next search
			s.epoch = tc.epoch
		}
		var buf []NodeID
		for root := 0; root < 40; root++ {
			src := NodeID(rng.Intn(n+2) - 1) // None and n are out of range
			tree := tc.g.BFSTree(src)
			for k := rng.Intn(8); k >= 0; k-- {
				dst := NodeID(rng.Intn(n+2) - 1)
				if k%3 == 0 {
					dst = src
				}
				buf = check(tc.name, s, tree, buf, src, dst)
			}
		}
		if tc.epoch != 0 && s.epoch >= tc.epoch {
			t.Fatalf("%s: epoch %d never wrapped from %d", tc.name, s.epoch, tc.epoch)
		}
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"grid-17x23", Grid(17, 23)},
		{"grid-40x40", Grid(40, 40)},
		{"complete-30", Complete(30)},
		{"hypercube-6", Hypercube(6)},
		{"ring-101", Ring(101)},
	} {
		s := NewSearch(tc.g)
		var buf []NodeID
		n := tc.g.N()
		for src := 0; src < n; src += max(1, n/13) {
			tree := tc.g.BFSTree(NodeID(src))
			for dst := 0; dst < n; dst++ {
				buf = check(tc.name, s, tree, buf, NodeID(src), NodeID(dst))
			}
		}
	}
}

// TestSearchStopsAtDiscovery: the search touches only what the two ends'
// layers reach before they meet. A pair of neighbours on a path meets after
// one layer; random pairs on a sparse random fabric touch a small share of
// the nodes a one-sided search would discover (about half).
func TestSearchStopsAtDiscovery(t *testing.T) {
	touched := func(s *Search) int { return len(s.queue[0]) + len(s.queue[1]) }
	s := NewSearch(Path(10))
	for u := NodeID(0); u < 9; u++ {
		if s.Path(nil, u, u+1); touched(s) > 4 {
			t.Fatalf("%d->%d: touched %d nodes, want <= 4", u, u+1, touched(s))
		}
	}
	const n, pairs = 4096, 2000
	g := GNP(n, 6.0/n, 1)
	s = NewSearch(g)
	rng := rand.New(rand.NewSource(5))
	total := 0
	for i := 0; i < pairs; i++ {
		if s.Path(nil, NodeID(rng.Intn(n)), NodeID(rng.Intn(n))) == nil {
			t.Fatal("GNP fabric must be connected")
		}
		total += touched(s)
	}
	t.Logf("%.3f n touched per pair", float64(total)/pairs/n)
	if total/pairs > n/8 {
		t.Fatalf("touched %d nodes per pair on average, want <= n/8 = %d", total/pairs, n/8)
	}
}
