package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatalf("AddEdge(1,0) duplicate: %v", err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (duplicate edge must not double count)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge must be symmetric")
	}
	if !g.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) should report true")
	}
	if g.HasEdge(0, 1) {
		t.Fatal("edge still present after removal")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge of absent edge should report false")
	}
}

func TestAddEdgeRejectsInvalid(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(2, 1)
	got := g.Neighbors(2)
	want := []NodeID{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v, want %v", got, want)
		}
	}
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g := Star(6)
	if g.Degree(0) != 5 {
		t.Fatalf("center degree = %d, want 5", g.Degree(0))
	}
	if g.Degree(3) != 1 {
		t.Fatalf("leaf degree = %d, want 1", g.Degree(3))
	}
	if g.MaxDegree() != 5 {
		t.Fatalf("MaxDegree = %d, want 5", g.MaxDegree())
	}
}

func TestBFSTreePathGraph(t *testing.T) {
	g := Path(5)
	tr := g.BFSTree(0)
	for u := 1; u < 5; u++ {
		if tr.Parent[u] != NodeID(u-1) {
			t.Fatalf("Parent[%d] = %d, want %d", u, tr.Parent[u], u-1)
		}
		if tr.Depth[u] != u {
			t.Fatalf("Depth[%d] = %d, want %d", u, tr.Depth[u], u)
		}
	}
	if tr.Parent[0] != None || tr.Depth[0] != 0 {
		t.Fatal("root must have no parent and depth 0")
	}
}

func TestBFSTreeMinHop(t *testing.T) {
	// Ring of 6: distances from 0 must be 0,1,2,3,2,1.
	g := Ring(6)
	d := g.Distances(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Distances(0) = %v, want %v", d, want)
		}
	}
}

func TestBFSTreeUnreachable(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	// 2, 3 isolated
	tr := g.BFSTree(0)
	if tr.Reached(2) || tr.Reached(3) {
		t.Fatal("isolated nodes must be unreached")
	}
	if !tr.Reached(0) || !tr.Reached(1) {
		t.Fatal("component of root must be reached")
	}
	if tr.Size() != 2 {
		t.Fatalf("Size = %d, want 2", tr.Size())
	}
}

func TestTreeChildrenAndPath(t *testing.T) {
	g := CompleteBinaryTree(2) // 7 nodes
	tr := g.BFSTree(0)
	ch := tr.Children()
	if len(ch[0]) != 2 || ch[0][0] != 1 || ch[0][1] != 2 {
		t.Fatalf("children of root = %v, want [1 2]", ch[0])
	}
	p := tr.PathFromRoot(6)
	want := []NodeID{0, 2, 6}
	if len(p) != len(want) {
		t.Fatalf("PathFromRoot(6) = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("PathFromRoot(6) = %v, want %v", p, want)
		}
	}
	if tr.PathFromRoot(None) != nil {
		t.Fatal("PathFromRoot(None) must be nil")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v, want 3 components", comps)
	}
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	if !g.Connected() {
		t.Fatal("connected graph reported disconnected")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", Path(5), 4},
		{"ring6", Ring(6), 3},
		{"star8", Star(8), 2},
		{"complete5", Complete(5), 1},
		{"grid3x3", Grid(3, 3), 4},
		{"hypercube4", Hypercube(4), 4},
		{"single", New(1), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Fatalf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(5)
	if e := g.Eccentricity(2); e != 2 {
		t.Fatalf("Eccentricity(mid) = %d, want 2", e)
	}
	if e := g.Eccentricity(0); e != 4 {
		t.Fatalf("Eccentricity(end) = %d, want 4", e)
	}
}

func TestGeneratorsSizes(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"path1", Path(1), 1, 0},
		{"path4", Path(4), 4, 3},
		{"ring5", Ring(5), 5, 5},
		{"star7", Star(7), 7, 6},
		{"complete6", Complete(6), 6, 15},
		{"cbt3", CompleteBinaryTree(3), 15, 14},
		{"grid4x3", Grid(4, 3), 12, 17},
		{"hc3", Hypercube(3), 8, 12},
		{"caterpillar", Caterpillar(4, 2), 12, 11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.n || tt.g.M() != tt.m {
				t.Fatalf("N,M = %d,%d want %d,%d", tt.g.N(), tt.g.M(), tt.n, tt.m)
			}
		})
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100} {
		g := RandomTree(n, 42)
		if g.M() != n-1 && n > 0 {
			if n == 1 && g.M() == 0 {
				continue
			}
			t.Fatalf("RandomTree(%d) has %d edges, want %d", n, g.M(), n-1)
		}
		if !g.Connected() {
			t.Fatalf("RandomTree(%d) disconnected", n)
		}
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	a := RandomTree(50, 7)
	b := RandomTree(50, 7)
	if !a.Equal(b) {
		t.Fatal("RandomTree not deterministic for equal seeds")
	}
	c := RandomTree(50, 8)
	if a.Equal(c) {
		t.Fatal("RandomTree identical across different seeds (suspicious)")
	}
}

func TestGNPConnected(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := GNP(40, 0.05, seed)
		if !g.Connected() {
			t.Fatalf("GNP(40, 0.05, %d) disconnected", seed)
		}
	}
}

func TestARPANET(t *testing.T) {
	g := ARPANET()
	if !g.Connected() {
		t.Fatal("ARPANET topology must be connected")
	}
	if g.N() != 29 {
		t.Fatalf("N = %d, want 29", g.N())
	}
	if d := g.Diameter(); d < 4 || d > 12 {
		t.Fatalf("Diameter = %d, want a sparse-backbone value in [4,12]", d)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Ring(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone differs from original")
	}
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("mutating clone affected original")
	}
	// The clone packs its lists end to end: node 0's grows past its room and
	// node 1's refills the slot it freed; neither may write into node 2's.
	c.MustAddEdge(0, 2)
	c.MustAddEdge(1, 3)
	want := Ring(5)
	want.RemoveEdge(0, 1)
	want.MustAddEdge(0, 2)
	want.MustAddEdge(1, 3)
	if !c.Equal(want) || !g.Equal(Ring(5)) {
		t.Fatalf("clone %v, want %v; original %v", c.Edges(), want.Edges(), g.Edges())
	}
}

// TestAdjacencyWindowsModel runs seeded sequences of AddEdge, RemoveEdge,
// Reset and Clone against a map-of-sets model. Lists start in four-slot
// windows of one spare array and a clone packs them end to end, so a list
// that outgrows its room must move out, not write into another node's: after
// every step every list is sorted and equal to the model, and so is every
// list of the graph the current one was cloned from.
func TestAdjacencyWindowsModel(t *testing.T) {
	type model []map[NodeID]bool
	check := func(seed int64, step int, g *Graph, m model) {
		t.Helper()
		edges := 0
		for u := range m {
			var want []NodeID
			for v := range m[u] {
				want = append(want, v)
			}
			slices.Sort(want)
			edges += len(want)
			if got := g.Neighbors(NodeID(u)); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: node %d lists %v, model %v", seed, step, u, got, want)
			}
		}
		if g.N() != len(m) || 2*g.M() != edges {
			t.Fatalf("seed %d step %d: %d nodes %d edges, model %d nodes %d edges", seed, step, g.N(), g.M(), len(m), edges/2)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		g, m := New(n), make(model, n)
		var orig *Graph
		var origM model
		for step := range 300 {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			switch op := rng.Intn(40); {
			case op == 0:
				n = 1 + rng.Intn(24)
				g.Reset(n)
				m = make(model, n)
			case op == 1: // carry on with the clone
				orig, origM = g, make(model, n)
				for w := range m {
					origM[w] = maps.Clone(m[w])
				}
				g = g.Clone()
			case op < 14:
				g.RemoveEdge(u, v)
				delete(m[u], v)
				delete(m[v], u)
			case u != v:
				g.MustAddEdge(u, v)
				for _, e := range [][2]NodeID{{u, v}, {v, u}} {
					if m[e[0]] == nil {
						m[e[0]] = make(map[NodeID]bool)
					}
					m[e[0]][e[1]] = true
				}
			}
			check(seed, step, g, m)
			if orig != nil {
				check(seed, step, orig, origM)
			}
		}
	}
}

// TestBuildAllocs pins what building a graph costs: the generator's lists
// start in windows of one spare array, and a clone packs every list into one
// array. Measured 264 and 3; 5,372 and 4,098 with an array per list.
func TestBuildAllocs(t *testing.T) {
	const n = 4096
	var g *Graph
	build := testing.AllocsPerRun(3, func() { g = RandomTree(n, 1) })
	clone := testing.AllocsPerRun(3, func() { g.Clone() })
	t.Logf("RandomTree(%d): %.0f allocations; its Clone: %.0f", n, build, clone)
	if build > 400 || clone > 4 {
		t.Errorf("RandomTree(%d) %.0f allocations, want <= 400; Clone %.0f, want <= 4", n, build, clone)
	}
}

// Property: BFS depths satisfy the triangle property |d(u)-d(v)| <= 1 across
// every edge, and parent depth is child depth minus one.
func TestBFSDepthPropertyQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%60) + 2
		g := GNP(n, 0.1, seed)
		tr := g.BFSTree(0)
		for _, e := range g.Edges() {
			du, dv := tr.Depth[e.U], tr.Depth[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		for u := 1; u < n; u++ {
			p := tr.Parent[u]
			if p == None {
				return false // GNP graphs are connected
			}
			if tr.Depth[u] != tr.Depth[p]+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Components partition the node set.
func TestComponentsPartitionQuick(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz%40) + 1
		rng := rand.New(rand.NewSource(seed))
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.08 {
					g.MustAddEdge(NodeID(i), NodeID(j))
				}
			}
		}
		seen := make(map[NodeID]bool)
		for _, comp := range g.Components() {
			for _, u := range comp {
				if seen[u] {
					return false
				}
				seen[u] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	n := 1 << d
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.MustAddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

// Eccentricity returns the largest hop distance from u to any reachable node.
func (g *Graph) Eccentricity(u NodeID) int {
	ecc := 0
	for _, d := range g.Distances(u) {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Validate checks structural sanity (dense part ids, sizes consistent); it
// exists for tests and debug assertions.
func (p Partition) Validate(g *Graph) error {
	if len(p.Assign) != g.N() {
		return fmt.Errorf("graph: partition covers %d of %d nodes", len(p.Assign), g.N())
	}
	sizes := make([]int, p.K)
	for u, c := range p.Assign {
		if c < 0 || int(c) >= p.K {
			return fmt.Errorf("graph: node %d assigned to part %d of %d", u, c, p.K)
		}
		sizes[c]++
	}
	for c, s := range sizes {
		if s == 0 {
			return fmt.Errorf("graph: part %d is empty", c)
		}
		if s != p.Sizes[c] {
			return fmt.Errorf("graph: part %d size %d, recorded %d", c, s, p.Sizes[c])
		}
	}
	return nil
}
