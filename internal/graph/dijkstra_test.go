package graph

import (
	"testing"
	"testing/quick"
)

func unitWeight(u, v NodeID) int64 { return 1 }

func TestShortestTreeUnitWeightsMatchBFS(t *testing.T) {
	g := GNP(40, 0.1, 5)
	bfs := g.BFSTree(0)
	_, dist := g.ShortestTree(0, unitWeight)
	for u := 0; u < g.N(); u++ {
		if int64(bfs.Depth[u]) != dist[u] {
			t.Fatalf("node %d: dijkstra %d != bfs %d", u, dist[u], bfs.Depth[u])
		}
	}
}

func TestShortestTreeAvoidsHeavyEdge(t *testing.T) {
	// Triangle 0-1-2 plus direct edge 0-2 with huge weight: the shortest
	// path 0->2 must detour via 1.
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	w := func(u, v NodeID) int64 {
		e := Edge{U: u, V: v}.Canon()
		if e == (Edge{U: 0, V: 2}) {
			return 100
		}
		return 1
	}
	tr, dist := g.ShortestTree(0, w)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %d, want 2", dist[2])
	}
	if tr.Parent[2] != 1 {
		t.Fatalf("parent[2] = %d, want the detour via 1", tr.Parent[2])
	}
}

func TestShortestTreeUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	_, dist := g.ShortestTree(0, unitWeight)
	if dist[2] != -1 {
		t.Fatalf("dist[2] = %d, want -1", dist[2])
	}
}

func TestShortestTreeNonPositiveWeightClamped(t *testing.T) {
	g := Path(3)
	_, dist := g.ShortestTree(0, func(u, v NodeID) int64 { return 0 })
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %d, want 2 (weights clamped to 1)", dist[2])
	}
}

// Property: dijkstra distances satisfy the triangle inequality over edges.
func TestShortestTreeRelaxedQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := GNP(25, 0.15, seed)
		w := func(u, v NodeID) int64 {
			e := Edge{U: u, V: v}.Canon()
			return 1 + int64((e.U*7+e.V*13)%5)
		}
		_, dist := g.ShortestTree(0, w)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if du < 0 || dv < 0 {
				return false
			}
			if dv > du+w(e.U, e.V) || du > dv+w(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// ShortestTree computes the single-source shortest-path tree under the
// given edge weights (Dijkstra). Dist is -1 for unreachable nodes.
// Non-positive weights are treated as 1.
func (g *Graph) ShortestTree(root NodeID, weight WeightFunc) (*Tree, []int64) {
	return g.ShortestTreeInto(nil, nil, root, weight)
}
