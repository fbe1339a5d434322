package graph

import (
	"math/rand"
	"testing"
)

// TestResetMatchesNew: a Reset graph must be indistinguishable from a fresh
// one, across shrinking and growing re-dimensions.
func TestResetMatchesNew(t *testing.T) {
	g := GNP(40, 0.2, 1)
	for _, n := range []int{40, 12, 0, 64, 40} {
		g.Reset(n)
		fresh := New(n)
		if !g.Equal(fresh) {
			t.Fatalf("Reset(%d) not equal to New(%d): %d nodes, %d edges", n, n, g.N(), g.M())
		}
		// Refill and compare against an identically filled fresh graph.
		r := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u == v {
				continue
			}
			g.MustAddEdge(u, v)
			fresh.MustAddEdge(u, v)
		}
		if !g.Equal(fresh) {
			t.Fatalf("refilled Reset(%d) diverged from fresh graph", n)
		}
		for _, e := range fresh.Edges() {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("Reset graph lost edge %v", e)
			}
		}
	}
}

// TestBFSTreeIntoMatchesBFSTree: the scratch-reusing traversal must produce
// the same tree as the allocating one, including when the tree object is
// reused across graphs of different sizes.
func TestBFSTreeIntoMatchesBFSTree(t *testing.T) {
	graphs := []*Graph{
		GNP(50, 0.1, 7),
		Path(9),
		RandomTree(120, 3),
		New(5), // edgeless: everything unreachable
	}
	var reused *Tree
	for gi, g := range graphs {
		for root := 0; root < g.N(); root += 3 {
			want := g.BFSTree(NodeID(root))
			reused = g.BFSTreeInto(reused, NodeID(root))
			if reused.Root != want.Root {
				t.Fatalf("graph %d root %d: Root = %d, want %d", gi, root, reused.Root, want.Root)
			}
			for u := range want.Parent {
				if reused.Parent[u] != want.Parent[u] || reused.Depth[u] != want.Depth[u] {
					t.Fatalf("graph %d root %d node %d: (parent,depth) = (%d,%d), want (%d,%d)",
						gi, root, u, reused.Parent[u], reused.Depth[u], want.Parent[u], want.Depth[u])
				}
			}
		}
	}
}

// TestShortestTreeIntoMatchesShortestTree with a non-uniform weight.
func TestShortestTreeIntoMatchesShortestTree(t *testing.T) {
	g := GNP(60, 0.12, 11)
	weight := func(u, v NodeID) int64 { return int64((u+2*v)%5) + 1 }
	var reused *Tree
	var dist []int64
	for root := 0; root < g.N(); root += 7 {
		want, wantDist := g.ShortestTree(NodeID(root), weight)
		reused, dist = g.ShortestTreeInto(reused, dist, NodeID(root), weight)
		for u := range want.Parent {
			if reused.Parent[u] != want.Parent[u] || dist[u] != wantDist[u] {
				t.Fatalf("root %d node %d: (parent,dist) = (%d,%d), want (%d,%d)",
					root, u, reused.Parent[u], dist[u], want.Parent[u], wantDist[u])
			}
		}
	}
}

// TestPathFromRootInto: buffer reuse must not change the extracted path, for
// buffers smaller, equal and larger than the path.
func TestPathFromRootInto(t *testing.T) {
	g := RandomTree(64, 5)
	tr := g.BFSTree(0)
	bufs := [][]NodeID{nil, make([]NodeID, 0, 1), make([]NodeID, 0, 64)}
	for u := 0; u < g.N(); u++ {
		want := tr.PathFromRoot(NodeID(u))
		for bi, buf := range bufs {
			got := tr.PathFromRootInto(buf, NodeID(u))
			if len(got) != len(want) {
				t.Fatalf("node %d buf %d: len = %d, want %d", u, bi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d buf %d: path[%d] = %d, want %d", u, bi, i, got[i], want[i])
				}
			}
		}
	}
	if p := tr.PathFromRootInto(make([]NodeID, 0, 8), None); p != nil {
		t.Fatalf("unreachable node produced path %v", p)
	}
}

// TestNextHops: the next-hop array must agree with the second node of the
// extracted root path.
func TestNextHops(t *testing.T) {
	g := GNP(48, 0.1, 5)
	tr := g.BFSTree(3)
	next := tr.NextHops()
	for u := 0; u < g.N(); u++ {
		path := tr.PathFromRoot(NodeID(u))
		switch {
		case len(path) <= 1: // root or unreachable
			if next[u] != None {
				t.Fatalf("node %d: next = %d, want None", u, next[u])
			}
		default:
			if next[u] != path[1] {
				t.Fatalf("node %d: next = %d, want %d", u, next[u], path[1])
			}
		}
	}
}

// NextHops returns, for every node, the first hop on the tree path from the
// root to that node (None for the root itself and for unreachable nodes).
// The array answers "which way out of the root" in O(1) per destination.
func (t *Tree) NextHops() []NodeID {
	next := make([]NodeID, len(t.Parent))
	for u := range next {
		next[u] = None
	}
	for u := range t.Parent {
		if NodeID(u) == t.Root || !t.Reached(NodeID(u)) {
			continue
		}
		v := NodeID(u)
		for t.Parent[v] != t.Root {
			v = t.Parent[v]
		}
		next[u] = v
	}
	return next
}
