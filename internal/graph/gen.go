package graph

import (
	"fmt"
	"math/rand"
)

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

// Ring returns the cycle graph on n >= 3 nodes (for n < 3 it degenerates to a
// path).
func Ring(n int) *Graph {
	g := Path(n)
	if n >= 3 {
		g.MustAddEdge(NodeID(n-1), 0)
	}
	return g
}

// Star returns the star graph with center 0 and n-1 leaves.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, NodeID(i))
	}
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

// CompleteBinaryTree returns the complete binary tree of the given depth
// (depth 0 is a single node). Node 0 is the root; node i has children 2i+1
// and 2i+2. The tree has 2^(depth+1)-1 nodes.
func CompleteBinaryTree(depth int) *Graph {
	if depth < 0 {
		// precondition: a depth is never negative.
		panic(fmt.Sprintf("graph: negative tree depth %d", depth))
	}
	n := (1 << (depth + 1)) - 1
	g := New(n)
	for i := 0; 2*i+2 < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(2*i+1))
		g.MustAddEdge(NodeID(i), NodeID(2*i+2))
	}
	return g
}

// Grid returns the w x h grid graph. Node (x, y) has ID y*w + x.
func Grid(w, h int) *Graph {
	g := New(w * h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := NodeID(y*w + x)
			if x+1 < w {
				g.MustAddEdge(id, id+1)
			}
			if y+1 < h {
				g.MustAddEdge(id, id+NodeID(w))
			}
		}
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n nodes generated
// from a random Prüfer-like attachment: each node i >= 1 attaches to a
// uniformly chosen earlier node. Deterministic for a given seed.
func RandomTree(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID(rng.Intn(i)))
	}
	return g
}

// Caterpillar returns a caterpillar tree: a spine path of length spine with
// legs leaves attached to every spine node. Total nodes: spine*(1+legs).
func Caterpillar(spine, legs int) *Graph {
	n := spine * (1 + legs)
	g := New(n)
	for i := 0; i+1 < spine; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1))
	}
	next := spine
	for i := 0; i < spine; i++ {
		for l := 0; l < legs; l++ {
			g.MustAddEdge(NodeID(i), NodeID(next))
			next++
		}
	}
	return g
}

// GNP returns an Erdős–Rényi G(n, p) graph that is guaranteed connected: a
// random spanning tree is laid down first and each remaining pair is added
// independently with probability p. Deterministic for a given seed.
func GNP(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(perm[i]), NodeID(perm[rng.Intn(i)]))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// arpanetEdges is a 29-node topology shaped like the 1980-era ARPANET
// backbone (the paper's incumbent, [MRR80]): sparse, average degree about
// 2.4, diameter around 8. Node IDs stand in for IMP sites.
var arpanetEdges = [][2]NodeID{
	{0, 1}, {0, 3}, {1, 2}, {2, 4}, {3, 4}, {3, 5}, {4, 6},
	{5, 7}, {6, 8}, {7, 9}, {8, 10}, {9, 11}, {10, 12}, {11, 13},
	{12, 14}, {13, 15}, {14, 16}, {15, 17}, {16, 18}, {17, 19},
	{18, 20}, {19, 21}, {20, 22}, {21, 23}, {22, 24}, {23, 25},
	{24, 26}, {25, 27}, {26, 28}, {27, 28}, {2, 7}, {6, 12},
	{11, 17}, {16, 22}, {21, 27},
}

// ARPANET returns a fixed 29-node ARPANET-like backbone used by the
// topology-maintenance experiments.
func ARPANET() *Graph {
	g := New(29)
	for _, e := range arpanetEdges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}
