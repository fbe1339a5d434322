// Package graph provides the undirected-graph substrate used by the fastnet
// simulators and protocols: adjacency storage, breadth-first trees, diameter
// and connectivity queries, and a library of topology generators.
//
// Nodes are dense integers 0..N-1. Edges are undirected and simple (no
// self-loops, no parallel edges). The package is deliberately dependency-free
// so that protocol packages can reason about topology without pulling in a
// runtime.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses 0..N-1.
type NodeID int32

// None is the sentinel for "no node" (e.g. the parent of a BFS root).
const None NodeID = -1

// Edge is an undirected edge between two nodes.
type Edge struct {
	U, V NodeID
}

// Canon returns e with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is a simple undirected graph with dense node IDs. The sorted
// neighbor lists are the only edge storage: membership is a binary search,
// so building a graph allocates nothing beyond the adjacency arrays. A list
// with no array starts in a window of the spare array, which holds one per
// node, and a full one moves to a window of a second spare kept for growth,
// so a graph is built with a few allocations, not one per node.
type Graph struct {
	n     int
	adj   [][]NodeID // sorted neighbor lists
	m     int        // edge count
	spare []NodeID   // unused first windows
	grown []NodeID   // unused windows for lists that outgrew theirs
}

// window is the capacity a neighbor list starts with.
const window = 4

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n < 0 {
		// precondition: a node count is never negative.
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Graph{
		n:   n,
		adj: make([][]NodeID, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Reset re-dimensions g to an empty graph on n nodes, keeping the adjacency
// backing arrays and the spare windows for reuse. A Reset graph is
// indistinguishable from New(n).
func (g *Graph) Reset(n int) {
	if n < 0 {
		// precondition: as in New.
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	if cap(g.adj) >= n {
		g.adj = g.adj[:n]
	} else {
		adj := make([][]NodeID, n)
		copy(adj, g.adj)
		g.adj = adj
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
	g.m = 0
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// valid reports whether u is a node of g.
func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.n }

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge is a
// no-op. Self-loops and out-of-range endpoints are rejected.
func (g *Graph) AddEdge(u, v NodeID) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	i, found := slices.BinarySearch(g.adj[u], v)
	if found {
		return nil
	}
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Insert(g.room(u), i, v)
	g.adj[v] = slices.Insert(g.room(v), j, u)
	g.m++
	return nil
}

// room returns u's neighbor list with space for one more: in a window of the
// spare array if it has no array yet, and when it is full, moved into a
// window twice its capacity carved from the growth spare. Each list is capped
// at its window.
func (g *Graph) room(u NodeID) []NodeID {
	a := g.adj[u]
	switch {
	case cap(a) == 0:
		return carve(&g.spare, window, window*g.n)
	case len(a) == cap(a):
		return append(carve(&g.grown, 2*cap(a), window*g.n), a...)
	}
	return a
}

// carve cuts an empty window of capacity c from the front of *spare, first
// replacing it with a fresh array of max(c, chunk) when it is too short.
func carve(spare *[]NodeID, c, chunk int) []NodeID {
	if len(*spare) < c {
		*spare = make([]NodeID, max(c, chunk))
	}
	s := (*spare)[:0:c]
	*spare = (*spare)[c:]
	return s
}

// MustAddEdge is AddEdge that panics on error; intended for generators and
// tests where the edge is statically known to be valid.
func (g *Graph) MustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		// precondition: the caller knows the edge is valid (AddEdge returns the error).
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge {u, v} if present and reports
// whether it was present.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	i, _ := slices.BinarySearch(g.adj[u], v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[u] = slices.Delete(g.adj[u], i, i+1)
	g.adj[v] = slices.Delete(g.adj[v], j, j+1)
	g.m--
	return true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if !g.valid(u) || !g.valid(v) {
		return false
	}
	_, found := slices.BinarySearch(g.adj[u], v)
	return found
}

// Neighbors returns the sorted neighbor list of u. The returned slice is
// shared with the graph; callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// Degree returns the degree of u.
func (g *Graph) Degree(u NodeID) int {
	if !g.valid(u) {
		return 0
	}
	return len(g.adj[u])
}

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, a := range g.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// Edges returns all edges in canonical order (sorted by U, then V). The
// sorted adjacency lists already hold that order, so no sort is needed.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u, a := range g.adj {
		for _, v := range a {
			if NodeID(u) < v {
				es = append(es, Edge{U: NodeID(u), V: v})
			}
		}
	}
	return es
}

// Clone returns a deep copy of g. Its lists are packed into one array, each
// capped at its length, so one that grows moves out instead of overwriting
// the next.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	all := make([]NodeID, 0, 2*g.m)
	for i, a := range g.adj {
		all = append(all, a...)
		c.adj[i] = all[len(all)-len(a) : len(all) : len(all)]
	}
	return c
}

// Equal reports whether g and h have the same node count and edge set.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := range g.adj {
		if !slices.Equal(g.adj[u], h.adj[u]) {
			return false
		}
	}
	return true
}
