package graph

import "sync"

// Tree is a rooted spanning tree (or forest restricted to the root's
// component) expressed as a parent array. Parent[root] == None and
// Parent[u] == None for nodes outside the root's component; use Reached to
// distinguish the two.
type Tree struct {
	Root   NodeID
	Parent []NodeID
	Depth  []int // hop distance from root; -1 if unreachable
}

// Reached reports whether u is in the tree (reachable from the root).
func (t *Tree) Reached(u NodeID) bool {
	if u < 0 || int(u) >= len(t.Parent) {
		return false
	}
	return u == t.Root || t.Parent[u] != None
}

// Children returns, for each node, its children in the tree, sorted by ID.
// The per-node slices share one packed backing array (built by counting
// sort), so the whole structure costs three allocations instead of one per
// interior node.
func (t *Tree) Children() [][]NodeID {
	n := len(t.Parent)
	counts := make([]int32, n)
	total := 0
	for _, p := range t.Parent {
		if p != None {
			counts[p]++
			total++
		}
	}
	backing := make([]NodeID, total)
	ch := make([][]NodeID, n)
	off := 0
	for u, c := range counts {
		ch[u] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for u, p := range t.Parent {
		if p != None {
			ch[p] = append(ch[p], NodeID(u))
		}
	}
	return ch
}

// Size returns the number of nodes in the tree, including the root.
func (t *Tree) Size() int {
	n := 0
	for u := range t.Parent {
		if t.Reached(NodeID(u)) {
			n++
		}
	}
	return n
}

// PathFromRoot returns the node sequence root..u, or nil if u is unreachable.
func (t *Tree) PathFromRoot(u NodeID) []NodeID {
	return t.PathFromRootInto(nil, u)
}

// PathFromRootInto is PathFromRoot writing into buf's backing array when it
// is large enough, so repeated path extractions stop allocating. It returns
// nil if u is unreachable. The depth array gives the path length up front,
// so the path is filled destination-to-root with no reversal pass.
func (t *Tree) PathFromRootInto(buf []NodeID, u NodeID) []NodeID {
	if !t.Reached(u) {
		return nil
	}
	d := t.Depth[u]
	if d < 0 { // Reached via Root with unset Depth cannot happen: Depth[root] = 0
		return nil
	}
	var path []NodeID
	if cap(buf) >= d+1 {
		path = buf[:d+1]
	} else {
		path = make([]NodeID, d+1)
	}
	for v := u; v != None; v = t.Parent[v] {
		path[d] = v
		d--
	}
	return path
}

// queuePool recycles BFS frontier slices across traversals. Pooling is
// invisible in results: the frontier's contents are fully overwritten before
// use and BFS order depends only on the adjacency lists.
var queuePool = sync.Pool{New: func() any { return new([]NodeID) }}

// BFSTree returns the breadth-first (minimum-hop) spanning tree of the
// component containing root. Neighbors are visited in sorted order, so the
// tree is deterministic.
func (g *Graph) BFSTree(root NodeID) *Tree {
	return g.BFSTreeInto(nil, root)
}

// BFSTreeInto is BFSTree reusing t's backing arrays (a nil t allocates a
// fresh tree). The frontier comes from an internal pool, so a warm call
// allocates nothing. The returned tree is t when t was non-nil.
func (g *Graph) BFSTreeInto(t *Tree, root NodeID) *Tree {
	if t == nil {
		t = &Tree{}
	}
	t.Root = root
	t.Parent = resize(t.Parent, g.n)
	t.Depth = resize(t.Depth, g.n)
	for i := range t.Parent {
		t.Parent[i] = None
		t.Depth[i] = -1
	}
	if !g.valid(root) {
		return t
	}
	t.Depth[root] = 0
	qp := queuePool.Get().(*[]NodeID)
	queue := (*qp)[:0]
	queue = append(queue, root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if t.Depth[v] >= 0 {
				continue
			}
			t.Depth[v] = t.Depth[u] + 1
			t.Parent[v] = u
			queue = append(queue, v)
		}
	}
	*qp = queue[:0]
	queuePool.Put(qp)
	return t
}

// resize returns s with length n, reusing its backing array when large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// Distances returns hop distances from root (-1 for unreachable nodes).
func (g *Graph) Distances(root NodeID) []int {
	return g.BFSTree(root).Depth
}

// Connected reports whether the graph is connected (empty and single-node
// graphs are connected).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	d := g.Distances(0)
	for _, x := range d {
		if x < 0 {
			return false
		}
	}
	return true
}

// Components returns the connected components as sorted node lists, ordered
// by their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make([]bool, g.n)
	var comps [][]NodeID
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{NodeID(s)}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Diameter returns the largest hop distance between any connected pair of
// nodes. It is 0 for graphs with fewer than two nodes and ignores
// disconnected pairs (use Connected to check reachability first).
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		for _, d := range g.Distances(NodeID(u)) {
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}
