package graph

// Search finds min-hop paths between pairs of nodes by growing breadth-first
// layers from both ends until they meet, for callers that want a few routes,
// not a whole tree. Each step expands the smaller of the two frontiers by one
// whole layer, so when a layer first reaches a node the other end has seen,
// both distances are exact and the path length D is the sum of the two radii.
// On a random fabric that touches a small fraction of the nodes a one-sided
// search discovers before reaching dst.
//
// The path returned is exactly g.BFSTree(src).PathFromRoot(dst). That tree
// (sorted adjacency, FIFO frontier, first discoverer as parent) gives every
// node the shortest path whose sequence of adjacency indices from src is
// lexicographically least: by induction, a layer is dequeued in the order of
// those sequences, so a node's first discoverer is the neighbour with the
// least one. Path builds the same path from the two half-searches: it labels
// the src-side nodes that lie on a shortest path with their distance to dst,
// walking back from the meeting layer, and then steps from src to the first
// neighbour in adjacency order one hop closer to dst.
//
// Node state is stamped with an epoch, so nothing is cleared between pairs.
// The graph must not change during a Path call.
type Search struct {
	g     *Graph
	epoch uint32
	nodes []searchNode
	queue [2][]NodeID // each end's discovered nodes in discovery order
	meet  []NodeID    // the meeting layer, then the labelled layers behind it
}

// searchNode is one node's state as seen from each end (0: src, 1: dst); an
// end's depth is valid when its seen stamp equals Search.epoch.
type searchNode struct {
	seen  [2]uint32
	depth [2]int32
}

// NewSearch returns a search over g.
func NewSearch(g *Graph) *Search {
	return &Search{g: g}
}

// Path returns the node sequence src..dst of g.BFSTree(src).PathFromRoot(dst),
// or nil if dst is unreachable from src or either endpoint is out of range.
// The path is written into buf's backing array when it is large enough.
func (s *Search) Path(buf []NodeID, src, dst NodeID) []NodeID {
	if !s.g.valid(src) || !s.g.valid(dst) {
		return nil
	}
	if src == dst {
		return append(buf[:0], src)
	}
	if len(s.nodes) != s.g.n {
		s.nodes = make([]searchNode, s.g.n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of 2^32 searches ago would read as current
		clear(s.nodes)
		s.epoch = 1
	}
	nodes, epoch := s.nodes, s.epoch
	s.meet = s.meet[:0]
	var lo [2]int // start of each end's frontier in its queue
	var radius [2]int32
	for end, u := range [2]NodeID{src, dst} {
		nodes[u].seen[end], nodes[u].depth[end] = epoch, 0
		s.queue[end] = append(s.queue[end][:0], u)
	}
	for len(s.meet) == 0 {
		end := 0
		if len(s.queue[1])-lo[1] < len(s.queue[0])-lo[0] {
			end = 1
		}
		q, hi := s.queue[end], len(s.queue[end])
		if lo[end] == hi {
			return nil // this end's component is exhausted without meeting the other
		}
		radius[end]++
		for _, u := range q[lo[end]:hi] {
			for _, v := range s.g.adj[u] {
				n := &nodes[v]
				if n.seen[end] == epoch {
					continue
				}
				n.seen[end], n.depth[end] = epoch, radius[end]
				q = append(q, v)
				if n.seen[1-end] == epoch {
					s.meet = append(s.meet, v)
				}
			}
		}
		s.queue[end], lo[end] = q, hi
	}
	// Every meeting node sits radius[0] hops from src and radius[1] from dst.
	// Label the src-side nodes on a shortest path with their distance to dst,
	// one layer at a time back to src: a node k-1 hops out is on one when a
	// labelled node k hops out is its neighbour. No node short of the meeting
	// layer was reached from dst, so every label is exact.
	d := radius[0] + radius[1]
	for k, a := radius[0], 0; k > 0; k-- {
		b := len(s.meet)
		for _, w := range s.meet[a:b] {
			for _, v := range s.g.adj[w] {
				if n := &nodes[v]; n.seen[0] == epoch && n.depth[0] == k-1 && n.seen[1] != epoch {
					n.seen[1], n.depth[1] = epoch, d-k+1
					s.meet = append(s.meet, v)
				}
			}
		}
		a = b
	}
	path := resize(buf, int(d)+1)
	path[0] = src
	for k := 1; k < len(path); k++ {
		for _, v := range s.g.adj[path[k-1]] {
			if n := &nodes[v]; n.seen[1] == epoch && n.depth[1] == d-int32(k) {
				path[k] = v
				break
			}
		}
	}
	return path
}
