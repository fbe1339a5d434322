package graph

// Search is a resumable breadth-first search for callers that want paths
// from one root to a few destinations, not the whole tree. PathTo expands
// the frontier only until the destination asked of it is discovered — a node
// is discovered while its parent is scanned, a full layer before it would be
// dequeued — and the next PathTo of the same root resumes where that one
// stopped. Restart moves to a new root in O(1): a node's state counts only
// when its stamp equals the current epoch, so nothing is re-initialized.
//
// Discovery order is BFSTreeInto's (sorted adjacency, FIFO frontier, first
// discoverer becomes the parent), so every path is exactly
// g.BFSTree(root).PathFromRoot(dst). The graph must not change between a
// Restart and the PathTo calls that follow it.
type Search struct {
	g     *Graph
	epoch uint32
	nodes []searchNode
	queue []NodeID // discovered nodes in discovery order; queue[head:] is the frontier
	head  int
}

// searchNode is one node's state; it is valid when epoch matches Search.epoch.
type searchNode struct {
	epoch  uint32
	depth  int32
	parent NodeID
}

// NewSearch returns a search over g with no root: every PathTo gives nil
// until the first Restart.
func NewSearch(g *Graph) *Search {
	return &Search{g: g}
}

// Restart abandons the current search and roots a new one at root. An
// out-of-range root leaves the search empty, so every path from it is nil.
func (s *Search) Restart(root NodeID) {
	if len(s.nodes) != s.g.n {
		s.nodes = make([]searchNode, s.g.n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps of 2^32 searches ago would read as current
		clear(s.nodes)
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	s.head = 0
	if !s.g.valid(root) {
		return
	}
	s.nodes[root] = searchNode{epoch: s.epoch, parent: None}
	s.queue = append(s.queue, root)
}

// PathTo returns the node sequence root..dst, or nil if dst is unreachable
// from the root or out of range. The path is written into buf's backing array
// when it is large enough.
func (s *Search) PathTo(buf []NodeID, dst NodeID) []NodeID {
	if !s.g.valid(dst) || len(s.nodes) != s.g.n { // the latter: no Restart yet
		return nil
	}
	nodes, epoch, queue := s.nodes, s.epoch, s.queue
	for nodes[dst].epoch != epoch && s.head < len(queue) {
		u := queue[s.head]
		s.head++
		d := nodes[u].depth + 1
		for _, v := range s.g.adj[u] {
			if nodes[v].epoch != epoch {
				nodes[v] = searchNode{epoch: epoch, depth: d, parent: u}
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	if nodes[dst].epoch != epoch {
		return nil
	}
	d := int(nodes[dst].depth)
	path := resizeNodes(buf, d+1)
	for v := dst; v != None; v = nodes[v].parent {
		path[d] = v
		d--
	}
	return path
}
