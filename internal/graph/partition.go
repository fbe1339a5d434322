package graph

// Partition is a k-way node partition produced by PartitionK, plus the cut
// statistics the sharded scheduler consumes: the number of cut edges (the
// boundary traffic bound) and the minimum delay over cut edges (the
// conservative-DES lookahead — shards may drift up to MinCrossDelay apart
// before a boundary packet could possibly arrive).
type Partition struct {
	// K is the effective number of parts (it may be smaller than requested:
	// zero-delay contraction or a tiny graph can make fewer parts viable).
	K int
	// Assign maps each node to its part in [0, K).
	Assign []int32
	// Sizes holds the node count of each part.
	Sizes []int
	// CutEdges is the number of edges whose endpoints lie in different parts.
	CutEdges int
	// MinCrossDelay is the minimum EdgeDelay over cut edges; it is the
	// scheduler's lookahead window. 0 when the partition has no cut edges
	// (K == 1), never 0 otherwise: zero-delay edges are contracted before
	// partitioning and therefore cannot be cut.
	MinCrossDelay int64
}

// PartitionOptions configures PartitionK.
type PartitionOptions struct {
	// K is the requested part count (values < 1 are treated as 1).
	K int
	// Seed makes the partition deterministic; different seeds explore
	// different growth orders.
	Seed int64
	// EdgeDelay reports the delay of edge {u, v}. Edges with delay <= 0 are
	// contracted before partitioning (their endpoints always share a part),
	// which is what guarantees MinCrossDelay >= 1. A nil EdgeDelay means
	// every edge has delay 1.
	EdgeDelay func(u, v NodeID) int64
	// MaxImbalance caps part growth at MaxImbalance * ceil(n/K) nodes
	// (default 1.25).
	MaxImbalance float64
}

// PartitionK partitions g into at most opt.K parts using zero-delay-edge
// contraction, seeded multi-source BFS growth over the contracted supernodes,
// and a greedy boundary-refinement pass that moves supernodes to reduce the
// edge cut. The result is a pure function of (g, opt).
func PartitionK(g *Graph, opt PartitionOptions) Partition {
	n := g.N()
	k := opt.K
	if k < 1 {
		k = 1
	}
	p := Partition{K: 1, Assign: make([]int32, n), Sizes: []int{n}}
	if n == 0 || k == 1 {
		return p
	}

	// Contract zero-delay edges with a union-find: supernodes are the
	// components of the zero-delay subgraph and are never split, so every
	// cut edge has delay >= 1.
	uf := newUnionFind(n)
	if opt.EdgeDelay != nil {
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				if NodeID(u) < v && opt.EdgeDelay(NodeID(u), v) <= 0 {
					uf.union(u, int(v))
				}
			}
		}
	}
	// weight of each supernode root; count distinct supernodes.
	weight := make([]int, n)
	supers := 0
	for u := 0; u < n; u++ {
		r := uf.find(u)
		if weight[r] == 0 {
			supers++
		}
		weight[r]++
	}
	if k > supers {
		k = supers
	}
	if k <= 1 {
		return p
	}

	maxImb := opt.MaxImbalance
	if maxImb <= 1 {
		maxImb = 1.25
	}
	capacity := int(maxImb*float64(n)/float64(k)) + 1

	// Seed selection: the first seed is derived from opt.Seed; each further
	// seed is a farthest supernode (BFS over the whole graph) from everything
	// selected so far — deterministic farthest-point sampling, which spreads
	// parts across the graph before growth starts.
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	// claim assigns supernode root r (and all its members, discovered
	// lazily through uf) to part c. Members are assigned on visit below;
	// here we only mark the root.
	members := memberLists(uf, n)
	claim := func(r int, c int32) {
		for _, u := range members[r] {
			assign[u] = c
		}
		sizes[c] += weight[r]
	}
	first := uf.find(int(uint64(opt.Seed*2654435761+1) % uint64(n)))
	claim(first, 0)
	queue := make([]NodeID, 0, n)
	seen := make([]bool, n)
	for c := int32(1); c < int32(k); c++ {
		// BFS from all assigned nodes; the last supernode root reached (or
		// any unassigned one, if disconnected) becomes the next seed.
		queue = queue[:0]
		for i := range seen {
			seen[i] = false
		}
		for u := 0; u < n; u++ {
			if assign[u] >= 0 {
				queue = append(queue, NodeID(u))
				seen[u] = true
			}
		}
		last := -1
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
					if assign[v] < 0 {
						last = int(v)
					}
				}
			}
		}
		if last < 0 {
			for u := 0; u < n; u++ {
				if assign[u] < 0 {
					last = u
					break
				}
			}
		}
		if last < 0 {
			k = int(c) // fewer viable parts than requested
			sizes = sizes[:k]
			break
		}
		claim(uf.find(last), c)
	}

	// Multi-source BFS growth: each part keeps a FIFO frontier; the
	// smallest part claims the next unassigned supernode adjacent to it.
	// Ties and orderings are deterministic (frontier order, part index).
	frontiers := make([][]NodeID, k)
	for u := 0; u < n; u++ {
		if assign[u] >= 0 {
			frontiers[assign[u]] = append(frontiers[assign[u]], NodeID(u))
		}
	}
	assigned := 0
	for c := 0; c < k; c++ {
		assigned += sizes[c]
	}
	for assigned < n {
		best := -1
		for c := 0; c < k; c++ {
			if len(frontiers[c]) == 0 {
				continue
			}
			if best < 0 || sizes[c] < sizes[best] {
				best = c
			}
		}
		if best < 0 {
			// Disconnected remainder: hand each leftover supernode to the
			// smallest part.
			for u := 0; u < n; u++ {
				if assign[u] < 0 && uf.find(u) == u {
					small := 0
					for c := 1; c < k; c++ {
						if sizes[c] < sizes[small] {
							small = c
						}
					}
					claim(u, int32(small))
					assigned += weight[u]
				}
			}
			break
		}
		c := best
		progressed := false
		for len(frontiers[c]) > 0 && !progressed {
			u := frontiers[c][0]
			frontiers[c] = frontiers[c][1:]
			for _, v := range g.Neighbors(u) {
				if assign[v] >= 0 {
					continue
				}
				r := uf.find(int(v))
				if sizes[c]+weight[r] > capacity && sizes[c] > 0 {
					continue
				}
				claim(r, int32(c))
				assigned += weight[r]
				for _, w := range members[r] {
					frontiers[c] = append(frontiers[c], NodeID(w))
				}
				progressed = true
				// Re-queue u so its remaining unassigned neighbors are
				// still reachable from this frontier.
				frontiers[c] = append(frontiers[c], u)
				break
			}
		}
		if !progressed && len(frontiers[c]) == 0 && frontierDrained(frontiers) {
			continue // falls into the disconnected-remainder branch next loop
		}
	}

	// Greedy refinement: move boundary supernodes to the neighboring part
	// holding most of their edges, when that reduces the cut and respects
	// the balance cap. Two passes in node order keep it deterministic.
	gain := make([]int, k)
	for pass := 0; pass < 2; pass++ {
		for u := 0; u < n; u++ {
			r := uf.find(u)
			if r != u {
				continue // one vote per supernode, counted at its root
			}
			cur := assign[u]
			for c := range gain {
				gain[c] = 0
			}
			for _, m := range members[r] {
				for _, v := range g.Neighbors(NodeID(m)) {
					if uf.find(int(v)) != r {
						gain[assign[v]]++
					}
				}
			}
			best := cur
			for c := int32(0); c < int32(k); c++ {
				if c != cur && gain[c] > gain[best] {
					best = c
				}
			}
			if best != cur && sizes[best]+weight[r] <= capacity && sizes[cur]-weight[r] > 0 {
				sizes[cur] -= weight[r]
				claim(r, best)
			}
		}
	}

	// Compact away empty parts so part indices are dense.
	remap := make([]int32, k)
	dense := int32(0)
	for c := 0; c < k; c++ {
		if sizes[c] > 0 {
			remap[c] = dense
			dense++
		} else {
			remap[c] = -1
		}
	}
	finalSizes := make([]int, dense)
	for u := 0; u < n; u++ {
		assign[u] = remap[assign[u]]
		finalSizes[assign[u]]++
	}

	p.K = int(dense)
	p.Assign = assign
	p.Sizes = finalSizes
	p.CutEdges, p.MinCrossDelay = cutStats(g, assign, opt.EdgeDelay)
	return p
}

// cutStats counts cut edges and the minimum delay across them.
func cutStats(g *Graph, assign []int32, delay func(u, v NodeID) int64) (int, int64) {
	cut := 0
	minDelay := int64(0)
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) >= v || assign[u] == assign[v] {
				continue
			}
			cut++
			d := int64(1)
			if delay != nil {
				d = delay(NodeID(u), v)
			}
			if minDelay == 0 || d < minDelay {
				minDelay = d
			}
		}
	}
	return cut, minDelay
}

func frontierDrained(frontiers [][]NodeID) bool {
	for _, f := range frontiers {
		if len(f) > 0 {
			return false
		}
	}
	return true
}

// memberLists groups nodes by supernode root.
func memberLists(uf *unionFind, n int) [][]int {
	members := make([][]int, n)
	for u := 0; u < n; u++ {
		r := uf.find(u)
		members[r] = append(members[r], u)
	}
	return members
}

// unionFind is a standard path-halving union-find over dense ints.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for int(u.parent[x]) != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = int(u.parent[x])
	}
	return x
}

// union merges the sets of a and b, keeping the smaller root id as
// representative (deterministic).
func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
}
