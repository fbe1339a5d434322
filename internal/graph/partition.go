package graph

// Partition is a k-way node partition produced by PartitionK, plus its edge
// cut: the number of edges whose endpoints lie in different parts, which
// bounds the boundary traffic of the sharded scheduler.
type Partition struct {
	// K is the effective number of parts: the requested count, capped at
	// the node count.
	K int
	// Assign maps each node to its part in [0, K).
	Assign []int32
	// Sizes holds the node count of each part.
	Sizes []int
	// CutEdges is the number of edges whose endpoints lie in different parts.
	CutEdges int
}

// maxImbalance caps part growth at maxImbalance * n/K nodes.
const maxImbalance = 1.25

// PartitionK partitions g into at most k parts (k < 1 counts as 1) using
// seeded multi-source BFS growth and a greedy boundary-refinement pass that
// moves nodes to reduce the edge cut. The result is a pure function of
// (g, k, seed); different seeds explore different growth orders.
func PartitionK(g *Graph, k int, seed int64) Partition {
	n := g.N()
	if k > n {
		k = n
	}
	p := Partition{K: 1, Assign: make([]int32, n), Sizes: []int{n}}
	if k <= 1 {
		return p
	}
	capacity := int(maxImbalance*float64(n)/float64(k)) + 1

	// Seed selection: the first seed is derived from seed; each further seed
	// is a farthest node (BFS over the whole graph) from everything selected
	// so far — deterministic farthest-point sampling, which spreads parts
	// across the graph before growth starts.
	assign := p.Assign
	for i := range assign {
		assign[i] = -1
	}
	sizes := make([]int, k)
	claim := func(u int, c int32) {
		assign[u] = c
		sizes[c]++
	}
	claim(int(uint64(seed*2654435761+1)%uint64(n)), 0)
	queue := make([]NodeID, 0, n)
	seen := make([]bool, n)
	for c := int32(1); c < int32(k); c++ {
		// BFS from all assigned nodes; the last unassigned node reached (or
		// the first unassigned one, if none is reachable) seeds part c.
		queue = queue[:0]
		for u := range seen {
			seen[u] = assign[u] >= 0
			if seen[u] {
				queue = append(queue, NodeID(u))
			}
		}
		last := -1
		for head := 0; head < len(queue); head++ {
			for _, v := range g.Neighbors(queue[head]) {
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
			for u := range assign {
				if assign[u] < 0 {
					last = u
					break
				}
			}
		}
		claim(last, c)
	}

	// Multi-source BFS growth: each part keeps a FIFO frontier; the
	// smallest part claims the next unassigned node adjacent to it. Ties and
	// orderings are deterministic (frontier order, part index).
	frontiers := make([][]NodeID, k)
	for u, c := range assign {
		if c >= 0 {
			frontiers[c] = append(frontiers[c], NodeID(u))
		}
	}
	for assigned := k; assigned < n; {
		best := -1
		for c := range frontiers {
			if len(frontiers[c]) > 0 && (best < 0 || sizes[c] < sizes[best]) {
				best = c
			}
		}
		if best < 0 {
			// Disconnected remainder: hand each leftover node to the
			// smallest part.
			for u := range assign {
				if assign[u] < 0 {
					small := 0
					for c := 1; c < k; c++ {
						if sizes[c] < sizes[small] {
							small = c
						}
					}
					claim(u, int32(small))
				}
			}
			break
		}
		c := best
		for progressed := false; len(frontiers[c]) > 0 && !progressed; {
			u := frontiers[c][0]
			frontiers[c] = frontiers[c][1:]
			for _, v := range g.Neighbors(u) {
				if assign[v] >= 0 || sizes[c] >= capacity {
					continue
				}
				claim(int(v), int32(c))
				assigned++
				// Re-queue u after v so its remaining unassigned
				// neighbors are still reachable from this frontier.
				frontiers[c] = append(frontiers[c], v, u)
				progressed = true
				break
			}
		}
	}

	// Greedy refinement: move boundary nodes to the neighboring part holding
	// most of their edges, when that reduces the cut and respects the
	// balance cap. Two passes in node order keep it deterministic.
	gain := make([]int, k)
	for pass := 0; pass < 2; pass++ {
		for u, cur := range assign {
			clear(gain)
			for _, v := range g.Neighbors(NodeID(u)) {
				gain[assign[v]]++
			}
			best := cur
			for c := int32(0); c < int32(k); c++ {
				if c != cur && gain[c] > gain[best] {
					best = c
				}
			}
			if best != cur && sizes[best] < capacity && sizes[cur] > 1 {
				sizes[cur]--
				claim(u, best)
			}
		}
	}

	// No part is ever empty: growth only adds, and refinement moves a node
	// only out of a part that keeps another. So there are exactly k parts.
	p.K, p.Sizes = k, sizes
	for u, c := range assign {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v && c != assign[v] {
				p.CutEdges++
			}
		}
	}
	return p
}
