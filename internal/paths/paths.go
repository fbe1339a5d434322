// Package paths implements the tree labelling and branching-path
// decomposition of the paper's §3.1, used by the topology broadcast.
//
// Labelling: every leaf gets label 0; an interior node whose highest child
// label is l gets l+1 if two or more children carry l, else l (the Strahler
// number). The label of an edge is the label of its child endpoint.
//
// Decomposition: the tree's edges split into maximal monotone chains of
// equal edge label. Each chain, prefixed with the parent of its top node,
// forms one broadcast path: the prefix node (the "start") sends a single
// selective-copy packet covering the whole chain. Every non-root node lies on
// exactly one chain, so a full broadcast costs exactly n-1 deliveries, and
// chains can be scheduled in at most 1+label(root) <= 1+floor(log2 n) rounds
// (Theorem 2).
package paths

import (
	"fmt"
	"sort"

	"fastnet/internal/graph"
)

// Labels computes the Strahler labels of all nodes in t. Nodes outside the
// tree get label -1.
func Labels(t *graph.Tree) []int {
	labels := make([]int, len(t.Parent))
	for i := range labels {
		labels[i] = -1
	}
	children := t.Children()
	// Post-order via explicit stack (trees can be deep paths).
	type frame struct {
		node graph.NodeID
		next int
	}
	if !t.Reached(t.Root) {
		return labels
	}
	stack := []frame{{node: t.Root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := children[f.node]
		if f.next < len(ch) {
			c := ch[f.next]
			f.next++
			stack = append(stack, frame{node: c})
			continue
		}
		// All children labelled; label f.node.
		best, count := -1, 0
		for _, c := range ch {
			switch {
			case labels[c] > best:
				best, count = labels[c], 1
			case labels[c] == best:
				count++
			}
		}
		switch {
		case best < 0:
			labels[f.node] = 0 // leaf
		case count >= 2:
			labels[f.node] = best + 1
		default:
			labels[f.node] = best
		}
		stack = stack[:len(stack)-1]
	}
	return labels
}

// Path is one broadcast path: the start node (which already holds the
// message and sends it) followed by the chain of receiving nodes.
type Path []graph.NodeID

// Start returns the sending node of the path.
func (p Path) Start() graph.NodeID { return p[0] }

// Chain returns the receiving nodes.
func (p Path) Chain() []graph.NodeID { return p[1:] }

// Label returns the common edge label of the path's chain.
func (p Path) label(labels []int) int { return labels[p[1]] }

// Decomposition is the full set of branching paths of one tree.
type Decomposition struct {
	Paths   []Path
	Labels  []int
	byStart map[graph.NodeID][]int // built lazily by StartingAt
}

// Decompose computes the branching-path decomposition of t using the given
// labels (from Labels).
func Decompose(t *graph.Tree, labels []int) *Decomposition {
	children := t.Children()
	d := &Decomposition{Labels: labels}
	// A child c is a chain top iff its parent is the root (the root has no
	// chain of its own) or its label differs from its parent's.
	var tops []graph.NodeID
	for u := range t.Parent {
		c := graph.NodeID(u)
		if !t.Reached(c) || c == t.Root {
			continue
		}
		p := t.Parent[c]
		if p == t.Root || labels[c] != labels[p] {
			tops = append(tops, c)
		}
	}
	sort.Slice(tops, func(i, j int) bool { return tops[i] < tops[j] })
	d.Paths = make([]Path, 0, len(tops))
	for _, top := range tops {
		start := t.Parent[top]
		path := Path{start, top}
		l := labels[top]
		cur := top
		for {
			next := graph.None
			for _, c := range children[cur] {
				if labels[c] == l {
					next = c
					break // Lemma 1: at most one equal-label child
				}
			}
			if next == graph.None {
				break
			}
			path = append(path, next)
			cur = next
		}
		d.Paths = append(d.Paths, path)
	}
	return d
}

// StartingAt returns the paths whose start node is u. The start index is
// built on first use: the broadcast hot path iterates Paths directly and
// never pays for it.
func (d *Decomposition) StartingAt(u graph.NodeID) []Path {
	if d.byStart == nil {
		d.byStart = make(map[graph.NodeID][]int, len(d.Paths))
		for i, p := range d.Paths {
			d.byStart[p.Start()] = append(d.byStart[p.Start()], i)
		}
	}
	idx := d.byStart[u]
	out := make([]Path, 0, len(idx))
	for _, i := range idx {
		out = append(out, d.Paths[i])
	}
	return out
}

// Routes lays the decomposition out as wire routes. It calls emit once per
// path, ordered by start node — the paths of one start keep their
// decomposition order, as a stable sort by start would leave them, so a
// receiver finds its own paths as one contiguous run by binary search —
// passing the link IDs that link reports for the path's hops. The order is
// one counting pass over the starts, and every links slice is carved from a
// single slab with cap == len, so appending to one cannot reach the next. A
// hop that link does not know ends the layout with an error.
func Routes[L any](d *Decomposition, link func(from, to graph.NodeID) (L, bool), emit func(p Path, links []L)) error {
	// next[u] = position in order of u's next path; Labels spans the node IDs.
	next := make([]int32, len(d.Labels)+1)
	hops := 0
	for _, p := range d.Paths {
		next[p.Start()+1]++
		hops += len(p) - 1
	}
	for u := 1; u < len(next); u++ {
		next[u] += next[u-1]
	}
	order := make([]int32, len(d.Paths))
	for i, p := range d.Paths {
		order[next[p.Start()]] = int32(i)
		next[p.Start()]++
	}
	slab := make([]L, 0, hops)
	for _, i := range order {
		p := d.Paths[i]
		lo, from := len(slab), p.Start()
		for _, to := range p.Chain() {
			l, ok := link(from, to)
			if !ok {
				return fmt.Errorf("paths: no link %d->%d", from, to)
			}
			slab = append(slab, l)
			from = to
		}
		emit(p, slab[lo:len(slab):len(slab)])
	}
	return nil
}

// Rounds returns, for every path, the broadcast round in which its start
// node can send it: 1 for paths starting at the root, otherwise one more
// than the round of the path that delivers to the start node. The maximum
// over all paths is the broadcast's time complexity in the C=0, P=1 model.
func (d *Decomposition) Rounds(root graph.NodeID) ([]int, int) {
	// receivedIn[v] = index of the path that contains v in its chain.
	receivedIn := make(map[graph.NodeID]int, len(d.Paths)*2)
	for i, p := range d.Paths {
		for _, v := range p.Chain() {
			receivedIn[v] = i
		}
	}
	rounds := make([]int, len(d.Paths))
	var solve func(i int) int
	solve = func(i int) int {
		if rounds[i] != 0 {
			return rounds[i]
		}
		start := d.Paths[i].Start()
		if start == root {
			rounds[i] = 1
			return 1
		}
		parent, ok := receivedIn[start]
		if !ok {
			// Unreachable for a valid decomposition.
			panic(fmt.Sprintf("paths: start node %d not covered by any chain", start))
		}
		rounds[i] = solve(parent) + 1
		return rounds[i]
	}
	max := 0
	for i := range d.Paths {
		if r := solve(i); r > max {
			max = r
		}
	}
	return rounds, max
}

// Check verifies the decomposition invariants against its tree: chains
// partition the non-root reached nodes, every chain is a same-label
// parent-to-child path, and every start node is the root or a chain member.
// It returns the first violation found.
func (d *Decomposition) Check(t *graph.Tree) error {
	seen := make(map[graph.NodeID]bool)
	inSomeChain := make(map[graph.NodeID]bool)
	for i, p := range d.Paths {
		if len(p) < 2 {
			return fmt.Errorf("paths: path %d too short: %v", i, p)
		}
		l := p.label(d.Labels)
		for j := 1; j < len(p); j++ {
			v := p[j]
			if seen[v] {
				return fmt.Errorf("paths: node %d appears in two chains", v)
			}
			seen[v] = true
			inSomeChain[v] = true
			if d.Labels[v] != l {
				return fmt.Errorf("paths: path %d mixes labels %d and %d", i, l, d.Labels[v])
			}
			if t.Parent[v] != p[j-1] {
				return fmt.Errorf("paths: path %d edge %d->%d is not a tree edge", i, p[j-1], v)
			}
		}
	}
	for u := range t.Parent {
		v := graph.NodeID(u)
		if !t.Reached(v) || v == t.Root {
			continue
		}
		if !seen[v] {
			return fmt.Errorf("paths: node %d not covered by any chain", v)
		}
	}
	for i, p := range d.Paths {
		if s := p.Start(); s != t.Root && !inSomeChain[s] {
			return fmt.Errorf("paths: path %d starts at uncovered node %d", i, s)
		}
	}
	return nil
}

// MaxLabel returns the largest label (the root's label for a connected
// tree); by Theorem 2 it is at most floor(log2 n).
func MaxLabel(labels []int) int {
	max := 0
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max
}
