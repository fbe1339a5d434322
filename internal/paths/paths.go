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
	"sync"

	"fastnet/internal/anr"
	"fastnet/internal/graph"
)

// scratch is the working storage of one decomposition: the tree's child
// lists, its labels and the order they are computed in, and the chains with
// their node slab. NewFanout takes one from scratchPool, and its plan keeps
// none of it; Labels and Decompose start from an empty one, so what they
// return is the caller's alone. A buffer too small for the tree is made at
// the exact size needed, never grown by append.
type scratch struct {
	first  []int32 // u's children are kids[first[u]:first[u+1]], ascending
	kids   []graph.NodeID
	labels []int
	queue  []graph.NodeID // the labelling's breadth-first order
	nodes  []graph.NodeID // the chains' slab
	d      Decomposition  // Paths and order reused; off made afresh each time
}

// scratchPool recycles NewFanout's scratch, as graph's BFS recycles its
// frontier: every buffer is overwritten before it is read, so reuse is
// invisible in the plans, and each concurrent caller takes its own.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fit returns s with length n, reusing its array when large enough.
func fit[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// children lays out t's child lists (what Tree.Children returns) as runs of
// one array, by counting sort.
func (s *scratch) children(t *graph.Tree) {
	n := len(t.Parent)
	s.first = fit(s.first, n+1)
	clear(s.first)
	for _, p := range t.Parent {
		if p != graph.None {
			s.first[p+1]++
		}
	}
	for u := 0; u < n; u++ {
		s.first[u+1] += s.first[u]
	}
	s.kids = fit(s.kids, int(s.first[n]))
	for u, p := range t.Parent { // ascending child ID
		if p != graph.None {
			s.kids[s.first[p]] = graph.NodeID(u)
			s.first[p]++
		}
	}
	copy(s.first[1:], s.first) // filling advanced first[u] to first[u+1]
	s.first[0] = 0
}

// kidsOf returns u's children, laid out by children.
func (s *scratch) kidsOf(u graph.NodeID) []graph.NodeID { return s.kids[s.first[u]:s.first[u+1]] }

// Labels computes the Strahler labels of all nodes in t. Nodes outside the
// tree get label -1.
func Labels(t *graph.Tree) []int {
	var s scratch
	s.children(t)
	return s.label(t)
}

// label is Labels over the child lists children laid out.
func (s *scratch) label(t *graph.Tree) []int {
	s.labels = fit(s.labels, len(t.Parent))
	labels := s.labels
	for i := range labels {
		labels[i] = -1
	}
	if !t.Reached(t.Root) {
		return labels
	}
	// Breadth-first over the child lists, every node comes after its parent,
	// so the reverse order labels each node after its children with no stack
	// however deep the tree.
	s.queue = fit(s.queue, len(t.Parent))
	queue := append(s.queue[:0], t.Root)
	for head := 0; head < len(queue); head++ {
		queue = append(queue, s.kidsOf(queue[head])...)
	}
	for i := len(queue) - 1; i >= 0; i-- {
		u := queue[i]
		best, count := -1, 0
		for _, c := range s.kidsOf(u) {
			switch {
			case labels[c] > best:
				best, count = labels[c], 1
			case labels[c] == best:
				count++
			}
		}
		switch {
		case best < 0:
			labels[u] = 0 // leaf
		case count >= 2:
			labels[u] = best + 1
		default:
			labels[u] = best
		}
	}
	return labels
}

// Path is one broadcast path: the start node (which already holds the
// message and sends it) followed by the chain of receiving nodes.
type Path []graph.NodeID

// Start returns the sending node of the path.
func (p Path) Start() graph.NodeID { return p[0] }

// chain returns the receiving nodes.
func (p Path) chain() []graph.NodeID { return p[1:] }

// Label returns the common edge label of the path's chain.
func (p Path) label(labels []int) int { return labels[p[1]] }

// Decomposition is the full set of branching paths of one tree, in ascending
// order of the chains' top nodes.
type Decomposition struct {
	Paths  []Path
	Labels []int

	// The same paths grouped by start node: order lists path indices by
	// ascending start, the paths of one start in decomposition order (what a
	// stable sort by start would leave), and those starting at u are
	// order[off[u]:off[u+1]]. off spans the tree's node IDs.
	off   []int32
	order []int32
}

// Decompose computes the branching-path decomposition of t using the given
// labels (from Labels).
func Decompose(t *graph.Tree, labels []int) *Decomposition {
	var s scratch
	s.children(t)
	s.decompose(t, labels)
	return &s.d
}

// decompose is Decompose over the child lists children laid out, into s.d.
// All chains are carved from one node slab, each with cap == len.
func (s *scratch) decompose(t *graph.Tree, labels []int) {
	// A child c is a chain top iff its parent is the root (the root has no
	// chain of its own) or its label differs from its parent's.
	top := func(c, p graph.NodeID) bool {
		return p != graph.None && c != t.Root && (p == t.Root || labels[c] != labels[p])
	}
	d := &s.d
	d.Labels, d.off = labels, make([]int32, len(t.Parent)+1)
	tops, nodes := 0, 0
	for u, p := range t.Parent {
		if p != graph.None {
			nodes++
		}
		if top(graph.NodeID(u), p) {
			tops++
			d.off[p+1]++
		}
	}
	for u := range t.Parent {
		d.off[u+1] += d.off[u]
	}
	// off[u] is now where u's run of order begins; filling the run advances it
	// to where the next one begins, and one shift afterwards restores it.
	d.Paths = fit(d.Paths, tops)[:0]
	d.order = fit(d.order, tops)
	s.nodes = fit(s.nodes, nodes+tops)
	slab := s.nodes[:0]
	for u, p := range t.Parent { // ascending top ID
		c := graph.NodeID(u)
		if !top(c, p) {
			continue
		}
		d.order[d.off[p]] = int32(len(d.Paths))
		d.off[p]++
		lo := len(slab)
		slab = append(slab, p, c)
		for l, cur := labels[c], c; ; {
			next := graph.None
			for _, k := range s.kidsOf(cur) {
				if labels[k] == l {
					next = k
					break // Lemma 1: at most one equal-label child
				}
			}
			if next == graph.None {
				break
			}
			slab = append(slab, next)
			cur = next
		}
		d.Paths = append(d.Paths, Path(slab[lo:len(slab):len(slab)]))
	}
	copy(d.off[1:], d.off)
	d.off[0] = 0
}

// Routes lays the decomposition out as wire routes. It calls emit once per
// path, ordered by start node — the paths of one start keep their
// decomposition order — passing the link IDs that link reports for the
// path's hops. Every links slice is carved from a single slab with
// cap == len, so appending to one cannot reach the next. A hop that link
// does not know ends the layout with an error.
func Routes[L any](d *Decomposition, link func(from, to graph.NodeID) (L, bool), emit func(p Path, links []L)) error {
	return layout(d, 0, link, emit)
}

// layout is Routes with tail zero-valued elements behind every path's links.
func layout[L any](d *Decomposition, tail int, link func(from, to graph.NodeID) (L, bool), emit func(p Path, links []L)) error {
	size := tail * len(d.Paths)
	for _, p := range d.Paths {
		size += len(p) - 1
	}
	slab := make([]L, 0, size)
	for _, i := range d.order {
		p := d.Paths[i]
		lo, from := len(slab), p.Start()
		for _, to := range p.chain() {
			l, ok := link(from, to)
			if !ok {
				return fmt.Errorf("paths: no link %d->%d", from, to)
			}
			slab = append(slab, l)
			from = to
		}
		slab = slab[:len(slab)+tail] // never written: still make's zero values
		emit(p, slab[lo:len(slab):len(slab)])
	}
	return nil
}

// Fanout is a whole branching-paths broadcast in wire form: for every start
// node, the finished selective-copy header of each path that starts there
// (first hop normal — the sender already holds the message — every later hop
// with the copy bit, then the NCU terminator). The origin builds it once per
// tree and attaches it to the message; a receiver's whole part in the
// broadcast is to multicast For(its own ID) as it stands.
//
// A Fanout is immutable from the moment it is attached to a message. The
// selective copies of one broadcast share it, an origin reuses it across
// rounds, and under the goroutine runtime every node reads it concurrently;
// the runtimes' Send and Multicast only read a header. What a message carries
// between NCUs is not a model measure; the bits of the headers sent are.
type Fanout struct {
	off  []int32      // hdrs[off[u]:off[u+1]] start at node u; spans the tree's node IDs
	hdrs []anr.Header // in start order, all hops in one slab, each with cap == len
}

// NewFanout decomposes t into branching paths and lays them out as headers,
// taking the link ID at from toward to from link. A hop that link does not
// know is an error. The decomposition is built in pooled scratch; the plan
// holds only storage made for it.
func NewFanout(t *graph.Tree, link func(from, to graph.NodeID) (anr.ID, bool)) (*Fanout, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.children(t)
	s.decompose(t, s.label(t))
	d := &s.d
	f := &Fanout{off: d.off, hdrs: make([]anr.Header, 0, len(d.Paths))}
	d.off = nil // the plan's, not the scratch's
	err := layout(d, 1, func(from, to graph.NodeID) (anr.Hop, bool) {
		id, ok := link(from, to)
		return anr.Hop{Link: id, Copy: true}, ok
	}, func(_ Path, h []anr.Hop) {
		h[0].Copy = false
		f.hdrs = append(f.hdrs, h) // the tail element is the zero Hop: the NCU terminator
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// For returns the headers of the paths that start at id: none for a node that
// starts no path or lies outside the tree's ID range, and none on a nil plan.
func (f *Fanout) For(id graph.NodeID) []anr.Header {
	if f == nil || id < 0 || int(id)+1 >= len(f.off) {
		return nil
	}
	return f.hdrs[f.off[id]:f.off[id+1]]
}

// Relay sends payload over every path that starts at id in one multicast (one
// activation at id, one route per link) and reports how many paths that was;
// a node that starts none sends nothing. env is the sending node's
// core.Env. An error means the runtime refused the routes — they do not
// match the ports of the node they were handed to, or exceed dmax — and names
// the node and the first link of every route; whether that is fatal is the
// protocol's call.
func (f *Fanout) Relay(env interface {
	Multicast(hs []anr.Header, payload any) error
}, id graph.NodeID, payload any) (int, error) {
	hs := f.For(id)
	if len(hs) == 0 {
		return 0, nil
	}
	if err := env.Multicast(hs, payload); err != nil {
		first := make([]anr.ID, len(hs))
		for i, h := range hs {
			first[i] = h[0].Link
		}
		return len(hs), fmt.Errorf("node %d: relay over first links %v: %w", id, first, err)
	}
	return len(hs), nil
}

// Rounds returns, for every path, the broadcast round in which its start
// node can send it: 1 for paths starting at the root, otherwise one more
// than the round of the path that delivers to the start node. The maximum
// over all paths is the broadcast's time complexity in the C=0, P=1 model.
func (d *Decomposition) Rounds(root graph.NodeID) ([]int, int) {
	rounds, most := make([]int, len(d.Paths)), 0
	var send func(u graph.NodeID, r int) // u sends its paths in round r
	send = func(u graph.NodeID, r int) {
		if u < 0 || int(u)+1 >= len(d.off) {
			return
		}
		for _, i := range d.order[d.off[u]:d.off[u+1]] {
			rounds[i], most = r, max(most, r)
			for _, v := range d.Paths[i].chain() {
				send(v, r+1)
			}
		}
	}
	send(root, 1)
	return rounds, most
}
