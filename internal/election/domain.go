// Package election implements the paper's §4 leader election: a token-based
// candidate/domain algorithm that uses direct (ANR) messages to achieve O(n)
// system calls and O(n) time, plus two classical baselines (Hirschberg–
// Sinclair rings and a naive complete-graph exchange) whose system-call
// complexity is Θ(n log n) and Θ(n²) under the new measures.
//
// §4 assumes exactly-once links: under a core.MsgFaults.Dup profile a
// candidate can come home twice, and Run and RunAsync return the
// *core.HandlerError of the node that met it ("unexpected comeback").
package election

import (
	"fmt"
	"slices"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
)

// treeEntry is one node of an INOUT tree in wire form: its parent and the
// link IDs in both directions (Down: at the parent toward the node; Up: at
// the node toward the parent). Both IDs are local facts exchanged by the
// data-link handshake, so they stay valid however the tree is re-rooted.
type treeEntry struct {
	Node   core.NodeID
	Parent core.NodeID
	Down   anr.ID
	Up     anr.ID
}

// Member flags.
const (
	inTree uint8 = 1 << iota // attached to the INOUT tree (the root counts)
	inIN                     // captured: counted in the level
	inOUT                    // on the frontier: a tour target
)

// member is everything an origin knows about one node: its INOUT-tree entry
// and its IN/OUT membership.
type member struct {
	treeEntry
	ppos  int32 // position of Parent in ents; -1 for the root and off-tree members
	flags uint8
}

// domain is one origin's bookkeeping (§4): the IN set of captured nodes, the
// OUT frontier, and the INOUT routing tree — a subgraph of the network
// spanning both, rooted at the origin, so every ANR route derived from it is
// a simple path, hence linear in n.
//
// All three live in one member list. ents[0] is the root; tree members follow
// in attach order, which attach's own precondition makes parent-before-child,
// so the list is its own wire form and a route walks parent positions without
// a lookup. Under FIFO delivery every member is a tree member. A degraded
// merge (non-FIFO only) can add members to IN or OUT that the tree does not
// reach; they sit in the same list with inTree clear, and move to the end of
// it if a later merge attaches them.
//
// Once its origin is captured a domain is frozen — merge is reachable only
// through onComeback, which requires isOrigin — and is shipped to the
// capturer by reference (captureData); the captured node keeps reading it
// for return routes. Every cost of a merge is O(captured domain).
type domain struct {
	ents []member
	idx  core.NodeIndex // node → position in ents, once len(ents) > core.ScanMax
	nIn  int
	nOut int
	// outs is a min-heap of every node that ever entered OUT. A node enters
	// OUT at most once (IN is absorbing), so the heap never outgrows ents;
	// nodes that have since moved to IN are dropped when they surface.
	outs []core.NodeID
}

// start makes root a fresh origin: IN = {root}, OUT = its up neighbors, the
// tree a star over both.
func (d *domain) start(root core.NodeID, ports []core.Port) error {
	d.ents = make([]member, 1, len(ports)+1)
	d.ents[0] = member{treeEntry: treeEntry{Node: root, Parent: core.None}, ppos: -1, flags: inTree | inIN}
	d.nIn = 1
	d.outs = make([]core.NodeID, 0, len(ports))
	for _, port := range ports {
		if !port.Up {
			continue
		}
		if err := d.attach(treeEntry{Node: port.Remote, Parent: root, Down: port.Local, Up: port.RemoteID}); err != nil {
			return err
		}
		d.addOut(int32(len(d.ents) - 1))
	}
	return nil
}

func (d *domain) root() core.NodeID { return d.ents[0].Node }

// find returns x's position in ents. The initial domain of a node of degree
// < core.ScanMax never builds the index, and most origins are captured with
// little more than that.
func (d *domain) find(x core.NodeID) (int32, bool) {
	if len(d.ents) > core.ScanMax {
		// A literal key inlines into Find; a method value would stay an
		// indirect call on every probe.
		return d.idx.Find(x, func(p int32) core.NodeID { return d.ents[p].Node })
	}
	for i := range d.ents {
		if d.ents[i].Node == x {
			return int32(i), x >= 0
		}
	}
	return 0, false
}

// add appends m and indexes it; from is the position m.Node vacated to be
// re-appended, or -1.
func (d *domain) add(m member, from int32) int32 {
	pos := int32(len(d.ents))
	d.ents = append(d.ents, m)
	key := func(p int32) core.NodeID { return d.ents[p].Node }
	if from >= 0 {
		d.idx.Move(m.Node, from, pos, key)
	} else {
		d.idx.Add(pos, key)
	}
	return pos
}

// attach adds e.Node to the tree under e.Parent, which must already be in it.
func (d *domain) attach(e treeEntry) error {
	if e.Node == d.root() {
		return fmt.Errorf("election: cannot attach the root %d", e.Node)
	}
	pos, known := d.find(e.Node)
	if known && d.ents[pos].flags&inTree != 0 {
		return fmt.Errorf("election: node %d already attached", e.Node)
	}
	_, err := d.link(e, pos, known)
	return err
}

// link is attach past its checks on e.Node: the caller looked it up and
// found it off the tree — known at pos as a set-only member, or unknown. It
// returns the new member's position.
func (d *domain) link(e treeEntry, pos int32, known bool) (int32, error) {
	ppos, ok := d.find(e.Parent)
	if !ok || d.ents[ppos].flags&inTree == 0 {
		return 0, fmt.Errorf("election: parent %d of %d not in tree", e.Parent, e.Node)
	}
	m := member{treeEntry: e, ppos: ppos, flags: inTree}
	from := int32(-1)
	if known {
		// A set-only member joins the tree: re-append it behind its parent
		// so ents stays parent-before-child, and leave a vacant slot (Node
		// None). Nothing hangs under an off-tree member, so no parent
		// position goes stale.
		m.flags |= d.ents[pos].flags
		d.ents[pos] = member{treeEntry: treeEntry{Node: core.None}, ppos: -1}
		from = pos
	}
	return d.add(m, from), nil
}

// has reports whether x is in the tree (the root counts).
func (d *domain) has(x core.NodeID) bool {
	pos, ok := d.find(x)
	return ok && d.ents[pos].flags&inTree != 0
}

// localRoute terminates a route at the node it has reached; shared, never
// written.
var localRoute = anr.Local()

// route returns the ANR route from the root to x.
func (d *domain) route(x core.NodeID) (anr.Header, error) {
	return d.routeThen(x, localRoute)
}

// routeThen returns the route from the root to x continued by then (a valid
// header from x onward): the depth is counted first, so the header is
// allocated once and filled from x back to the root.
func (d *domain) routeThen(x core.NodeID, then anr.Header) (anr.Header, error) {
	pos, ok := d.find(x)
	if !ok || d.ents[pos].flags&inTree == 0 {
		return nil, fmt.Errorf("election: node %d not in tree of %d", x, d.root())
	}
	depth := 0
	for p := pos; p != 0; p = d.ents[p].ppos {
		depth++
	}
	h := make(anr.Header, depth+len(then))
	copy(h[depth:], then)
	for p := pos; p != 0; p = d.ents[p].ppos {
		depth--
		h[depth] = anr.Hop{Link: d.ents[p].Down}
	}
	return h, nil
}

// addIn moves the member at pos into IN (and out of OUT).
func (d *domain) addIn(pos int32) {
	m := &d.ents[pos]
	if m.flags&inOUT != 0 {
		m.flags &^= inOUT
		d.nOut--
	}
	if m.flags&inIN == 0 {
		m.flags |= inIN
		d.nIn++
	}
}

// addOut puts the member at pos on the frontier unless it is already in IN
// or OUT.
func (d *domain) addOut(pos int32) {
	m := &d.ents[pos]
	if m.flags&(inIN|inOUT) != 0 {
		return
	}
	m.flags |= inOUT
	d.nOut++
	// Sift up.
	x := m.Node
	i := len(d.outs)
	d.outs = append(d.outs, x)
	for i > 0 {
		up := (i - 1) / 2
		if d.outs[up] <= x {
			break
		}
		d.outs[i] = d.outs[up]
		i = up
	}
	d.outs[i] = x
}

// minOut returns the smallest OUT node; ok is false when OUT is empty.
func (d *domain) minOut() (core.NodeID, bool) {
	for len(d.outs) > 0 {
		x := d.outs[0]
		if pos, ok := d.find(x); ok && d.ents[pos].flags&inOUT != 0 {
			return x, true
		}
		// x has moved to IN: drop it and sift the last element down.
		n := len(d.outs) - 1
		last := d.outs[n]
		d.outs = d.outs[:n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && d.outs[c+1] < d.outs[c] {
				c++
			}
			if last <= d.outs[c] {
				break
			}
			d.outs[i] = d.outs[c]
			i = c
		}
		if n > 0 {
			d.outs[i] = last
		}
	}
	return core.None, false
}

// merge folds the captured domain v into d (rule 2.2's bookkeeping): IN ∪=
// IN_v, OUT = (OUT ∪ OUT_v) − IN, and v's tree is grafted re-rooted at the
// entry node o, which d's tree already contains — first the path o → v's
// root with every edge reversed (Down and Up swapped), then every other
// entry in v's attach order; nodes d's tree already holds keep their
// attachment, which also skips the path nodes' old entries on the second
// pass. v is only read.
//
// It reports false when the graft had to be skipped: o is missing from
// either tree, because v was itself captured through o before its own merge
// of the sub-domain containing o arrived (possible only under non-FIFO
// delivery). The sets are folded regardless; members the tree does not reach
// are served by the flood transport. An error (a parent the tree lacks) is
// ruled out by merge's parent-before-child order.
func (d *domain) merge(v *domain, o core.NodeID) (bool, error) {
	d.ents = slices.Grow(d.ents, len(v.ents))
	opos, ok := v.find(o)
	graft := ok && v.ents[opos].flags&inTree != 0 && d.has(o)
	if graft {
		for p := opos; p != 0; p = v.ents[p].ppos {
			e := v.ents[p].treeEntry
			if _, err := d.graft(treeEntry{Node: e.Parent, Parent: e.Node, Down: e.Up, Up: e.Down}, false); err != nil {
				return graft, err
			}
		}
	}
	for i := range v.ents {
		if m := &v.ents[i]; m.Node != core.None { // else vacated by link
			pos, err := d.graft(m.treeEntry, !graft || i == 0 || m.flags&inTree == 0)
			if err != nil {
				return graft, err
			}
			switch {
			case m.flags&inIN != 0:
				d.addIn(pos)
			case m.flags&inOUT != 0:
				d.addOut(pos)
			}
		}
	}
	return graft, nil
}

// graft makes e.Node a member and returns its position: a node the tree
// already holds keeps its attachment; otherwise it is attached as e says,
// or, with setOnly, kept or added off the tree. The parent of an attached
// entry is always present: merge emits entries parent-before-child from a
// node d holds.
func (d *domain) graft(e treeEntry, setOnly bool) (int32, error) {
	pos, known := d.find(e.Node)
	switch {
	case known && (setOnly || d.ents[pos].flags&inTree != 0):
		return pos, nil
	case setOnly:
		return d.add(member{treeEntry: treeEntry{Node: e.Node, Parent: core.None}, ppos: -1}, -1), nil
	}
	return d.link(e, pos, known)
}

// orphans lists the IN members the tree does not reach, ascending. Empty
// unless a merge was degraded.
func (d *domain) orphans() []core.NodeID {
	var out []core.NodeID
	for i := range d.ents {
		if f := d.ents[i].flags; f&inIN != 0 && f&inTree == 0 {
			out = append(out, d.ents[i].Node)
		}
	}
	slices.Sort(out)
	return out
}

// announcePlan decomposes the INOUT tree into branching paths.
func (d *domain) announcePlan() *paths.Fanout {
	max := d.root()
	for i := range d.ents {
		if d.ents[i].Node > max {
			max = d.ents[i].Node
		}
	}
	tree := &graph.Tree{
		Root:   d.root(),
		Parent: make([]core.NodeID, int(max)+1),
		Depth:  make([]int, int(max)+1),
	}
	for i := range tree.Parent {
		tree.Parent[i] = core.None
		tree.Depth[i] = -1
	}
	tree.Depth[d.root()] = 0
	// ents is parent-before-child; fill depths accordingly.
	for _, m := range d.ents[1:] {
		if m.flags&inTree != 0 {
			tree.Parent[m.Node] = m.Parent
			tree.Depth[m.Node] = tree.Depth[m.Parent] + 1
		}
	}
	// Every chain node is a tree member, so no hop is unknown.
	plan, _ := paths.NewFanout(tree, func(_, v core.NodeID) (anr.ID, bool) {
		pos, _ := d.find(v)
		return d.ents[pos].Down, true
	})
	return plan
}
