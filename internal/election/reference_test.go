package election

import (
	"fmt"
	"slices"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
)

// This file is the oracle the flat domain (domain.go) is proved against: the
// map-based bookkeeping the protocol ran on before — IN and OUT as
// map[NodeID]bool, the INOUT tree as a map of entries serialized by a sorted
// depth-first walk, capture data as three copied slices, merge as rebuild →
// reroot into a second map → serialize again → graft. It is slow and
// obviously right; TestDomainMatchesMapModel and FuzzDomain drive both with
// the same scripts.

// mapTree is the reference INOUT tree.
type mapTree struct {
	root    core.NodeID
	entries map[core.NodeID]treeEntry
}

func newMapTree(root core.NodeID) *mapTree {
	return &mapTree{root: root, entries: make(map[core.NodeID]treeEntry)}
}

func (t *mapTree) attach(e treeEntry) error {
	if e.Node == t.root {
		return fmt.Errorf("cannot attach the root %d", e.Node)
	}
	if _, dup := t.entries[e.Node]; dup {
		return fmt.Errorf("node %d already attached", e.Node)
	}
	if e.Parent != t.root {
		if _, ok := t.entries[e.Parent]; !ok {
			return fmt.Errorf("parent %d of %d not in tree", e.Parent, e.Node)
		}
	}
	t.entries[e.Node] = e
	return nil
}

func (t *mapTree) has(x core.NodeID) bool {
	if x == t.root {
		return true
	}
	_, ok := t.entries[x]
	return ok
}

func (t *mapTree) route(x core.NodeID) (anr.Header, error) {
	if x == t.root {
		return anr.Local(), nil
	}
	var rev []anr.ID
	for cur := x; cur != t.root; {
		e, ok := t.entries[cur]
		if !ok {
			return nil, fmt.Errorf("node %d not in tree of %d", x, t.root)
		}
		rev = append(rev, e.Down)
		cur = e.Parent
	}
	links := make([]anr.ID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		links = append(links, rev[i])
	}
	return anr.Direct(links), nil
}

// wire serializes the tree in parent-before-child order.
func (t *mapTree) wire() []treeEntry {
	children := make(map[core.NodeID][]core.NodeID, len(t.entries))
	for _, e := range t.entries {
		children[e.Parent] = append(children[e.Parent], e.Node)
	}
	for _, ch := range children {
		sort.Slice(ch, func(i, j int) bool { return ch[i] < ch[j] })
	}
	out := make([]treeEntry, 0, len(t.entries))
	stack := []core.NodeID{t.root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range children[u] {
			out = append(out, t.entries[c])
			stack = append(stack, c)
		}
	}
	return out
}

// reroot returns the same tree rooted at newRoot: parent pointers along the
// path newRoot..oldRoot are reversed, swapping the Down/Up link IDs.
func (t *mapTree) reroot(newRoot core.NodeID) (*mapTree, error) {
	if !t.has(newRoot) {
		return nil, fmt.Errorf("reroot target %d not in tree", newRoot)
	}
	if newRoot == t.root {
		return t, nil
	}
	var path []core.NodeID
	for cur := newRoot; cur != t.root; {
		path = append(path, cur)
		cur = t.entries[cur].Parent
	}
	path = append(path, t.root)
	nt := newMapTree(newRoot)
	for i := 0; i+1 < len(path); i++ {
		child, parent := path[i+1], path[i]
		old := t.entries[path[i]]
		nt.entries[child] = treeEntry{Node: child, Parent: parent, Down: old.Up, Up: old.Down}
	}
	for node, e := range t.entries {
		if node == newRoot {
			continue
		}
		if _, done := nt.entries[node]; done {
			continue
		}
		nt.entries[node] = e
	}
	return nt, nil
}

// mapDomain is the reference origin bookkeeping.
type mapDomain struct {
	in, out map[core.NodeID]bool
	tree    *mapTree
}

func newMapDomain(root core.NodeID, ports []core.Port) (*mapDomain, error) {
	d := &mapDomain{
		in:   map[core.NodeID]bool{root: true},
		out:  make(map[core.NodeID]bool),
		tree: newMapTree(root),
	}
	for _, port := range ports {
		if !port.Up {
			continue
		}
		d.out[port.Remote] = true
		if err := d.tree.attach(treeEntry{Node: port.Remote, Parent: root, Down: port.Local, Up: port.RemoteID}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// minOut scans OUT for its smallest node.
func (d *mapDomain) minOut() (core.NodeID, bool) {
	best := core.None
	for x := range d.out {
		if best < 0 || x < best {
			best = x
		}
	}
	return best, best >= 0
}

// merge folds the captured domain v in through copies of everything it
// holds, as the wire format did.
func (d *mapDomain) merge(v *mapDomain, o core.NodeID) bool {
	vTree := newMapTree(v.tree.root)
	for _, e := range v.tree.wire() {
		if err := vTree.attach(e); err != nil {
			panic(fmt.Sprintf("reference merge attach: %v", err))
		}
	}
	re, err := vTree.reroot(o)
	grafted := err == nil && d.tree.has(o)
	if grafted {
		for _, e := range re.wire() {
			if d.tree.has(e.Node) {
				continue // keep the existing attachment
			}
			if err := d.tree.attach(e); err != nil {
				panic(fmt.Sprintf("reference merge graft: %v", err))
			}
		}
	}
	for _, x := range sortedSet(v.in) {
		d.in[x] = true
		delete(d.out, x)
	}
	for _, x := range sortedSet(v.out) {
		if !d.in[x] {
			d.out[x] = true
		}
	}
	return grafted
}

// orphans lists the IN nodes the tree does not reach, ascending.
func (d *mapDomain) orphans() []core.NodeID {
	var out []core.NodeID
	for _, x := range sortedSet(d.in) {
		if !d.tree.has(x) {
			out = append(out, x)
		}
	}
	return out
}

// modelSpec is the announcement's wire form before paths.Fanout: one
// branching path as its start node and per-hop link IDs, the list sorted by
// start.
type modelSpec struct {
	Start core.NodeID
	Links []anr.ID
}

// relayLoop is the relay every node ran on that form: binary search for its
// own run of paths, one CopyPath header each.
func relayLoop(routes []modelSpec, id core.NodeID) []anr.Header {
	lo := sort.Search(len(routes), func(j int) bool { return routes[j].Start >= id })
	var hs []anr.Header
	for _, spec := range routes[lo:] {
		if spec.Start != id {
			break
		}
		hs = append(hs, anr.CopyPath(spec.Links))
	}
	return hs
}

func (d *mapDomain) announceRoutes() []modelSpec {
	max := d.tree.root
	for x := range d.tree.entries {
		if x > max {
			max = x
		}
	}
	tree := &graph.Tree{
		Root:   d.tree.root,
		Parent: make([]core.NodeID, int(max)+1),
		Depth:  make([]int, int(max)+1),
	}
	for i := range tree.Parent {
		tree.Parent[i] = core.None
		tree.Depth[i] = -1
	}
	tree.Depth[d.tree.root] = 0
	for _, e := range d.tree.wire() {
		tree.Parent[e.Node] = e.Parent
		tree.Depth[e.Node] = tree.Depth[e.Parent] + 1
	}
	dec := paths.Decompose(tree, paths.Labels(tree))
	specs := make([]modelSpec, 0, len(dec.Paths))
	_ = paths.Routes(dec, func(_, v core.NodeID) (anr.ID, bool) {
		return d.tree.entries[v].Down, true
	}, func(path paths.Path, links []anr.ID) {
		specs = append(specs, modelSpec{Start: path.Start(), Links: links})
	})
	return specs
}

func sortedSet(s map[core.NodeID]bool) []core.NodeID {
	out := make([]core.NodeID, 0, len(s))
	for x := range s {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// ---- the production domain seen through the old tree's test surface -------

// newInOutTree returns a fresh domain holding only its root.
func newInOutTree(root core.NodeID) *domain {
	d := &domain{}
	if err := d.start(root, nil); err != nil {
		panic(err)
	}
	return d
}

// wire returns the tree entries in stored (attach) order.
func (d *domain) wire() []treeEntry {
	var out []treeEntry
	for _, m := range d.ents[1:] {
		if m.flags&inTree != 0 {
			out = append(out, m.treeEntry)
		}
	}
	return out
}

// size returns the number of tree nodes including the root.
func (d *domain) size() int { return len(d.wire()) + 1 }

// reroot returns the same tree rooted at newRoot: merge's streaming graft
// into a domain that holds nothing but newRoot.
func (d *domain) reroot(newRoot core.NodeID) (*domain, error) {
	re := newInOutTree(newRoot)
	if ok, err := re.merge(d, newRoot); !ok || err != nil {
		return nil, fmt.Errorf("election: reroot target %d not in tree", newRoot)
	}
	return re, nil
}

// members returns d's IN and OUT sets, ascending.
func (d *domain) members() (in, out []core.NodeID) {
	for _, m := range d.ents {
		switch {
		case m.flags&inIN != 0:
			in = append(in, m.Node)
		case m.flags&inOUT != 0:
			out = append(out, m.Node)
		}
	}
	slices.Sort(in)
	slices.Sort(out)
	return in, out
}
