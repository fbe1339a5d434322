package topology

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// ChildOrder permutes a node's tree children before a depth-first walk; used
// to reproduce the paper's adversarial non-convergence example. nil means
// ascending ID order.
type ChildOrder func(parent core.NodeID, children []core.NodeID) []core.NodeID

// eulerWalk returns the depth-first walk of t from the root: the node
// sequence root, ..., returning through each subtree (2*(size-1)+1 entries).
func eulerWalk(t *graph.Tree, order ChildOrder) []core.NodeID {
	children := t.Children()
	var walk []core.NodeID
	var visit func(u core.NodeID)
	visit = func(u core.NodeID) {
		walk = append(walk, u)
		ch := children[u]
		if order != nil {
			ch = order(u, append([]core.NodeID(nil), ch...))
		}
		for _, c := range ch {
			visit(c)
			walk = append(walk, u)
		}
	}
	visit(t.Root)
	return walk
}

// layeredWalk returns the footnote-1 walk: for each k = 1..depth, a full
// depth-first walk of the subtree spanning nodes within k hops of the root,
// concatenated (each sub-walk starts and ends at the root).
func layeredWalk(t *graph.Tree, order ChildOrder) []core.NodeID {
	maxDepth := 0
	for u := range t.Parent {
		if t.Reached(core.NodeID(u)) && t.Depth[u] > maxDepth {
			maxDepth = t.Depth[u]
		}
	}
	children := t.Children()
	var walk []core.NodeID
	for k := 1; k <= maxDepth; k++ {
		var visit func(u core.NodeID)
		visit = func(u core.NodeID) {
			// Consecutive sub-walks share the root; avoid a zero-length
			// "hop" between them.
			if len(walk) == 0 || walk[len(walk)-1] != u {
				walk = append(walk, u)
			}
			if t.Depth[u] >= k {
				return
			}
			ch := children[u]
			if order != nil {
				ch = order(u, append([]core.NodeID(nil), ch...))
			}
			for _, c := range ch {
				visit(c)
				walk = append(walk, u)
			}
		}
		visit(t.Root)
	}
	if len(walk) == 0 { // single-node tree
		walk = []core.NodeID{t.Root}
	}
	return walk
}

// walkHeader converts a node walk into a single ANR header that delivers the
// packet exactly once to every node visited (except the origin): the walk is
// truncated at the last first-visit, the hop consumed at each node's first
// departure carries the copy bit, and the final node receives the terminal
// delivery. Link IDs come from the supplied lookup (the origin's database).
func walkHeader(walk []core.NodeID, linkID func(u, v core.NodeID) (anr.ID, bool)) (anr.Header, error) {
	if len(walk) == 0 {
		return nil, fmt.Errorf("topology: empty walk")
	}
	seen := map[core.NodeID]bool{walk[0]: true}
	last := 0
	for i, v := range walk {
		if !seen[v] {
			seen[v] = true
			last = i
		}
	}
	if last == 0 {
		return nil, fmt.Errorf("topology: walk visits no new node")
	}
	walk = walk[:last+1]
	h := make(anr.Header, 0, len(walk))
	departed := make(map[core.NodeID]bool, len(walk))
	for i := 0; i+1 < len(walk); i++ {
		u, v := walk[i], walk[i+1]
		lid, ok := linkID(u, v)
		if !ok {
			return nil, fmt.Errorf("topology: no known link %d->%d in walk", u, v)
		}
		copyHere := i > 0 && !departed[u]
		departed[u] = true
		h = append(h, anr.Hop{Link: lid, Copy: copyHere})
	}
	return append(h, anr.Hop{Link: anr.NCU}), nil
}

// walkMsg is the packet of the one-shot walk broadcasts (DFS and
// BFS-layers): records only, no forwarding duties.
type walkMsg struct {
	Origin core.NodeID
	Seq    uint64
	Recs   []Record
}

// walkKind selects the walk shape.
type walkKind int

const (
	walkDFS walkKind = iota + 1
	walkLayers
)

// WalkBroadcast is a topology-maintenance protocol that broadcasts with a
// single long source-routed walk per round. With kindDFS it is the paper's
// broken one-shot depth-first broadcast (the §3 non-convergence example);
// with kindLayers it is footnote 1's BFS-layers broadcast, which takes one
// time unit per broadcast but needs dmax = O(n^2).
type WalkBroadcast struct {
	localTopo

	kind  walkKind
	full  bool
	order ChildOrder

	Broadcasts int
	// SendErrors counts rounds whose walk could not be built or sent (e.g.
	// dmax violations).
	SendErrors int
}

var _ core.Protocol = (*WalkBroadcast)(nil)

// Init records the local topology.
func (w *WalkBroadcast) Init(env core.Env) {
	w.snapshot(env)
}

// LinkEvent refreshes the local record. Recoveries push the whole database
// over the recovered link, like the branching-paths protocol: walks are
// routed from the view, and surviving down-era records would otherwise
// keep the healed edge out of every view for good.
func (w *WalkBroadcast) LinkEvent(env core.Env, port core.Port) {
	w.refresh(env)
	if port.Up {
		_ = env.Send(anr.Direct([]anr.ID{port.Local}), &walkMsg{Origin: w.id, Seq: w.seq, Recs: w.db.records()})
	}
}

// Deliver handles triggers and walk packets.
func (w *WalkBroadcast) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Trigger:
		w.broadcast(env)
	case *walkMsg:
		w.db.installAll(m.Recs)
	}
}

func (w *WalkBroadcast) broadcast(env core.Env) {
	w.refresh(env)
	w.Broadcasts++

	if int(w.id) >= w.db.View().N() {
		return
	}
	// The tree is cached per database version; the walk itself is not,
	// because ChildOrder implementations may be stateful (E4's adversarial
	// rotating order) and must see every round.
	tree := w.db.BFSTree(w.id)
	if tree.Size() <= 1 {
		return
	}
	var walk []core.NodeID
	if w.kind == walkDFS {
		walk = eulerWalk(tree, w.order)
	} else {
		walk = layeredWalk(tree, w.order)
	}
	h, err := walkHeader(walk, w.db.LinkID)
	if err != nil {
		w.SendErrors++
		return
	}
	msg := &walkMsg{Origin: w.id, Seq: w.seq}
	if w.full {
		msg.Recs = w.db.records()
	} else {
		rec, _ := w.db.Record(w.id)
		msg.Recs = []Record{rec}
	}
	if err := env.Send(h, msg); err != nil {
		w.SendErrors++
	}
}
