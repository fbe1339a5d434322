// Package pif implements propagation of information with feedback (PIF,
// broadcast-with-echo) under the paper's model — an answer to the
// conclusion's question "can other distributed algorithms be similarly
// improved?".
//
// The broadcast phase is §3's branching-paths scheme (n-1 system calls,
// O(log n) time). The echo phase is where the new model bites: letting
// every node acknowledge the root directly serializes n-1 activations at
// the root's NCU — O(n) time. Instead, the acknowledgements flow up a §5
// optimal aggregation tree (binomial in the C=0, P=1 regime) computed
// identically by every node from the broadcast's tree description: n-1
// more system calls, O(log n) more time. Both phases together: O(n) system
// calls and O(log n) time, where the pre-switching way costs O(m) and O(n).
package pif

import (
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/globalfn"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
	"fastnet/internal/sim"
)

// EchoMode selects the feedback discipline.
type EchoMode int

// Echo disciplines.
const (
	// EchoOptimal aggregates acknowledgements over the §5 optimal tree.
	EchoOptimal EchoMode = iota + 1
	// EchoDirect lets every node acknowledge the root directly — correct
	// but Θ(n) time at the root's serialized NCU (the ablation).
	EchoDirect
)

// String names the mode.
func (m EchoMode) String() string {
	switch m {
	case EchoOptimal:
		return "optimal-tree"
	case EchoDirect:
		return "direct-to-root"
	default:
		return fmt.Sprintf("echo(%d)", int(m))
	}
}

// treeEdge describes one spanning-tree edge with both directions' link IDs,
// letting any receiver compute tree routes locally.
type treeEdge struct {
	Child  core.NodeID
	Parent core.NodeID
	Down   anr.ID // at Parent toward Child
	Up     anr.ID // at Child toward Parent
}

// bcast is the broadcast message: the branching-path plan plus everything a
// receiver needs to take its place in the echo tree.
type bcast struct {
	Root  core.NodeID
	Plan  *paths.Fanout
	Edges []treeEdge
	Order []core.NodeID // spanning-tree nodes in BFS order, root first
	Mode  EchoMode

	// Shared precomputed echo structure. Every field below is a pure
	// function of the fields above and the network's (C, P), so every
	// receiver would compute the identical values — and local computation is
	// free in the model's cost measures (only hops, activations and delay
	// are priced). Run computes them once at the origin instead of once per
	// node, which keeps the simulated execution identical while cutting the
	// simulator's own cost from O(n^2) map-and-tree builds to O(n);
	// receivers read them as given.
	Pos      []int32        // Pos[u] = index of u in Order
	ParentAt []int32        // edgeIndex(Edges)
	Tree     *globalfn.Tree // the §5 echo tree (EchoOptimal only)
}

// ack flows up the echo tree.
type ack struct {
	From core.NodeID
}

// proto is the per-node PIF protocol.
type proto struct {
	id   core.NodeID
	done *doneProbe

	received  bool
	pending   int
	early     int // acks that arrived before the broadcast did
	ackRoute  anr.Header
	isRoot    bool
	completed bool
}

// doneProbe records the root's completion time and the broadcast's reach.
type doneProbe struct {
	finished  core.Time
	lastBcast core.Time
	acks      int
}

var _ core.Protocol = (*proto)(nil)

func (p *proto) Init(core.Env) {}

func (p *proto) LinkEvent(core.Env, core.Port) {}

func (p *proto) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case *bcast:
		if p.received {
			return
		}
		p.received = true
		if now := env.Now(); now > p.done.lastBcast {
			p.done.lastBcast = now
		}
		p.relay(env, m)
		p.joinEcho(env, m)
	case *ack:
		p.done.acks++
		if !p.received {
			// The echo can overtake the broadcast on short routes; hold
			// the count until this node knows its own role.
			p.early++
			return
		}
		p.pending--
		if p.pending == 0 {
			p.finish(env)
		}
	}
}

// relay forwards the broadcast over the branching paths starting here. Run
// builds the plan from the port map of the very network it then runs, so a
// refusal means the plan belongs to another network: a bug, not an input
// (TestRelayRefused reaches it with exactly that).
func (p *proto) relay(env core.Env, m *bcast) {
	if _, err := m.Plan.Relay(env, p.id, m); err != nil {
		panic(fmt.Sprintf("pif: broadcast: %v", err))
	}
}

// joinEcho computes this node's echo parent and children count from the
// shared description, then acknowledges if it is an echo leaf.
func (p *proto) joinEcho(env core.Env, m *bcast) {
	p.isRoot = p.id == m.Root
	parent, children := echoRole(m, p.id)
	p.pending = children - p.early
	p.early = 0
	if !p.isRoot {
		route, err := treeRouteIdx(m.Edges, m.ParentAt, p.id, parent)
		if err != nil {
			panic(fmt.Sprintf("pif: echo route: %v", err))
		}
		p.ackRoute = route
	}
	if p.pending <= 0 {
		p.finish(env)
	}
}

// finish sends the aggregated acknowledgement (or completes at the root).
func (p *proto) finish(env core.Env) {
	if p.completed {
		return
	}
	p.completed = true
	if p.isRoot {
		p.done.finished = env.Now()
		return
	}
	if err := env.Send(p.ackRoute, &ack{From: p.id}); err != nil {
		panic(fmt.Sprintf("pif: ack: %v", err))
	}
}

// echoRole returns a node's parent and child count in the echo tree.
func echoRole(m *bcast, id core.NodeID) (core.NodeID, int) {
	idx := m.Pos[id]
	if m.Mode == EchoDirect {
		if idx == 0 {
			return core.None, len(m.Order) - 1
		}
		return m.Order[0], 0
	}
	if idx == 0 {
		return core.None, len(m.Tree.Children[0])
	}
	return m.Order[m.Tree.Parent[idx]], len(m.Tree.Children[idx])
}

// echoTree builds the deterministic §5 optimal tree for n nodes under
// (C, P); every node computes the same one.
func echoTree(n int, c, p core.Time) (*globalfn.Tree, error) {
	params := globalfn.Params{C: globalfn.Time(c), P: globalfn.Time(p)}
	if params.P == 0 {
		params.P = 1 // the echo still serializes activations
	}
	tstar, err := params.OptimalTime(int64(n))
	if err != nil {
		return nil, err
	}
	full, err := params.OptimalTree(tstar)
	if err != nil {
		return nil, err
	}
	return full.PruneTo(n)
}

// edgeIndex returns the child-to-edge index treeRouteIdx climbs on:
// idx[u] = position in edges of the edge whose Child is u, -1 for the root
// and for nodes outside the edge set.
func edgeIndex(edges []treeEdge) []int32 {
	max := core.NodeID(-1)
	for _, e := range edges {
		if e.Child > max {
			max = e.Child
		}
		if e.Parent > max {
			max = e.Parent
		}
	}
	idx := make([]int32, int(max)+1)
	for i := range idx {
		idx[i] = -1
	}
	for i, e := range edges {
		idx[e.Child] = int32(i)
	}
	return idx
}

// treeRouteIdx builds the ANR route from u to w along spanning-tree edges
// (up to the least common ancestor, then down) on a prebuilt edgeIndex: two
// parent-chain climbs to equal depth, then a joint climb — O(path) with no
// maps, no BFS, and no allocation beyond the route itself.
func treeRouteIdx(edges []treeEdge, parentAt []int32, u, w core.NodeID) (anr.Header, error) {
	at := func(x core.NodeID) int32 {
		if int(x) < len(parentAt) {
			return parentAt[x]
		}
		return -1
	}
	depth := func(x core.NodeID) (int, error) {
		d := 0
		for at(x) >= 0 {
			if d > len(edges) {
				return 0, fmt.Errorf("pif: cyclic edge set")
			}
			x = edges[at(x)].Parent
			d++
		}
		return d, nil
	}
	a, b := u, w
	da, err := depth(a)
	if err != nil {
		return nil, err
	}
	db, err := depth(b)
	if err != nil {
		return nil, err
	}
	var upLinks []anr.ID
	var downRev []anr.ID
	for da > db {
		e := edges[at(a)]
		upLinks = append(upLinks, e.Up)
		a, da = e.Parent, da-1
	}
	for db > da {
		e := edges[at(b)]
		downRev = append(downRev, e.Down)
		b, db = e.Parent, db-1
	}
	for a != b {
		ia, ib := at(a), at(b)
		if ia < 0 || ib < 0 {
			return nil, fmt.Errorf("pif: no tree path %d->%d", u, w)
		}
		ea, eb := edges[ia], edges[ib]
		upLinks = append(upLinks, ea.Up)
		downRev = append(downRev, eb.Down)
		a, b = ea.Parent, eb.Parent
	}
	links := upLinks
	for i := len(downRev) - 1; i >= 0; i-- {
		links = append(links, downRev[i])
	}
	return anr.Direct(links), nil
}

// Result reports one PIF run.
type Result struct {
	Mode EchoMode
	// Finish is when the root had every acknowledgement.
	Finish core.Time
	// BroadcastTime is when the last node received the broadcast.
	BroadcastTime core.Time
	Metrics       core.Metrics
}

// Run executes one PIF from root over g with the given delays; opts are
// appended to the network's options.
func Run(g *graph.Graph, root core.NodeID, mode EchoMode, c, p core.Time, opts ...sim.Option) (Result, error) {
	if !g.Connected() {
		return Result{}, fmt.Errorf("pif: graph must be connected")
	}
	pm := core.NewPortMap(g)
	bfs := g.BFSTree(root)
	plan, err := paths.NewFanout(bfs, pm.Toward)
	if err != nil {
		return Result{}, fmt.Errorf("pif: %w", err)
	}
	msg := &bcast{Root: root, Plan: plan, Mode: mode}
	for u := 0; u < g.N(); u++ {
		id := core.NodeID(u)
		if id == root {
			continue
		}
		par := bfs.Parent[id]
		down, _ := pm.Toward(par, id)
		up, _ := pm.Toward(id, par)
		msg.Edges = append(msg.Edges, treeEdge{Child: id, Parent: par, Down: down, Up: up})
	}
	// BFS order, root first.
	msg.Order = bfsOrder(bfs, root)
	msg.Pos = make([]int32, g.N()) // g is connected: Order holds every node
	for i, u := range msg.Order {
		msg.Pos[u] = int32(i)
	}
	msg.ParentAt = edgeIndex(msg.Edges)
	if mode == EchoOptimal {
		tree, err := echoTree(len(msg.Order), c, p)
		if err != nil {
			return Result{}, err
		}
		msg.Tree = tree
	}

	done := &doneProbe{finished: -1}
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		return &proto{id: id, done: done}
	}, append([]sim.Option{sim.WithDelays(c, p), sim.WithDmax(2*g.N() + 2)}, opts...)...)
	net.Inject(0, root, msg)
	if _, err := net.Run(); err != nil {
		return Result{}, err
	}
	if done.finished < 0 {
		return Result{}, fmt.Errorf("pif: root never completed (%d acks)", done.acks)
	}
	return Result{
		Mode:          mode,
		Finish:        done.finished,
		BroadcastTime: done.lastBcast,
		Metrics:       net.Metrics(),
	}, nil
}

// bfsOrder lists tree nodes in breadth-first order starting at root.
func bfsOrder(t *graph.Tree, root core.NodeID) []core.NodeID {
	children := t.Children()
	for u := range children {
		sort.Slice(children[u], func(i, j int) bool { return children[u][i] < children[u][j] })
	}
	order := []core.NodeID{root}
	for i := 0; i < len(order); i++ {
		order = append(order, children[order[i]]...)
	}
	return order
}
