// Package faults is the chaos engine for the fastnet runtimes: seeded,
// deterministic fault-schedule generators (link flaps, correlated edge-set
// partitions, node crash/restore churn, and a trace-driven adversary), a
// ground-truth state tracker, and an invariant-checked soak driver that
// alternates churn epochs with quiescence on either runtime.
//
// The paper's correctness story is explicitly fault-driven: Theorem 1 is
// eventual consistency after changes stop, §3's six-node example shows a
// naive protocol deadlocking under link failures, and §4's election must
// survive origin crashes. This package turns those hand-scripted scenarios
// into a reusable subsystem: generators compile to either runtime through
// core.Runtime's InjectLink, and the soak driver checks the protocols'
// invariants after every churn epoch.
package faults

import (
	"fmt"
	"sort"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// kind enumerates fault events.
type kind int

// Fault kinds. Link kinds address edge {U, V}; node kinds address node U.
const (
	linkDown kind = iota + 1
	linkUp
	crash
	restore
)

// String names the kind.
func (k kind) String() string {
	switch k {
	case linkDown:
		return "link-down"
	case linkUp:
		return "link-up"
	case crash:
		return "crash"
	case restore:
		return "restore"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// event is one scheduled fault: at Step (a quiescence-separated instant
// within its epoch) apply Kind to edge {U, V} (link kinds) or node U (node
// kinds).
type event struct {
	Step int
	Kind kind
	U, V core.NodeID
}

// String renders the event for repro logs.
func (ev event) String() string {
	switch ev.Kind {
	case crash, restore:
		return fmt.Sprintf("@%d %s %d", ev.Step, ev.Kind, ev.U)
	default:
		return fmt.Sprintf("@%d %s %d-%d", ev.Step, ev.Kind, ev.U, ev.V)
	}
}

// sortEvents orders events by (Step, Kind, U, V) so schedules apply
// deterministically regardless of generator composition order within a step.
func sortEvents(evs []event) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].Step != evs[j].Step {
			return evs[i].Step < evs[j].Step
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		if evs[i].U != evs[j].U {
			return evs[i].U < evs[j].U
		}
		return evs[i].V < evs[j].V
	})
}

// flip is one concrete link state change derived from an event by the state
// tracker (node events expand into their incident links).
type flip struct {
	U, V core.NodeID
	Up   bool
}

// state is the chaos engine's ground truth: which edges are down, which
// nodes are crashed, and which edges went down at any point during the
// current epoch. A link is down while it has at least one cause — an
// explicit link fault or a crashed endpoint — which makes overlapping
// generators compose correctly (restoring a crashed node does not resurrect
// an independently flapped link, and healing a flap under a crashed
// endpoint keeps the link down).
type state struct {
	g       *graph.Graph
	faulted map[graph.Edge]bool // down due to an explicit link fault
	crashed map[core.NodeID]bool
	touched map[graph.Edge]bool // went down at some point this epoch
}

// newState tracks faults over g; everything starts up.
func newState(g *graph.Graph) *state {
	return &state{
		g:       g,
		faulted: make(map[graph.Edge]bool),
		crashed: make(map[core.NodeID]bool),
		touched: make(map[graph.Edge]bool),
	}
}

// edgeDown reports whether edge {u, v} is currently down.
func (st *state) edgeDown(u, v core.NodeID) bool {
	return st.faulted[graph.Edge{U: u, V: v}.Canon()] || st.crashed[u] || st.crashed[v]
}

// isCrashed reports whether v is currently crashed.
func (st *state) isCrashed(v core.NodeID) bool { return st.crashed[v] }

// downSet returns the current down-edge set in canonical form.
func (st *state) downSet() map[graph.Edge]bool {
	down := make(map[graph.Edge]bool)
	for _, e := range st.g.Edges() {
		if st.edgeDown(e.U, e.V) {
			down[e.Canon()] = true
		}
	}
	return down
}

// downEdges returns the currently down edges, sorted canonically.
func (st *state) downEdges() []graph.Edge {
	var out []graph.Edge
	for _, e := range st.g.Edges() {
		if st.edgeDown(e.U, e.V) {
			out = append(out, e.Canon())
		}
	}
	return out
}

// upEdges returns the currently up edges, sorted canonically.
func (st *state) upEdges() []graph.Edge {
	var out []graph.Edge
	for _, e := range st.g.Edges() {
		if !st.edgeDown(e.U, e.V) {
			out = append(out, e.Canon())
		}
	}
	return out
}

// liveGraph materializes the current live topology (down edges removed; crashed
// nodes appear as isolated vertices, the model's inactive-node reading).
func (st *state) liveGraph() *graph.Graph {
	live := st.g.Clone()
	for _, e := range st.g.Edges() {
		if st.edgeDown(e.U, e.V) {
			live.RemoveEdge(e.U, e.V)
		}
	}
	return live
}

// largestComponent returns the live topology and its largest connected
// component, the first of equals in the order Graph.Components lists them.
// The soak's ledger traffic (I6), elections (I2, I7, I8) and detector
// scenario run there; fewer than two members leave them nothing to do.
func (st *state) largestComponent() (live *graph.Graph, comp []core.NodeID) {
	live = st.liveGraph()
	for _, c := range live.Components() {
		if len(c) > len(comp) {
			comp = c
		}
	}
	return live, comp
}

// inducedSubgraph maps comp onto a compact 0..k-1 graph; ids maps local
// node IDs back to g's.
func inducedSubgraph(g *graph.Graph, comp []core.NodeID) (*graph.Graph, []core.NodeID) {
	idx := make(map[core.NodeID]int, len(comp))
	ids := make([]core.NodeID, len(comp))
	for i, v := range comp {
		idx[v] = i
		ids[i] = v
	}
	sub := graph.New(len(comp))
	for _, e := range g.Edges() {
		iu, uOK := idx[e.U]
		iv, vOK := idx[e.V]
		if uOK && vOK {
			sub.MustAddEdge(core.NodeID(iu), core.NodeID(iv))
		}
	}
	return sub, ids
}

// beginEpoch clears the epoch-local touched set.
func (st *state) beginEpoch() {
	st.touched = make(map[graph.Edge]bool)
}

// wasTouched reports whether edge {u, v} went down at any point during the
// current epoch (even if it has healed since).
func (st *state) wasTouched(u, v core.NodeID) bool {
	return st.touched[graph.Edge{U: u, V: v}.Canon()]
}

// apply advances the ground truth by one event and returns the concrete
// link flips a runtime must perform (empty when the event is a no-op, e.g.
// downing an already-down link). Node events expand into their incident
// links in sorted-neighbor order.
func (st *state) apply(ev event) []flip {
	var flips []flip
	switch ev.Kind {
	case linkDown:
		e := graph.Edge{U: ev.U, V: ev.V}.Canon()
		if !st.g.HasEdge(e.U, e.V) || st.faulted[e] {
			return nil
		}
		wasUp := !st.edgeDown(e.U, e.V)
		st.faulted[e] = true
		st.touched[e] = true
		if wasUp {
			flips = append(flips, flip{U: e.U, V: e.V, Up: false})
		}
	case linkUp:
		e := graph.Edge{U: ev.U, V: ev.V}.Canon()
		if !st.faulted[e] {
			return nil
		}
		delete(st.faulted, e)
		if !st.edgeDown(e.U, e.V) {
			flips = append(flips, flip{U: e.U, V: e.V, Up: true})
		}
	case crash:
		if st.crashed[ev.U] {
			return nil
		}
		for _, nb := range st.g.Neighbors(ev.U) {
			if !st.edgeDown(ev.U, nb) {
				e := graph.Edge{U: ev.U, V: nb}.Canon()
				st.touched[e] = true
				flips = append(flips, flip{U: e.U, V: e.V, Up: false})
			}
		}
		st.crashed[ev.U] = true
	case restore:
		if !st.crashed[ev.U] {
			return nil
		}
		st.crashed[ev.U] = false
		delete(st.crashed, ev.U)
		for _, nb := range st.g.Neighbors(ev.U) {
			if !st.edgeDown(ev.U, nb) {
				e := graph.Edge{U: ev.U, V: nb}.Canon()
				flips = append(flips, flip{U: e.U, V: e.V, Up: true})
			}
		}
	}
	return flips
}
