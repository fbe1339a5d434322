package topology

import (
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// Mode selects a topology-maintenance protocol.
type Mode int

// Protocol modes.
const (
	ModeBranching Mode = iota + 1 // §3.1 branching paths
	ModeFlood                     // ARPANET flooding baseline
	ModeDFS                       // broken one-shot DFS (§3 example)
	ModeLayers                    // footnote 1 BFS-layers walk
)

// String names the mode for experiment tables.
func (m Mode) String() string {
	switch m {
	case ModeBranching:
		return "branching-paths"
	case ModeFlood:
		return "flooding"
	case ModeDFS:
		return "dfs-walk"
	case ModeLayers:
		return "bfs-layers"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Maintainer is the common surface of all topology protocols.
type Maintainer interface {
	core.Protocol
	DB() *DB
	Preload([]Record)
	SetLoad(link anr.ID, load uint32)
}

// NewMaintainer builds the protocol for one node. full selects the
// broadcast-everything-known variant; order is only used by ModeDFS. The
// factory carves every node's protocol from one slab.
func NewMaintainer(mode Mode, full bool, order ChildOrder) core.Factory {
	switch mode {
	case ModeBranching:
		var s core.Slab[broadcast]
		return func(id core.NodeID) core.Protocol {
			b := s.New()
			b.id, b.full = id, full
			return b
		}
	case ModeFlood:
		var s core.Slab[flood]
		return func(id core.NodeID) core.Protocol {
			f := s.New()
			f.id, f.full = id, full
			return f
		}
	case ModeDFS, ModeLayers:
		kind := walkDFS
		if mode == ModeLayers {
			kind, order = walkLayers, nil
		}
		var s core.Slab[WalkBroadcast]
		return func(id core.NodeID) core.Protocol {
			w := s.New()
			w.id, w.kind, w.full, w.order = id, kind, full, order
			return w
		}
	}
	panic(fmt.Sprintf("topology: unknown mode %d", mode))
}

// DefaultDmax returns the model's path-length restriction appropriate for a
// mode on an n-node network: n for the point-to-point protocols (the paper
// suggests the diameter or n), unrestricted for the BFS-layers walk, which
// explicitly requires O(n^2)-length paths.
func DefaultDmax(mode Mode, n int) int {
	switch mode {
	case ModeLayers:
		return 0
	case ModeDFS:
		return 2 * n // an Euler tour traverses each tree edge twice
	default:
		return n
	}
}

// BroadcastResult reports one single-broadcast run.
type BroadcastResult struct {
	Metrics core.Metrics
	// Covered is the number of nodes (excluding the origin) that received
	// the broadcast.
	Covered int
	// Events is the number of discrete events the scheduler dispatched,
	// the denominator of the event-core's events/sec throughput figure.
	Events int64
}

// SingleBroadcast warm-starts the origin's database with the full topology
// (receivers only relay precomputed routes, so they need no warm state),
// injects one Trigger at root at time 0, and runs to quiescence. Delay and
// seed options may be appended.
func SingleBroadcast(g *graph.Graph, root core.NodeID, mode Mode, opts ...sim.Option) (BroadcastResult, error) {
	base := []sim.Option{sim.WithDelays(0, 1), sim.WithDmax(DefaultDmax(mode, g.N()))}
	net := sim.New(g, NewMaintainer(mode, false, nil), append(base, opts...)...)
	recs := RecordsForGraph(g, net.PortMap(), nil)
	net.Protocol(root).(Maintainer).Preload(recs)
	net.Inject(0, root, Trigger{})
	if _, err := net.Run(); err != nil {
		return BroadcastResult{}, err
	}
	covered := 0
	for _, d := range net.DeliveriesPerNode() {
		if d > 0 {
			covered++
		}
	}
	return BroadcastResult{Metrics: net.Metrics(), Covered: covered, Events: net.Events()}, nil
}

// Change is a scripted link state change applied just before the given
// round's broadcasts.
type Change struct {
	Round int
	U, V  core.NodeID
	Up    bool
}

// ConvergenceResult reports a RunConvergence execution.
type ConvergenceResult struct {
	// Converged is true if every node's database matched its component's
	// actual topology at some round.
	Converged bool
	// Round is the first round after the last change at which convergence
	// held (0 if never).
	Round int
	// RoundsAfterChanges is Round minus the last change's round.
	RoundsAfterChanges int
	Metrics            core.Metrics
}

// ConvOptions configures RunConvergence.
type ConvOptions struct {
	Mode Mode
	// Full selects the broadcast-everything-known variant.
	Full bool
	// Order is the DFS child order (ModeDFS only).
	Order ChildOrder
	// Warm preloads every database with the pre-change topology (the §3
	// example's assumption of established but stale knowledge).
	Warm bool
	// MaxRounds bounds the number of broadcast rounds.
	MaxRounds int
	// SimOpts are appended to the default simulator options.
	SimOpts []sim.Option
}

// RunConvergence drives periodic broadcasts over a changing topology: each
// round every node is triggered once, the network runs to quiescence, and
// convergence (Theorem 1's condition, per connected component of the live
// graph) is tested. Broadcast rounds model the paper's periodic timers.
func RunConvergence(g *graph.Graph, o ConvOptions, changes []Change) (ConvergenceResult, error) {
	base := []sim.Option{sim.WithDelays(0, 1), sim.WithDmax(DefaultDmax(o.Mode, g.N()))}
	net := sim.New(g, NewMaintainer(o.Mode, o.Full, o.Order), append(base, o.SimOpts...)...)
	if o.Warm {
		recs := RecordsForGraph(g, net.PortMap(), nil)
		for u := 0; u < g.N(); u++ {
			net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
		}
	}

	down := make(map[graph.Edge]bool)
	lastChange := 0
	for _, ch := range changes {
		if ch.Round > lastChange {
			lastChange = ch.Round
		}
	}
	var res ConvergenceResult
	for round := 1; round <= o.MaxRounds; round++ {
		for _, ch := range changes {
			if ch.Round != round {
				continue
			}
			net.SetLink(net.Now(), ch.U, ch.V, ch.Up)
			down[graph.Edge{U: ch.U, V: ch.V}.Canon()] = !ch.Up
		}
		for u := 0; u < g.N(); u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			return res, err
		}
		if round >= lastChange && converged(net, g, down) {
			res.Converged = true
			res.Round = round
			res.RoundsAfterChanges = round - lastChange
			break
		}
	}
	res.Metrics = net.Metrics()
	return res, nil
}

// converged checks Theorem 1's condition: within every connected component
// of the live topology, every node's database matches the actual local
// topologies of all component members.
func converged(net *sim.Network, g *graph.Graph, down map[graph.Edge]bool) bool {
	live := g.Clone()
	for e, d := range down {
		if d {
			live.RemoveEdge(e.U, e.V)
		}
	}
	for _, comp := range live.Components() {
		for _, u := range comp {
			db := net.Protocol(u).(Maintainer).DB()
			if !db.KnowsNodes(comp, g, down) {
				return false
			}
		}
	}
	return true
}
