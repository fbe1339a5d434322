package election

import (
	"errors"
	"fmt"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// Algorithm selects an election protocol for the driver.
type Algorithm int

// Available algorithms.
const (
	AlgoToken Algorithm = iota + 1 // the paper's §4 algorithm
	AlgoHS                         // Hirschberg–Sinclair (rings only)
	AlgoNaive                      // all-pairs exchange (complete graphs)
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoToken:
		return "token-domains"
	case AlgoHS:
		return "hirschberg-sinclair"
	case AlgoNaive:
		return "naive-allpairs"
	default:
		return fmt.Sprintf("algo(%d)", int(a))
	}
}

// ErrNoLeader is returned when a run finishes without exactly one leader.
var ErrNoLeader = errors.New("election: run did not elect exactly one leader")

// ErrBadStarter is returned when a starter is not a node of the graph.
var ErrBadStarter = errors.New("election: starter is not a node of the graph")

// ErrUndefined is returned when a baseline algorithm is asked to run on a
// graph it is not defined on: on any other it loops or elects by accident.
var ErrUndefined = errors.New("election: algorithm is not defined on this graph")

// checkRun refuses, before a network is built, a baseline on a graph it is
// not defined on (the graph is simple, so the edge count settles both shapes)
// and starters outside [0, n), which a runtime would index its node table with.
func checkRun(g *graph.Graph, algo Algorithm, starters []core.NodeID) error {
	n := g.N()
	switch {
	case algo == AlgoHS && !(g.Connected() && g.M() == n && g.MaxDegree() == 2):
		return fmt.Errorf("%w: %v needs a ring (connected, every node of degree 2)", ErrUndefined, algo)
	case algo == AlgoNaive && g.M() != n*(n-1)/2:
		return fmt.Errorf("%w: %v needs a complete graph", ErrUndefined, algo)
	}
	for i, s := range starters {
		if s < 0 || int(s) >= n {
			return fmt.Errorf("%w: starters[%d] = %d, want 0 <= s < %d", ErrBadStarter, i, s, n)
		}
	}
	return nil
}

// Result reports one election run.
type Result struct {
	Leader  core.NodeID
	Metrics core.Metrics
	// LeaderDomain is the size of the winner's captured domain — for the
	// §4 token algorithm the number of nodes in its `in` set, which must
	// equal the graph size when the run validates; other algorithms report
	// the graph size directly.
	LeaderDomain int
	// AlgorithmMessages is Theorem 5's measure: system calls spent on
	// candidate tours (announcements and the injected STARTs excluded).
	AlgorithmMessages int64
	Stats             *Stats
}

// Dmax returns the model path-length restriction for an n-node election:
// return routes concatenate two tree routes, each shorter than n.
func Dmax(n int) int { return 2*n + 2 }

// factory builds the per-node protocol for an algorithm, carving every
// node's from one slab.
func factory(a Algorithm, stats *Stats) core.Factory {
	switch a {
	case AlgoToken:
		var s core.Slab[Protocol]
		return func(id core.NodeID) core.Protocol {
			p := s.New()
			p.id, p.stats, p.state = id, stats, StateNotLeader
			return p
		}
	case AlgoHS:
		var s core.Slab[hsRing]
		return func(id core.NodeID) core.Protocol {
			p := s.New()
			p.id, p.stats, p.state = id, stats, StateNotLeader
			return p
		}
	case AlgoNaive:
		var s core.Slab[naive]
		return func(id core.NodeID) core.Protocol {
			p := s.New()
			p.id, p.stats, p.best, p.state = id, stats, id, StateNotLeader
			return p
		}
	}
	// precondition: a is one of the Algorithm constants.
	panic(fmt.Sprintf("election: unknown algorithm %d", int(a)))
}

// domainOf reports the winner's domain size (token algorithm: |in|; the
// other algorithms capture implicitly, so the validated graph size stands
// in).
func domainOf(p core.Protocol, n int) int {
	if pr, ok := p.(*Protocol); ok {
		return pr.level().Size
	}
	return n
}

// stateOf extracts the outcome from any of the three protocols.
func stateOf(p core.Protocol) State {
	switch pr := p.(type) {
	case *Protocol:
		return pr.State()
	case *hsRing:
		return pr.state
	case *naive:
		return pr.state
	default:
		return 0
	}
}

// Run executes one election on the discrete-event runtime: the given
// starters receive START at time 0, the network runs to quiescence, and the
// outcome is validated (exactly one leader; every other node knows it). A
// starter outside the graph is refused with ErrBadStarter, a baseline on a
// graph it is not defined on with ErrUndefined.
func Run(g *graph.Graph, algo Algorithm, starters []core.NodeID, opts ...sim.Option) (Result, error) {
	if err := checkRun(g, algo, starters); err != nil {
		return Result{}, err
	}
	stats := &Stats{}
	base := []sim.Option{sim.WithDelays(0, 1), sim.WithDmax(Dmax(g.N()))}
	net := sim.New(g, factory(algo, stats), append(base, opts...)...)
	for _, s := range starters {
		net.Inject(0, s, Start{})
	}
	if _, err := net.Run(); err != nil {
		return Result{}, err
	}
	return outcome(g, net, stats)
}

// RunAsync executes one election on the goroutine runtime. Extra options
// (e.g. a reorder fault profile) are appended after the driver's own.
func RunAsync(g *graph.Graph, algo Algorithm, starters []core.NodeID, seed int64, timeout time.Duration, opts ...gosim.Option) (Result, error) {
	if err := checkRun(g, algo, starters); err != nil {
		return Result{}, err
	}
	stats := &Stats{}
	base := []gosim.Option{gosim.WithSeed(seed), gosim.WithDmax(Dmax(g.N()))}
	net := gosim.New(g, factory(algo, stats), append(base, opts...)...)
	defer net.Shutdown()
	for _, s := range starters {
		net.Inject(s, Start{})
	}
	if err := net.AwaitQuiescence(timeout); err != nil {
		return Result{}, err
	}
	return outcome(g, net, stats)
}

// outcome validates a run that has quiesced, on either runtime, and assembles
// its Result.
func outcome(g *graph.Graph, net core.Runtime, stats *Stats) (Result, error) {
	leader, err := validate(g, func(u core.NodeID) State { return stateOf(net.Protocol(u)) })
	if err != nil {
		return Result{}, err
	}
	return Result{
		Leader:            leader,
		Metrics:           net.Metrics(),
		LeaderDomain:      domainOf(net.Protocol(leader), g.N()),
		AlgorithmMessages: stats.AlgorithmMessages(),
		Stats:             stats,
	}, nil
}

// validate checks the problem's postcondition.
func validate(g *graph.Graph, state func(core.NodeID) State) (core.NodeID, error) {
	leader := core.None
	for u := 0; u < g.N(); u++ {
		switch state(core.NodeID(u)) {
		case StateLeader:
			if leader != core.None {
				return core.None, fmt.Errorf("%w: both %d and %d are leaders", ErrNoLeader, leader, u)
			}
			leader = core.NodeID(u)
		case StateLeaderElected:
		default:
			return core.None, fmt.Errorf("%w: node %d undecided", ErrNoLeader, u)
		}
	}
	if leader == core.None {
		return core.None, ErrNoLeader
	}
	return leader, nil
}
