package election

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
	"fastnet/internal/sim"
)

// TestDisconnectedGraphDetected documents the algorithm's scope: the paper
// assumes a connected network. On a disconnected one, each component elects
// its own leader and the driver reports it.
func TestDisconnectedGraphDetected(t *testing.T) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 5)
	_, err := Run(g, AlgoToken, allNodes(6))
	if !errors.Is(err, ErrNoLeader) {
		t.Fatalf("err = %v, want ErrNoLeader (two leaders)", err)
	}
}

// TestStaggeredStarts injects STARTs at spread-out times: correctness must
// not depend on simultaneous initiation.
func TestStaggeredStarts(t *testing.T) {
	g := graph.GNP(30, 0.15, 9)
	stats := &Stats{}
	net := sim.New(g, factory(AlgoToken, stats),
		sim.WithDelays(0, 1), sim.WithDmax(Dmax(g.N())))
	for u := 0; u < g.N(); u++ {
		net.Inject(core.Time(u*3), core.NodeID(u), Start{})
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := validate(g, func(u core.NodeID) State { return stateOf(net.Protocol(u)) }); err != nil {
		t.Fatal(err)
	}
	if got := stats.AlgorithmMessages(); got > int64(6*g.N()) {
		t.Fatalf("messages = %d > 6n", got)
	}
}

// TestElectionAfterTopologyChanges runs the election on a network that
// already suffered failures (the paper's motivation: organizing a network
// after faults), with link state frozen during the election.
func TestElectionAfterTopologyChanges(t *testing.T) {
	g := graph.GNP(40, 0.12, 13)
	// Remove a few edges while keeping the graph connected, modelling the
	// post-fault topology the election runs on.
	pruned := g.Clone()
	for _, e := range g.Edges() {
		if pruned.Degree(e.U) > 3 && pruned.Degree(e.V) > 3 {
			pruned.RemoveEdge(e.U, e.V)
		}
	}
	if !pruned.Connected() {
		t.Skip("pruning disconnected the sample graph")
	}
	res, err := Run(pruned, AlgoToken, allNodes(pruned.N()))
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgorithmMessages > int64(6*pruned.N()) {
		t.Fatalf("messages = %d > 6n", res.AlgorithmMessages)
	}
}

// TestGosimManySeedsQuick hammers the goroutine runtime: true-async
// schedules must always elect exactly one leader within the 6n bound.
func TestGosimManySeedsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("async fuzz skipped in -short mode")
	}
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%25) + 4
		g := graph.GNP(n, 0.2, seed)
		res, err := RunAsync(g, AlgoToken, allNodes(n), seed, 30*time.Second)
		if err != nil {
			return false
		}
		return res.AlgorithmMessages <= int64(6*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomDelaySweepQuick checks the bound across delay regimes: the
// theorem is about system calls, so it must hold for any C and P. Random
// delays reorder packets sharing a link, and a reorder fault profile piles
// on; the recovery path (stale-tree fallbacks, flood transport) keeps the
// runs panic-free — this sweep was flaky before routeHome learned to
// degrade instead of crash.
func TestRandomDelaySweepQuick(t *testing.T) {
	f := func(seed int64, cRaw, pRaw uint8) bool {
		n := 20
		g := graph.GNP(n, 0.2, seed)
		res, err := Run(g, AlgoToken, allNodes(n),
			sim.WithDelays(core.Time(cRaw%10), core.Time(pRaw%10)+1),
			sim.WithRandomDelays(), sim.WithSeed(seed),
			sim.WithMsgFaults(core.MsgFaults{Reorder: 0.1, ReorderWindow: 20}))
		if err != nil {
			return false
		}
		return res.AlgorithmMessages <= int64(6*n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVirtualTreeDepthBound probes Lemma 3 indirectly: tour lengths never
// exceed phase+2 messages, so no single candidate can spend more than
// (log2 n + 2) messages per capture.
func TestVirtualTreeDepthBound(t *testing.T) {
	g := graph.GNP(100, 0.08, 21)
	res, err := Run(g, AlgoToken, allNodes(100))
	if err != nil {
		t.Fatal(err)
	}
	// Captures + retires account for all tours; each costs <= phase+2 <=
	// log2(n)+2 messages. With n=100 that is <= 9 per tour.
	tours := res.Stats.Captures.Load() + res.Stats.Retires.Load()
	if res.AlgorithmMessages > tours*9 {
		t.Fatalf("messages = %d exceed %d tours x 9 (Lemma 3 violated?)",
			res.AlgorithmMessages, tours)
	}
}

// TestAnnounceRelayRefused reaches relayAnnounce's Env.Fail the only way
// there is: an announcement whose plan was made for another network. The
// leader's own plan names handshake link IDs of a topology that is static for
// the election, so the runtime never refuses it. The run, not the process,
// fails, with a core.HandlerError at node 0.
func TestAnnounceRelayRefused(t *testing.T) {
	star := graph.Star(5).BFSTree(0)
	plan, err := paths.NewFanout(star, func(_, to core.NodeID) (anr.ID, bool) { return anr.ID(to), true })
	if err != nil {
		t.Fatal(err)
	}
	net := sim.New(graph.Path(3), factory(AlgoToken, &Stats{}), sim.WithDelays(0, 1)) // node 0 has one port
	net.Inject(0, 0, &announceMsg{Leader: 0, Plan: plan})
	_, err = net.Run()
	var he *core.HandlerError
	if !errors.As(err, &he) || he.Node != 0 {
		t.Fatalf("a plan for a five-node star was relayed on a three-node path: %v", err)
	}
	for _, want := range []string{"election: announce: node 0: ", "first links [1 2 3 4]", "no link 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure %q does not name %q", err, want)
		}
	}
}

// TestDuplicationFailsTheRun holds the election to its stated scope: §4
// assumes exactly-once links, so under a Dup profile a node can meet its own
// token twice. Then the run, on either runtime, either still elects exactly
// one leader or fails with a core.HandlerError at the node that met the
// second comeback — never a panic that takes the process down.
func TestDuplicationFailsTheRun(t *testing.T) {
	dup := core.MsgFaults{Dup: 0.2}
	starters := []core.NodeID{0, 5, 9}
	runs := map[string]func(g *graph.Graph, seed int64) (Result, error){
		"sim": func(g *graph.Graph, _ int64) (Result, error) {
			return Run(g, AlgoToken, starters, sim.WithMsgFaults(dup))
		},
		"gosim": func(g *graph.Graph, seed int64) (Result, error) {
			return RunAsync(g, AlgoToken, starters, seed, 10*time.Second, gosim.WithMsgFaults(dup))
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			failed := 0
			for seed := int64(1); seed <= 30; seed++ {
				g := graph.GNP(40, 0.15, seed)
				res, err := run(g, seed)
				var he *core.HandlerError
				switch {
				case err == nil && res.Leader != core.None:
				case errors.As(err, &he) && he.Node >= 0 && int(he.Node) < g.N() &&
					strings.Contains(err.Error(), fmt.Sprintf("node %d", he.Node)) && strings.Contains(err.Error(), "unexpected comeback"):
					failed++
				default:
					t.Errorf("seed %d: %v, err %v; want one leader or a HandlerError naming the node and an unexpected comeback", seed, res.Leader, err)
				}
			}
			t.Logf("%d of 30 runs failed with a HandlerError", failed)
		})
	}
}
