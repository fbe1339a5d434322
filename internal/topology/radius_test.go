package topology

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestKnowledgeRadiusGrowsPerRound checks the comment after Theorem 1: "a
// node's topology knowledge covers at least a distance k just before its
// k-th broadcast" — from a cold start, after k rounds every node's database
// holds correct records for everything within k hops.
func TestKnowledgeRadiusGrowsPerRound(t *testing.T) {
	g := graph.Grid(6, 6)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	dists := make([][]int, g.N())
	for u := 0; u < g.N(); u++ {
		dists[u] = g.Distances(core.NodeID(u))
	}
	for round := 1; round <= g.Diameter(); round++ {
		for u := 0; u < g.N(); u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			db := net.Protocol(core.NodeID(u)).(Maintainer).DB()
			var within []core.NodeID
			for w := 0; w < g.N(); w++ {
				if dists[u][w] <= round {
					within = append(within, core.NodeID(w))
				}
			}
			if !db.knowsNodes(within, g, nil) {
				t.Fatalf("round %d: node %d does not know its %d-hop ball", round, u, round)
			}
		}
	}
}
