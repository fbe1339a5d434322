package gosim

import (
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/topology"
)

// TestCrashRestoreReconverge runs the §3 maintenance protocol on the
// goroutine runtime through a node crash and restore: after the restore and
// a few broadcast rounds, every database must match the repaired topology
// (Theorem 1 exercised under true asynchrony).
func TestCrashRestoreReconverge(t *testing.T) {
	g := graph.GNP(16, 0.3, 3)
	net := New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		WithDmax(g.N()))
	defer net.Shutdown()

	victim := core.NodeID(5)
	rounds := func(k int) {
		for i := 0; i < k; i++ {
			for u := 0; u < g.N(); u++ {
				net.Inject(core.NodeID(u), topology.Trigger{})
			}
			if err := net.AwaitQuiescence(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Converge cold, then crash.
	rounds(g.N())
	net.CrashNode(victim)
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	down := make(map[graph.Edge]bool)
	for _, nb := range g.Neighbors(victim) {
		down[graph.Edge{U: victim, V: nb}.Canon()] = true
	}
	rounds(4)
	live := g.Clone()
	for _, nb := range g.Neighbors(victim) {
		live.RemoveEdge(victim, nb)
	}
	for _, comp := range live.Components() {
		if len(comp) == 1 {
			continue
		}
		for _, u := range comp {
			db := net.Protocol(u).(topology.Maintainer).DB()
			if !db.KnowsNodes(comp, g, down) {
				t.Fatalf("node %d has a stale view after the crash", u)
			}
		}
	}

	// Restore and re-converge on the full topology.
	net.RestoreNode(victim)
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rounds(g.N())
	for u := 0; u < g.N(); u++ {
		db := net.Protocol(core.NodeID(u)).(topology.Maintainer).DB()
		// Theorem 1's condition on a connected network: the database
		// matches the whole actual topology.
		all := make([]core.NodeID, g.N())
		for i := range all {
			all[i] = core.NodeID(i)
		}
		if !db.KnowsNodes(all, g, nil) {
			t.Fatalf("node %d did not re-converge after the restore", u)
		}
	}
}
