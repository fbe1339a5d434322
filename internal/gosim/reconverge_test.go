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
	dbOf := func(u core.NodeID) *topology.DB { return net.Protocol(u).(topology.Maintainer).DB() }
	if u, w, ok := topology.Converged(g, down, dbOf); !ok {
		t.Fatalf("node %d has a stale view of node %d after the crash", u, w)
	}

	// Restore and re-converge on the full topology.
	net.RestoreNode(victim)
	if err := net.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	rounds(g.N())
	// Theorem 1's condition on the repaired, connected network: every
	// database matches the whole actual topology.
	if u, w, ok := topology.Converged(g, nil, dbOf); !ok {
		t.Fatalf("node %d did not re-converge after the restore: stale about %d", u, w)
	}
}
