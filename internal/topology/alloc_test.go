package topology

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestQuietRoundAllocs pins what a broadcast costs once the network has
// converged: its Msg and record slice, the local record's new snapshot, and
// the spine's packets. The plan is the origin's cached one, every path start
// sends the plan's headers as they stand, and a receiver turns the batch
// away on its screen — nothing per branching path, nothing per delivery. In
// full-knowledge mode the Msg carries the sender's whole database on top, and
// that must cost O(1) more objects — the stored link lists are shared, not
// copied once per known record.
func TestQuietRoundAllocs(t *testing.T) {
	const n = 64
	g := graph.GNP(n, 8.0/n, 5)
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	perBroadcast := func(full bool) float64 {
		net := sim.New(g, NewMaintainer(ModeBranching, full, nil),
			sim.WithDelays(0, 1), sim.WithDmax(DefaultDmax(ModeBranching, n)))
		round := func() {
			for u := 0; u < n; u++ {
				net.Inject(net.Now(), core.NodeID(u), Trigger{})
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; !converged(net, g, nil); r++ {
			if r == n {
				t.Fatalf("full=%v: no convergence within %d rounds", full, n)
			}
			round()
		}
		return testing.AllocsPerRun(5, round) / n
	}
	local, full := perBroadcast(false), perBroadcast(true)
	t.Logf("allocs per broadcast in a quiet round: %.1f local-topology, %.1f full-knowledge", local, full)
	// Measured 9.3 and 9.3; 103.4 while every path start built its headers
	// from route specs, one more per known record when link lists were copied.
	if full > 20 {
		t.Errorf("%.1f allocs per full-knowledge broadcast, want <= 20", full)
	}
	if full-local > 2 {
		t.Errorf("carrying the whole database costs %.1f more allocs per broadcast, want <= 2", full-local)
	}
}

// TestQuietFloodAllocs pins what flooding costs once the network has
// converged: each broadcast allocates its message and the one-record slice
// inside it, and nothing per forwarded copy — a relay sends the node's fixed
// one-hop headers through one reused route list, and the C >= 1 spine keeps
// the hops in pooled chunks.
func TestQuietFloodAllocs(t *testing.T) {
	const n = 64
	g := graph.GNP(n, 8.0/n, 5)
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	net := sim.New(g, NewMaintainer(ModeFlood, false, nil), sim.WithDelays(8, 1))
	round := func() {
		for u := 0; u < n; u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if !converged(net, g, nil) {
		t.Fatal("one flooding round did not converge the network")
	}
	before := net.Metrics().Deliveries
	allocs := testing.AllocsPerRun(5, round)
	perRound := float64(net.Metrics().Deliveries-before) / 6 // AllocsPerRun warms up with one extra run
	t.Logf("%.0f allocs for %.0f deliveries in a quiet flooding round: %.3f per delivery", allocs, perRound, allocs/perRound)
	// Measured 0.009 when the test was added; a header per forwarded copy
	// and a map per relay made it 1.69.
	if allocs/perRound > 0.1 {
		t.Errorf("%.3f allocs per delivery, want <= 0.1", allocs/perRound)
	}
}

// TestSingleBroadcastAllocsPerNode pins what one broadcast network costs to
// build and run once, per node: the local record, which goes into one of the
// two store entries the protocol holds inline. The simulator's node state and
// the protocol structs come in slabs; the origin's preloaded topology is
// carved from one array, adopted rather than copied, into a store grown once,
// and the tree, decomposition and plan made from it are per network. A relay
// allocates nothing to forward (its headers are the plan's), to store the
// origin's record (the link list is adopted from the message), index it
// (built on first lookup) or watermark it (the first origin is held inline).
// Measured 1.5; 6.7 with a protocol struct, a store and a copied preload list
// per node; 8.9 with a header and a route list per branching path; 15.9 with
// a separately allocated database, two eager maps, a copy and an index per
// received record.
func TestSingleBroadcastAllocsPerNode(t *testing.T) {
	const n = 4096
	g := graph.RandomTree(n, 2)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := SingleBroadcast(g, 0, ModeBranching)
		if err != nil || res.Covered != n-1 {
			t.Fatalf("covered %d of %d, err %v", res.Covered, n-1, err)
		}
	})
	t.Logf("%.1f allocs per node for one %d-node branching-paths broadcast", allocs/n, n)
	if allocs/n > 2 {
		t.Errorf("%.1f allocs per node, want <= 2", allocs/n)
	}
}
