package topology

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestConvergenceUnderRandomFailuresQuick is Theorem 1 as a property:
// whatever finite set of link failures happens, once changes stop the
// branching-paths protocol converges (per component) within a bounded
// number of rounds.
func TestConvergenceUnderRandomFailuresQuick(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%30) + 5
		g := graph.GNP(n, 0.15, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		edges := g.Edges()
		k := int(kRaw)%4 + 1
		var changes []Change
		for i := 0; i < k; i++ {
			e := edges[rng.Intn(len(edges))]
			changes = append(changes, Change{
				Round: rng.Intn(3) + 1,
				U:     e.U,
				V:     e.V,
				Up:    rng.Intn(3) == 0, // mostly failures, some repairs
			})
		}
		res, err := RunConvergence(g, ConvOptions{
			Mode: ModeBranching, MaxRounds: n + 10,
		}, changes)
		if err != nil {
			return false
		}
		return res.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestConvergencePartition checks the per-component form of Theorem 1: when
// failures split the network, each side converges on its own component.
func TestConvergencePartition(t *testing.T) {
	// Two cliques joined by one bridge; the bridge fails.
	g := graph.New(8)
	for i := core.NodeID(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(i, j)
		}
	}
	for i := core.NodeID(4); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			g.MustAddEdge(i, j)
		}
	}
	g.MustAddEdge(3, 4) // bridge
	changes := []Change{{Round: 2, U: 3, V: 4, Up: false}}
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeBranching, Warm: true, MaxRounds: 20,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("partitioned network must converge per component")
	}
}

// TestNodeCrashConvergence drives the model's node failure (all links down)
// through the maintenance protocol.
func TestNodeCrashConvergence(t *testing.T) {
	g := graph.GNP(24, 0.2, 5)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	recs := RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
	}
	victim := core.NodeID(7)
	net.CrashNode(0, victim)
	down := make(map[graph.Edge]bool)
	for _, nb := range g.Neighbors(victim) {
		down[graph.Edge{U: victim, V: nb}.Canon()] = true
	}
	for round := 0; round < 10; round++ {
		for u := 0; u < g.N(); u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Every survivor must know the victim is unreachable (all its links
	// reported down by the neighbors' records).
	if u, w, ok := Converged(g, down, func(u core.NodeID) *DB { return net.Protocol(u).(Maintainer).DB() }); !ok {
		t.Fatalf("node %d has a stale view of node %d after the crash", u, w)
	}
}

// TestCrossRuntimeParity runs the same broadcast on both runtimes and
// checks the schedule-independent costs agree.
func TestCrossRuntimeParity(t *testing.T) {
	g := graph.RandomTree(80, 3)

	des, err := SingleBroadcast(g, 0, ModeBranching)
	if err != nil {
		t.Fatal(err)
	}

	gnet := gosim.New(g, NewMaintainer(ModeBranching, false, nil), gosim.WithDmax(g.N()))
	defer gnet.Shutdown()
	recs := RecordsForGraph(g, gnet.PortMap(), nil)
	gnet.Protocol(0).(Maintainer).Preload(recs)
	gnet.Inject(0, Trigger{})
	if err := gnet.AwaitQuiescence(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	gm := gnet.Metrics()

	if gm.Deliveries != des.Metrics.Deliveries {
		t.Fatalf("deliveries differ: gosim %d, sim %d", gm.Deliveries, des.Metrics.Deliveries)
	}
	if gm.Hops != des.Metrics.Hops {
		t.Fatalf("hops differ: gosim %d, sim %d", gm.Hops, des.Metrics.Hops)
	}
	if gm.Packets != des.Metrics.Packets {
		t.Fatalf("packets differ: gosim %d, sim %d", gm.Packets, des.Metrics.Packets)
	}
	if gm.HeaderBits != des.Metrics.HeaderBits {
		t.Fatalf("header bits differ: gosim %d, sim %d", gm.HeaderBits, des.Metrics.HeaderBits)
	}
}

// TestBroadcastIsOneWay asserts the §3 structural property the lower bound
// depends on: no broadcast packet traverses a tree link toward the origin.
func TestBroadcastIsOneWay(t *testing.T) {
	g := graph.RandomTree(120, 11)
	res, err := SingleBroadcast(g, 5, ModeBranching)
	if err != nil {
		t.Fatal(err)
	}
	// On a tree, a one-way broadcast traverses each edge at most once:
	// total hops == n-1 exactly when every node is covered.
	if res.Metrics.Hops != int64(g.N()-1) {
		t.Fatalf("hops = %d, want n-1 = %d (one-way property)", res.Metrics.Hops, g.N()-1)
	}
}
