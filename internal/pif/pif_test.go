package pif

import (
	"errors"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
	"fastnet/internal/sim"
)

func TestPIFCompletes(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(16), graph.Star(16), graph.Ring(16),
		graph.RandomTree(50, 3), graph.GNP(50, 0.1, 4), graph.Grid(6, 6),
	} {
		res, err := Run(g, 0, EchoOptimal, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(g.N())
		// Broadcast n-1 deliveries + echo n-1 acks (within a small
		// constant for queueing duplicates — there are none).
		if res.Metrics.Deliveries != 2*(n-1) {
			t.Fatalf("n=%d: deliveries = %d, want 2(n-1) = %d", n, res.Metrics.Deliveries, 2*(n-1))
		}
	}
}

func TestPIFSingleNode(t *testing.T) {
	res, err := Run(graph.New(1), 0, EchoOptimal, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish != 1 {
		t.Fatalf("finish = %d, want 1 (the injection activation)", res.Finish)
	}
}

func TestPIFOptimalEchoLogTime(t *testing.T) {
	// Both phases are logarithmic: finish within c*log2(n) for a generous c.
	for _, n := range []int{64, 256, 1024} {
		g := graph.RandomTree(n, 7)
		res, err := Run(g, 0, EchoOptimal, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		bound := core.Time(4 * (bits.Len(uint(n)) + 1))
		if res.Finish > bound {
			t.Fatalf("n=%d: finish = %d, want <= %d (O(log n))", n, res.Finish, bound)
		}
	}
}

func TestPIFDirectEchoLinearTime(t *testing.T) {
	// The ablation: direct acknowledgements serialize at the root.
	n := 256
	g := graph.RandomTree(n, 7)
	direct, err := Run(g, 0, EchoDirect, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := Run(g, 0, EchoOptimal, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Finish < core.Time(n-1) {
		t.Fatalf("direct finish = %d, want >= n-1 (root serialization)", direct.Finish)
	}
	if optimal.Finish*4 > direct.Finish {
		t.Fatalf("optimal %d not clearly faster than direct %d", optimal.Finish, direct.Finish)
	}
	// Same system-call budget in both modes.
	if direct.Metrics.Deliveries != optimal.Metrics.Deliveries {
		t.Fatalf("deliveries differ: %d vs %d", direct.Metrics.Deliveries, optimal.Metrics.Deliveries)
	}
}

func TestPIFUnderGeneralDelays(t *testing.T) {
	g := graph.GNP(40, 0.12, 9)
	res, err := Run(g, 3, EchoOptimal, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish <= res.BroadcastTime {
		t.Fatalf("finish %d must follow the broadcast %d", res.Finish, res.BroadcastTime)
	}
}

func TestPIFDisconnectedRejected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	if _, err := Run(g, 0, EchoOptimal, 0, 1); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestEchoModeString(t *testing.T) {
	if EchoOptimal.String() != "optimal-tree" || EchoDirect.String() != "direct-to-root" ||
		EchoMode(9).String() != "echo(9)" {
		t.Fatal("EchoMode.String mismatch")
	}
}

func TestTreeRouteLCA(t *testing.T) {
	// Tree: 0-1, 0-2, 1-3, 1-4. Route 3->4 goes up to 1 and down to 4;
	// route 3->2 crosses the root.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(1, 3)
	g.MustAddEdge(1, 4)
	pm := core.NewPortMap(g)
	bfs := g.BFSTree(0)
	var edges []treeEdge
	for u := 1; u < 5; u++ {
		id := core.NodeID(u)
		par := bfs.Parent[id]
		down, _ := pm.Toward(par, id)
		up, _ := pm.Toward(id, par)
		edges = append(edges, treeEdge{Child: id, Parent: par, Down: down, Up: up})
	}
	check := func(u, w core.NodeID, hops int) {
		t.Helper()
		h, err := treeRouteIdx(edges, edgeIndex(edges), u, w)
		if err != nil {
			t.Fatal(err)
		}
		if h.HopCount() != hops {
			t.Fatalf("route %d->%d = %d hops, want %d", u, w, h.HopCount(), hops)
		}
		tr, err := core.WalkRoute(pm, u, h)
		if err != nil || len(tr.Dropped) > 0 || tr.Deliveries[0].Node != w {
			t.Fatalf("route %d->%d did not execute: %+v err=%v", u, w, tr, err)
		}
	}
	check(3, 4, 2)
	check(3, 2, 3)
	check(4, 0, 2)
	check(0, 3, 2)
}

// Property: treeRouteIdx between random pairs in random trees always executes
// and lands at the destination.
func TestTreeRouteQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		const n = 22
		g := graph.RandomTree(n, seed)
		pm := core.NewPortMap(g)
		bfs := g.BFSTree(0)
		var edges []treeEdge
		for u := 1; u < n; u++ {
			id := core.NodeID(u)
			par := bfs.Parent[id]
			down, _ := pm.Toward(par, id)
			up, _ := pm.Toward(id, par)
			edges = append(edges, treeEdge{Child: id, Parent: par, Down: down, Up: up})
		}
		u, w := core.NodeID(a%n), core.NodeID(b%n)
		h, err := treeRouteIdx(edges, edgeIndex(edges), u, w)
		if err != nil {
			return false
		}
		if u == w {
			return h.HopCount() == 0
		}
		tr, err := core.WalkRoute(pm, u, h)
		return err == nil && len(tr.Dropped) == 0 && len(tr.Deliveries) == 1 && tr.Deliveries[0].Node == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRelayRefused reaches relay's Env.Fail the only way there is: a
// broadcast whose plan was made for another network. Run builds the plan from
// the port map of the network it runs, so the runtime never refuses it. The
// run, not the process, fails, with a core.HandlerError at node 0.
func TestRelayRefused(t *testing.T) {
	star := graph.Star(5).BFSTree(0)
	plan, err := paths.NewFanout(star, func(_, to core.NodeID) (anr.ID, bool) { return anr.ID(to), true })
	if err != nil {
		t.Fatal(err)
	}
	net := sim.New(graph.Path(3), func(id core.NodeID) core.Protocol { // node 0 has one port
		return &proto{id: id, done: &doneProbe{}}
	}, sim.WithDelays(0, 1))
	net.Inject(0, 0, &bcast{Root: 0, Plan: plan, Mode: EchoDirect, Order: []core.NodeID{0}})
	_, err = net.Run()
	var he *core.HandlerError
	if !errors.As(err, &he) || he.Node != 0 {
		t.Fatalf("a plan for a five-node star was relayed on a three-node path: %v", err)
	}
	for _, want := range []string{"pif: broadcast: node 0: ", "first links [1 2 3 4]", "no link 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure %q does not name %q", err, want)
		}
	}
}
