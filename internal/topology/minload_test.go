package topology

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

func TestRouteMinLoadAvoidsHotLink(t *testing.T) {
	// Square 0-1-2-3-0: with edge 0-1 heavily loaded, the min-load route
	// from 0 to 1 goes the long way (0-3-2-1).
	g := graph.Ring(4)
	pm := core.NewPortMap(g)
	db := NewDB()
	for _, r := range RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	// Re-report node 0's record with load 50 toward node 1.
	rec, _ := db.Record(0)
	rec.Seq++
	for i := range rec.Links {
		if rec.Links[i].Neighbor == 1 {
			rec.Links[i].Load = 50
		}
	}
	db.Update(rec)

	if db.loadOf(0, 1) != 50 {
		t.Fatalf("loadOf(0,1) = %d, want 50", db.loadOf(0, 1))
	}
	if db.loadOf(1, 0) != 50 {
		t.Fatal("loadOf must be symmetric")
	}

	hot, err := db.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hot.HopCount() != 1 {
		t.Fatalf("min-hop route = %d hops, want 1", hot.HopCount())
	}
	cool, err := db.RouteMinLoad(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cool.HopCount() != 3 {
		t.Fatalf("min-load route = %d hops, want the 3-hop detour", cool.HopCount())
	}
}

func TestRouteMinLoadEndToEnd(t *testing.T) {
	// Loads disseminated by broadcast steer routing at a remote node.
	g := graph.Ring(6)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	// Node 0 reports heavy load toward node 1.
	lid, _ := net.PortMap().Toward(0, 1)
	net.Protocol(core.NodeID(0)).(Maintainer).SetLoad(lid, 99)
	for round := 0; round < 6; round++ {
		for u := 0; u < g.N(); u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Node 3 now routes 0->1 around the other side.
	db := net.Protocol(3).(Maintainer).DB()
	h, err := db.RouteMinLoad(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.HopCount() != 5 {
		t.Fatalf("remote min-load route = %d hops, want 5", h.HopCount())
	}
}

func TestRouteMinLoadSelfAndUnknown(t *testing.T) {
	db := NewDB()
	if h, err := db.RouteMinLoad(2, 2); err != nil || h.HopCount() != 0 {
		t.Fatalf("self route = %v, %v", h, err)
	}
	if _, err := db.RouteMinLoad(0, 9); err == nil {
		t.Fatal("unknown destination must fail")
	}
}
