package topology

import (
	"testing"
	"testing/quick"

	"fastnet/internal/core"
	"fastnet/internal/graph"
)

func fullDB(g *graph.Graph) *DB {
	pm := core.NewPortMap(g)
	db := NewDB()
	for _, r := range RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	return db
}

func TestDBRouteBasics(t *testing.T) {
	g := graph.Ring(8)
	db := fullDB(g)
	h, err := db.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.HopCount() != 4 {
		t.Fatalf("hops = %d, want the min-hop 4", h.HopCount())
	}
	if h2, err := db.Route(3, 3); err != nil || h2.HopCount() != 0 {
		t.Fatalf("self route = %v, %v", h2, err)
	}
	if _, err := db.Route(0, 99); err == nil {
		t.Fatal("route to unknown node must fail")
	}
}

func TestDBRouteRespectsFailures(t *testing.T) {
	g := graph.Ring(6)
	pm := core.NewPortMap(g)
	down := map[graph.Edge]bool{{U: 0, V: 1}: true}
	db := NewDB()
	for _, r := range RecordsForGraph(g, pm, down) {
		db.Update(r)
	}
	h, err := db.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With 0-1 down, the believed route must go the long way round.
	if h.HopCount() != 5 {
		t.Fatalf("hops = %d, want 5 (around the ring)", h.HopCount())
	}
}

func TestDBRouteNoPath(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	pm := core.NewPortMap(g)
	db := NewDB()
	for _, r := range RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	if _, err := db.Route(0, 2); err == nil {
		t.Fatal("route to disconnected node must fail")
	}
}

// Regression: LinkID must fall through to the neighbor's record when the
// near end's record exists but is stale and omits the link. Before the fix
// the mere presence of u's record cut the search short, masking the remote
// ID that v's record carries — violating LinkID's "either endpoint's record
// suffices" contract. (The two-sided View admission rule happens to keep
// such edges out of routes today, but LinkID is also queried directly by
// the broadcast planners and must honor its contract on its own.)
func TestDBLinkIDStaleRecordFallThrough(t *testing.T) {
	db := NewDB()
	// Node 0's record is stale: it predates the 0-1 link and lists only 0-2.
	db.Update(Record{Node: 0, Seq: 1, Links: []LinkInfo{
		{Local: 5, Remote: 9, Neighbor: 2, Up: true},
	}})
	// Node 1's record knows the 0-1 link; Remote is 0's local ID for it.
	db.Update(Record{Node: 1, Seq: 3, Links: []LinkInfo{
		{Local: 2, Remote: 7, Neighbor: 0, Up: true},
	}})
	if lid, ok := db.LinkID(0, 1); !ok || lid != 7 {
		t.Fatalf("LinkID(0,1) = (%d,%v), want (7,true) via node 1's record", lid, ok)
	}
	if lid, ok := db.LinkID(1, 0); !ok || lid != 2 {
		t.Fatalf("LinkID(1,0) = (%d,%v), want (2,true)", lid, ok)
	}
	// A pair neither record covers still reports not-found.
	if _, ok := db.LinkID(0, 3); ok {
		t.Fatal("LinkID(0,3) must be not-found")
	}
}

// Property: every Route over a full database is executable by the hardware
// and lands at the destination.
func TestDBRouteExecutableQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.GNP(25, 0.12, seed)
		pm := core.NewPortMap(g)
		db := fullDB(g)
		src, dst := core.NodeID(a%25), core.NodeID(b%25)
		h, err := db.Route(src, dst)
		if err != nil {
			return false
		}
		tr, err := core.WalkRoute(pm, src, h)
		if err != nil || len(tr.Dropped) > 0 {
			return false
		}
		return len(tr.Deliveries) == 1 && tr.Deliveries[0].Node == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
