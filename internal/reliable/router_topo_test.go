package reliable_test

import (
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// dbRouteRow is one way a reliable sender at node 0 of a four-node ring gets
// its route to node 2 from a topology database: the two routes leave via node
// 1 or via node 3, the 0-1 link reports load, and bump is a record change
// that must move the answer to the other side at the next lookup.
type dbRouteRow struct {
	route      func(db *topology.DB, src, dst core.NodeID) (anr.Header, error)
	via, after core.NodeID // the node the route leaves 0 for, before and after bump
	bump       func(r *topology.Record)
}

// setLoad gives r's link toward nb the load l.
func setLoad(r *topology.Record, nb core.NodeID, l uint32) {
	for i := range r.Links {
		if r.Links[i].Neighbor == nb {
			r.Links[i].Load = l
		}
	}
}

func (row dbRouteRow) run(t *testing.T) {
	g := graph.Ring(4)
	pm := core.NewPortMap(g)
	db := topology.NewDB()
	var self topology.Record
	for _, r := range topology.RecordsForGraph(g, pm, nil) {
		if r.Node == 0 {
			setLoad(&r, 1, 10)
			self = r
		}
		db.Update(r)
	}
	for i, want := range []core.NodeID{row.via, row.after} {
		if i == 1 {
			// A stored record's links are immutable: the change is a new record.
			self.Seq++
			self.Links = slices.Clone(self.Links)
			row.bump(&self)
			db.Update(self)
		}
		h, err := row.route(db, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if p, _ := pm.Resolve(0, h[0].Link); p.Remote != want || h.HopCount() != 2 {
			t.Fatalf("version %d: route %v leaves for node %d, want a two-hop route via %d", i, h, p.Remote, want)
		}
		deliverOver(t, g, h)
	}
}

// sendOver makes node 0 send its one reliable frame to node 2 over route.
type sendOver struct{ route anr.Header }

// sender is a reliable node that takes sendOver commands.
type sender struct{ *reliable.Node }

func (n sender) Deliver(env core.Env, pkt core.Packet) {
	if c, ok := pkt.Payload.(sendOver); ok {
		_ = n.E.SendRoute(env, 2, c.route, "x")
		return
	}
	n.Node.Deliver(env, pkt)
}

// deliverOver sends one reliable frame from node 0 to node 2 with h as its
// first-attempt route. That attempt is lost; the fabric then heals, and the
// frame must be delivered exactly once by a retransmission reusing h.
func deliverOver(t *testing.T, g *graph.Graph, h anr.Header) {
	t.Helper()
	got := 0
	nodes := make([]*reliable.Node, g.N())
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		nodes[id] = reliable.NewNode(id, reliable.Config{RTO: 1, MaxBackoff: 4, OnDeliver: func(core.Env, core.NodeID, any) { got++ }})
		return sender{nodes[id]}
	}, sim.WithDelays(1, 1), sim.WithMsgFaults(core.MsgFaults{Drop: 1}))
	net.Inject(0, 0, sendOver{h})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	net.SetMsgFaults(core.MsgFaults{})
	for i := 0; i < 16 && nodes[0].E.Pending() > 0; i++ {
		net.Inject(net.Now()+1, 0, reliable.Tick{})
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	st := nodes[0].E.Stats()
	if got != 1 || st.Acked != 1 || st.Retransmits == 0 {
		t.Fatalf("delivered %d times, sender stats %+v: want once, by a retransmission", got, st)
	}
	// The lost attempt died on its first link; every retransmission and its
	// ack crossed the route's links.
	if hops := net.Metrics().Hops; hops != 2*int64(h.HopCount())*st.Retransmits {
		t.Fatalf("%d hops for %d retransmissions over %v", hops, st.Retransmits, h)
	}
}

// TestTopologyRouterFrom: the minimum-hop answer (DB.Route) a sender is
// handed ignores the load on 0-1, and after 0-1 fails the next lookup
// re-routes via node 3.
func TestTopologyRouterFrom(t *testing.T) {
	dbRouteRow{
		route: (*topology.DB).Route,
		via:   1, after: 3,
		bump: func(r *topology.Record) {
			for i := range r.Links {
				if r.Links[i].Neighbor == 1 {
					r.Links[i].Up = false
				}
			}
		},
	}.run(t)
}

// TestTopologyRouterFromPenalized: the load-weighted answer
// (DB.RouteMinLoad) steers off the loaded 0-1 link, and after the load moves
// to 0-3 the next lookup re-routes via node 1.
func TestTopologyRouterFromPenalized(t *testing.T) {
	dbRouteRow{
		route: (*topology.DB).RouteMinLoad,
		via:   3, after: 1,
		bump: func(r *topology.Record) {
			setLoad(r, 1, 0)
			setLoad(r, 3, 10)
		},
	}.run(t)
}
