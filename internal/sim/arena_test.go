package sim

import (
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// reverseKeeper sends a train of packets down its route on "go" and, at the
// receiving end, keeps every Reverse it is handed — appending to each one on
// arrival, the way a protocol that extends a captured route would.
type reverseKeeper struct {
	route anr.Header
	train int
	kept  []anr.Header
	caps  []int
}

func (p *reverseKeeper) Init(core.Env)                 {}
func (p *reverseKeeper) LinkEvent(core.Env, core.Port) {}

func (p *reverseKeeper) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		for i := 0; i < p.train; i++ {
			if err := env.Send(p.route, i); err != nil {
				panic(err)
			}
		}
	}
	p.kept = append(p.kept, pkt.Reverse)
	p.caps = append(p.caps, cap(pkt.Reverse))
	_ = append(pkt.Reverse, anr.Hop{Link: 999}, anr.Hop{Link: 999})
}

// TestReverseArenaTails: reverse-route buffers carved from the hop arena sit
// back to back in one chunk, so every Reverse a protocol sees — full buffers
// at the destination, shorter tails at selective-copy stops, the shared
// injection header, and long routes that bypass the arena — must have
// cap == len, and an append through one must never show up in another
// packet's route.
func TestReverseArenaTails(t *testing.T) {
	for _, n := range []int{6, hopChunk/8 + 8} { // arena-carved and own-allocation routes
		g := graph.Path(n)
		links := make([]anr.ID, n-1)
		links[0] = 1 // node 0's only link; interior nodes forward on their second
		for i := 1; i < n-1; i++ {
			links[i] = 2
		}
		protos := make([]*reverseKeeper, n)
		net := New(g, func(id core.NodeID) core.Protocol {
			protos[id] = &reverseKeeper{}
			return protos[id]
		}, WithDelays(1, 1), WithDmax(n))
		protos[0].route, protos[0].train = anr.CopyPath(links), 5
		net.Inject(0, 0, "go")
		net.Inject(0, 0, "again")
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		for u, p := range protos {
			want := make(anr.Header, 0, u+1) // u hops back toward node 0, then the NCU
			for i := 0; i < u; i++ {
				want = append(want, anr.Hop{Link: 1})
			}
			want = append(want, anr.Hop{Link: anr.NCU})
			wantKept := protos[0].train
			if u == 0 {
				wantKept = 2 // the two injections
			}
			if len(p.kept) != wantKept {
				t.Fatalf("n=%d node %d: kept %d reverses, want %d", n, u, len(p.kept), wantKept)
			}
			for i, rev := range p.kept {
				if p.caps[i] != len(rev) {
					t.Errorf("n=%d node %d packet %d: Reverse has len %d cap %d", n, u, i, len(rev), p.caps[i])
				}
				if !slices.Equal(rev, want) {
					t.Errorf("n=%d node %d packet %d: Reverse %v, want %v (stomped by a neighbour's append?)", n, u, i, rev, want)
				}
			}
		}
	}
}

// TestReverseCapEqualsLen: fault-injected duplicates in shard mode carry a
// clone of the reverse route, and every Reverse a protocol is handed still
// has cap == len — at the destination and at each selective-copy stop, on one
// shard and on two — so no append through one writes into spare capacity
// another delivery of the same packet shares.
func TestReverseCapEqualsLen(t *testing.T) {
	const n = 7 // a 6-hop route: tails of 4 hops and more at nodes 4..6
	links := make([]anr.ID, n-1)
	links[0] = 1
	for i := 1; i < n-1; i++ {
		links[i] = 2
	}
	for _, shards := range []int{1, 2} {
		protos := make([]*reverseKeeper, n)
		net := New(graph.Path(n), func(id core.NodeID) core.Protocol {
			protos[id] = &reverseKeeper{}
			return protos[id]
		}, WithDelays(1, 1), WithDmax(n), WithShards(shards), WithSeed(3),
			WithMsgFaults(core.MsgFaults{Dup: 0.3}))
		protos[0].route, protos[0].train = anr.CopyPath(links), 20
		net.Inject(0, 0, "go")
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if dups := net.Metrics().FaultDups; dups == 0 {
			t.Fatalf("shards=%d: no traversal was duplicated", shards)
		}
		checked := 0
		for u := 4; u < n; u++ {
			if len(protos[u].kept) <= protos[0].train {
				t.Fatalf("shards=%d node %d: %d deliveries, want duplicates beyond the train of %d", shards, u, len(protos[u].kept), protos[0].train)
			}
			for i, rev := range protos[u].kept {
				if len(rev) != u+1 || protos[u].caps[i] != len(rev) {
					t.Errorf("shards=%d node %d delivery %d: Reverse has len %d cap %d, want both %d", shards, u, i, len(rev), protos[u].caps[i], u+1)
				}
				checked++
			}
		}
		t.Logf("shards=%d: %d deliveries of routes of 4 to %d hops checked", shards, checked, n-1)
	}
}

// TestGlobalSchedStatsRunUntilOnly: a driver that only ever calls RunUntil
// (the open-loop engine, epoch scripts) adds nothing to its SchedTotals sink
// per call; reading SchedStats must, exactly once — classic and sharded
// networks alike — so `fastnet exp -v` totals stay the sum of the per-network
// counters. The totals are the caller's value: a network built without the
// sink, or with another one, never shows in them.
func TestGlobalSchedStatsRunUntilOnly(t *testing.T) {
	var totals, other SchedTotals
	var want SchedStats
	for _, shards := range []int{0, 2} {
		build := func(opts ...Option) *Network {
			return New(graph.Ring(24), func(id core.NodeID) core.Protocol {
				return &pingProto{id: id, route: anr.Direct([]anr.ID{1, 1, 1})}
			}, append([]Option{WithDelays(2, 1), WithShards(shards)}, opts...)...)
		}
		net, bystander, loner := build(totals.Sink()), build(other.Sink()), build()
		if shards > 1 && net.Shards() < 2 {
			t.Fatalf("WithShards(%d) ran on %d shard", shards, net.Shards())
		}
		for _, nw := range []*Network{net, bystander, loner} {
			for step := core.Time(0); step < 40; step++ {
				nw.Inject(step, core.NodeID(step%24), "go")
				if _, err := nw.RunUntil(step + 1); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := nw.RunUntil(1000); err != nil {
				t.Fatal(err)
			}
		}
		if got := totals.Stats(); got != want {
			t.Fatalf("RunUntil alone reached the totals: %+v, want %+v", got, want)
		}
		first := net.SchedStats()
		if again := net.SchedStats(); again != first {
			t.Fatalf("second read changed the counters: %+v vs %+v", again, first)
		}
		if first.Events == 0 || loner.SchedStats() != first {
			t.Fatalf("scenario dispatched %d events; the same network without a sink counted %+v", first.Events, loner.SchedStats())
		}
		want.add(first)
		if got := totals.Stats(); got != want {
			t.Fatalf("totals %+v, sum of per-network SchedStats %+v (a second read must not add twice)", got, want)
		}
	}
	if got := other.Stats(); got != (SchedStats{}) {
		t.Fatalf("a sink whose networks were never read holds %+v", got)
	}
}

// headerSender sends its routes on "go", four times each through Send and
// four times together through Multicast.
type headerSender struct{ routes []anr.Header }

func (p *headerSender) Init(core.Env)                 {}
func (p *headerSender) LinkEvent(core.Env, core.Port) {}

func (p *headerSender) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload != "go" {
		return
	}
	for _, h := range p.routes {
		for i := 0; i < 4; i++ {
			if err := env.Send(h, i); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if err := env.Multicast(p.routes, i); err != nil {
			panic(err)
		}
	}
}

// TestSendLeavesHeaderUntouched: a header handed to Send or Multicast is
// read, never written — not by the fused C = 0 walk, the ring-bound C >= 1
// hops, a selective copy, or a duplicated packet. Protocols that send one
// shared header many times (load's pair table, traffic's per-flow packet
// states) depend on it.
func TestSendLeavesHeaderUntouched(t *testing.T) {
	g := graph.New(7) // two legs off node 0: 0-1-2-3 and 0-4-5-6
	for _, e := range [][2]core.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 6}} {
		g.MustAddEdge(e[0], e[1])
	}
	for _, c := range []core.Time{0, 2} {
		for _, dup := range []float64{0, 0.5} {
			sender := &headerSender{}
			net := New(g, func(id core.NodeID) core.Protocol {
				if id == 0 {
					return sender
				}
				return &reverseKeeper{}
			}, WithDelays(c, 1), WithSeed(3), WithMsgFaults(core.MsgFaults{Dup: dup}))
			plain, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			copied, err := net.PortMap().RouteLinks([]core.NodeID{0, 4, 5, 6})
			if err != nil {
				t.Fatal(err)
			}
			sender.routes = []anr.Header{anr.Direct(plain), anr.CopyPath(copied)}
			want := []anr.Header{sender.routes[0].Clone(), sender.routes[1].Clone()}
			net.Inject(0, 0, "go")
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			// 8 packets per route: one delivery down the plain leg, three
			// (two selective copies, then the terminal) down the copied one.
			m, st := net.Metrics(), net.SchedStats()
			if (m.FaultDups > 0) != (dup > 0) || m.Deliveries < 8*(1+3) || (c == 0 && st.FusedHops == 0) || (c > 0 && st.RingPushes == 0) {
				t.Fatalf("C=%d dup=%g: scenario did not take the paths it is meant to: %v; %v", c, dup, m, st)
			}
			for i, h := range sender.routes {
				if !slices.Equal(h, want[i]) {
					t.Fatalf("C=%d dup=%g: route %d is %v after sending, was %v", c, dup, i, h, want[i])
				}
			}
		}
	}
}
