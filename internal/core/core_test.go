package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fastnet/internal/anr"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

func TestPortMapAssignment(t *testing.T) {
	g := graph.Star(4) // center 0, leaves 1..3
	pm := NewPortMap(g)
	ports := pm.Ports(0)
	if len(ports) != 3 {
		t.Fatalf("center has %d ports, want 3", len(ports))
	}
	for i, p := range ports {
		if p.Local != anr.ID(i+1) {
			t.Fatalf("port %d local ID = %d, want %d", i, p.Local, i+1)
		}
		if p.Remote != NodeID(i+1) {
			t.Fatalf("port %d remote = %d, want %d", i, p.Remote, i+1)
		}
		if p.RemoteID != 1 {
			t.Fatalf("leaf %d should see the center on its link 1, got %d", p.Remote, p.RemoteID)
		}
		if !p.Up {
			t.Fatal("ports must start up")
		}
	}
}

func TestPortMapToward(t *testing.T) {
	g := graph.Ring(5)
	pm := NewPortMap(g)
	// Node 2's neighbors are 1 and 3 (sorted): IDs 1 and 2.
	if id, ok := pm.Toward(2, 1); !ok || id != 1 {
		t.Fatalf("Toward(2,1) = %d,%v want 1,true", id, ok)
	}
	if id, ok := pm.Toward(2, 3); !ok || id != 2 {
		t.Fatalf("Toward(2,3) = %d,%v want 2,true", id, ok)
	}
	if _, ok := pm.Toward(2, 4); ok {
		t.Fatal("Toward(2,4) should fail: not adjacent")
	}
}

func TestPortMapResolve(t *testing.T) {
	g := graph.Path(3)
	pm := NewPortMap(g)
	p, err := pm.Resolve(1, 1)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if p.Remote != 0 {
		t.Fatalf("Resolve(1,1).Remote = %d, want 0", p.Remote)
	}
	if _, err := pm.Resolve(1, 0); err == nil {
		t.Fatal("Resolve of NCU ID must error")
	}
	if _, err := pm.Resolve(1, 5); err == nil {
		t.Fatal("Resolve of unknown ID must error")
	}
}

func TestRouteLinks(t *testing.T) {
	g := graph.Path(4)
	pm := NewPortMap(g)
	links, err := pm.RouteLinks([]NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatalf("RouteLinks: %v", err)
	}
	if len(links) != 3 {
		t.Fatalf("got %d links, want 3", len(links))
	}
	if _, err := pm.RouteLinks([]NodeID{0, 2}); err == nil {
		t.Fatal("RouteLinks over a non-edge must error")
	}
	if _, err := pm.RouteLinks(nil); err == nil {
		t.Fatal("RouteLinks of empty path must error")
	}
}

// TestRoutePairs: the batch router gives every pair, in input order, the
// route of its own g.BFSTree(src).PathFromRoot(dst) — nil for a destination
// in another component and for an endpoint outside the graph, whatever pairs
// share its source.
func TestRoutePairs(t *testing.T) {
	g := graph.GNP(40, 0.08, 4)
	n := NodeID(g.N())
	for len(g.Neighbors(7)) > 0 { // GNP is connected: isolate one node
		g.RemoveEdge(7, g.Neighbors(7)[0])
	}
	pm := NewPortMap(g)
	var pairs [][2]NodeID
	for src := graph.None; src <= n; src += 3 { // None and n: out-of-range sources
		for _, dst := range []NodeID{src, 7, n - 1, graph.None, n, 2, n - 1} {
			pairs = append(pairs, [2]NodeID{src, dst})
		}
	}
	pairs = append(pairs, [2]NodeID{7, 7}, [2]NodeID{7, 3}, [2]NodeID{2, 5}) // a source seen again out of order
	routes, err := pm.RoutePairs(g, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		var want []anr.ID
		if path := g.BFSTree(p[0]).PathFromRoot(p[1]); path != nil {
			if want, err = pm.RouteLinks(path); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(routes[i], want) || (routes[i] == nil) != (want == nil) {
			t.Fatalf("pair %d (%d->%d): route %v, want %v", i, p[0], p[1], routes[i], want)
		}
	}
}

// TestRoutePairsAllocs pins what routing a batch costs: every route is a
// window of a shared link array, and the search's state is allocated once
// for the batch. Measured 44 objects and 184,896 B for 4,096 random pairs on
// a 1024-node degree-6 fabric; 4,111 objects and 205,136 B with an array per
// route. CI runs it outside the race job (scripts/ci-smokes.sh).
func TestRoutePairsAllocs(t *testing.T) {
	const n, count = 1024, 4096
	g := graph.GNP(n, 6.0/n, 1)
	pm := NewPortMap(g)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]NodeID, count)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	routes, err := pm.RoutePairs(g, pairs)
	runtime.ReadMemStats(&after)
	if err != nil || len(routes) != count {
		t.Fatalf("RoutePairs: %d routes, err %v", len(routes), err)
	}
	objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d pairs: %d objects, %d B", count, objects, bytes)
	if objects > 64 || bytes > 215_000 {
		t.Errorf("%d pairs: %d objects and %d B, want <= 64 and <= 215,000", count, objects, bytes)
	}
}

func TestIDWidthMatchesDegree(t *testing.T) {
	g := graph.Star(9) // center degree 8 -> IDs up to 8 -> 4 bits
	pm := NewPortMap(g)
	if pm.IDWidth() != 4 {
		t.Fatalf("IDWidth = %d, want 4", pm.IDWidth())
	}
}

func TestWalkRouteTerminal(t *testing.T) {
	g := graph.Path(4)
	pm := NewPortMap(g)
	links, _ := pm.RouteLinks([]NodeID{0, 1, 2, 3})
	tr, err := WalkRoute(pm, 0, anr.Direct(links))
	if err != nil {
		t.Fatalf("WalkRoute: %v", err)
	}
	if len(tr.Dropped) > 0 {
		t.Fatalf("unexpected drops at %v", tr.Dropped)
	}
	if tr.Hops != 3 {
		t.Fatalf("Hops = %d, want 3", tr.Hops)
	}
	if len(tr.Deliveries) != 1 {
		t.Fatalf("%d deliveries, want 1", len(tr.Deliveries))
	}
	d := tr.Deliveries[0]
	if d.Node != 3 || d.Copy || d.Reverse.HopCount() != 3 {
		t.Fatalf("terminal delivery = %+v", d)
	}
}

func TestWalkRouteCopyPath(t *testing.T) {
	g := graph.Path(4)
	pm := NewPortMap(g)
	links, _ := pm.RouteLinks([]NodeID{0, 1, 2, 3})
	tr, err := WalkRoute(pm, 0, anr.CopyPath(links))
	if err != nil {
		t.Fatalf("WalkRoute: %v", err)
	}
	// Copies at 1 and 2, terminal at 3.
	if len(tr.Deliveries) != 3 {
		t.Fatalf("%d deliveries, want 3", len(tr.Deliveries))
	}
	wantNodes := []NodeID{1, 2, 3}
	wantCopy := []bool{true, true, false}
	wantHops := []int{1, 2, 3}
	for i, d := range tr.Deliveries {
		if d.Node != wantNodes[i] || d.Copy != wantCopy[i] || d.Reverse.HopCount() != wantHops[i] {
			t.Fatalf("delivery %d = %+v, want node %d copy %v hops %d",
				i, d, wantNodes[i], wantCopy[i], wantHops[i])
		}
	}
	// The copy at node 1 keeps the remaining route to 3.
	if got := tr.Deliveries[0].Remaining.HopCount(); got != 1 {
		t.Fatalf("copy at 1 remaining hops = %d, want 1", got)
	}
}

func TestWalkRouteDropDeliversPendingCopy(t *testing.T) {
	g := graph.Path(4)
	pm := NewPortMap(g)
	links, _ := pm.RouteLinks([]NodeID{0, 1, 2, 3})
	// Link 1-2 is dead. The copy at node 1 must still be delivered (the NCU
	// link is always up), then the packet dies.
	live := NewLinks(pm)
	live.Flip(1, 2, false)
	live.Flip(2, 1, false)
	tr := WalkRouteFaults(live, nil, nil, 0, anr.CopyPath(links), nil)
	if len(tr.Dropped) != 1 || tr.Dropped[0] != 1 {
		t.Fatalf("expected drop at node 1, got %+v", tr)
	}
	if len(tr.Deliveries) != 1 || tr.Deliveries[0].Node != 1 || !tr.Deliveries[0].Copy {
		t.Fatalf("expected exactly the copy at node 1, got %+v", tr.Deliveries)
	}
	if tr.Hops != 1 {
		t.Fatalf("Hops = %d, want 1 (only 0-1 traversed)", tr.Hops)
	}
}

func TestWalkRouteLocalDelivery(t *testing.T) {
	g := graph.Path(2)
	pm := NewPortMap(g)
	tr, err := WalkRoute(pm, 1, anr.Local())
	if err != nil {
		t.Fatalf("WalkRoute: %v", err)
	}
	if len(tr.Deliveries) != 1 || tr.Deliveries[0].Node != 1 || tr.Hops != 0 {
		t.Fatalf("local delivery = %+v", tr)
	}
	if tr.Deliveries[0].ArrivedOn != anr.NCU {
		t.Fatal("local delivery must arrive on the NCU port")
	}
}

func TestWalkRouteBadLink(t *testing.T) {
	g := graph.Path(2)
	pm := NewPortMap(g)
	if _, err := WalkRoute(pm, 0, anr.Direct([]anr.ID{7})); err == nil {
		t.Fatal("routing over a nonexistent link must error")
	}
	if _, err := WalkRoute(pm, 0, anr.Header{}); err == nil {
		t.Fatal("empty header must error")
	}
}

// The walk fills one reverse-route buffer per packet, back to front, so what
// a walk allocates does not grow with the route: the buffer, the delivery
// list and nothing per hop.
func TestWalkAllocsFlatInHops(t *testing.T) {
	pm := NewPortMap(graph.Path(257))
	for _, hops := range []int{8, 64, 256} {
		path := make([]NodeID, hops+1)
		for i := range path {
			path[i] = NodeID(i)
		}
		links, _ := pm.RouteLinks(path)
		h := anr.Direct(links)
		allocs := testing.AllocsPerRun(50, func() {
			if tr := WalkRouteFaults(pm.ports, nil, nil, 0, h, nil); tr.Hops != hops {
				t.Fatalf("walk: %d hops, want %d", tr.Hops, hops)
			}
		})
		if allocs > 4 {
			t.Errorf("%d hops: %.0f allocations per walk, want <= 4", hops, allocs)
		}
	}
}

// The goroutine runtime builds its roller closure for every send; a walk that
// made it escape would add an object to each send. The walk may allocate what
// it delivers and nothing for what it was handed: closures over a local cost
// what package functions cost.
func TestWalkLeavesCallersClosuresOnTheStack(t *testing.T) {
	pm := NewPortMap(graph.Path(4))
	links, _ := pm.RouteLinks([]NodeID{0, 1, 2, 3})
	h := anr.CopyPath(links)
	pass := func(NodeID, any) bool { return true }
	keep := func(_ NodeID, pl any) (MsgFault, any, Time) { return faultNone, pl, 0 }
	plain := testing.AllocsPerRun(100, func() {
		if tr := WalkRouteFaults(pm.ports, pass, keep, 0, h, nil); tr.Hops != 3 {
			t.Fatalf("walk: %d hops", tr.Hops)
		}
	})
	captured := testing.AllocsPerRun(100, func() {
		calls := 0
		filter := func(NodeID, any) bool { calls++; return true }
		roll := func(_ NodeID, pl any) (MsgFault, any, Time) { calls++; return faultNone, pl, 0 }
		if tr := WalkRouteFaults(pm.ports, filter, roll, 0, h, nil); tr.Hops != 3 || calls != 5 {
			t.Fatalf("walk: %d hops after %d calls", tr.Hops, calls)
		}
	})
	if captured != plain {
		t.Fatalf("%.0f allocations with closures over a local, %.0f with package functions", captured, plain)
	}
}

// Property: the accumulated reverse route of a terminal delivery leads back
// to the sender, on random trees and random source/destination pairs.
func TestWalkReverseRouteQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.RandomTree(20, seed)
		pm := NewPortMap(g)
		src := NodeID(a % 20)
		dst := NodeID(b % 20)
		if src == dst {
			return true
		}
		path := g.BFSTree(src).PathFromRoot(dst)
		links, err := pm.RouteLinks(path)
		if err != nil {
			return false
		}
		tr, err := WalkRoute(pm, src, anr.Direct(links))
		if err != nil || len(tr.Dropped) > 0 || len(tr.Deliveries) != 1 {
			return false
		}
		// Follow the reverse route from dst: it must terminate at src with
		// the same number of hops.
		back, err := WalkRoute(pm, dst, tr.Deliveries[0].Reverse)
		if err != nil || len(back.Dropped) > 0 || len(back.Deliveries) != 1 {
			return false
		}
		return back.Deliveries[0].Node == src && back.Hops == tr.Hops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a CopyPath over any simple path delivers to exactly the path's
// non-sender nodes, once each.
func TestWalkCopyPathCoverageQuick(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := graph.RandomTree(25, seed)
		pm := NewPortMap(g)
		src := NodeID(a % 25)
		dst := NodeID(b % 25)
		if src == dst {
			return true
		}
		path := g.BFSTree(src).PathFromRoot(dst)
		links, err := pm.RouteLinks(path)
		if err != nil {
			return false
		}
		tr, err := WalkRoute(pm, src, anr.CopyPath(links))
		if err != nil || len(tr.Dropped) > 0 {
			return false
		}
		if len(tr.Deliveries) != len(path)-1 {
			return false
		}
		for i, d := range tr.Deliveries {
			if d.Node != path[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsSyscallsAndAdd(t *testing.T) {
	m := Metrics{Deliveries: 5, Injections: 2, LinkEvents: 1, Hops: 9, FinishTime: 4}
	if m.Syscalls() != 8 {
		t.Fatalf("Syscalls = %d, want 8", m.Syscalls())
	}
	other := Metrics{Deliveries: 1, FinishTime: 9}
	m.Add(other)
	if m.Deliveries != 6 || m.FinishTime != 9 {
		t.Fatalf("Add result = %+v", m)
	}
	if m.String() == "" {
		t.Fatal("String must be non-empty")
	}
}

func TestValidateMulticast(t *testing.T) {
	ok := []anr.Header{
		anr.Direct([]anr.ID{1, 2}),
		anr.Direct([]anr.ID{2}),
		anr.CopyPath([]anr.ID{3, 1}),
	}
	if err := validateMulticast(ok); err != nil {
		t.Fatalf("distinct first links rejected: %v", err)
	}
	dup := []anr.Header{
		anr.Direct([]anr.ID{1, 2}),
		anr.Direct([]anr.ID{1, 3}),
	}
	if err := validateMulticast(dup); !errors.Is(err, ErrMulticastLinks) {
		t.Fatalf("err = %v, want ErrMulticastLinks", err)
	}
	bad := []anr.Header{{}}
	if err := validateMulticast(bad); err == nil {
		t.Fatal("invalid header accepted")
	}
}

// TestValidateMulticastWide: the check is linear in the fan-out and free of
// allocation at the fan-outs protocols use, and names the repeated link
// wherever it sits — also for an ID past the bitset's dense range.
func TestValidateMulticastWide(t *testing.T) {
	wide := make([]anr.Header, 4096)
	for i := range wide {
		wide[i] = anr.Direct([]anr.ID{anr.ID(i + 1)})
	}
	if err := validateMulticast(wide); err != nil {
		t.Fatalf("4096 distinct first links rejected: %v", err)
	}
	for _, repeat := range []anr.ID{1777, multicastDense + 5} {
		wide[100] = anr.Direct([]anr.ID{repeat})
		wide[len(wide)-1] = anr.Direct([]anr.ID{repeat, 9})
		err := validateMulticast(wide)
		if want := fmt.Sprintf("(link %d used twice)", repeat); !errors.Is(err, ErrMulticastLinks) || !strings.Contains(err.Error(), want) {
			t.Fatalf("duplicate in the last position: err = %v, want ErrMulticastLinks %s", err, want)
		}
		wide[100] = anr.Direct([]anr.ID{101})
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := validateMulticast(wide[:16]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("validateMulticast allocates %.1f objects at 16 routes, want 0", allocs)
	}
}

// TestAdmit: the one admission both runtimes call. A refusal leaves the
// metrics alone but for the dmax count; an admitted packet is accounted once.
func TestAdmit(t *testing.T) {
	pm := NewPortMap(graph.Path(4))
	var m Metrics
	for _, tc := range []struct {
		h       anr.Header
		dmax    int
		refused bool
		is      error // the sentinel a refusal wraps, where there is one
	}{
		{anr.Header{}, 0, true, anr.ErrEmptyHeader},
		{anr.Direct([]anr.ID{1, 2, 2}), 2, true, anr.ErrPathTooLong},
		{anr.Direct([]anr.ID{1, 3}), 0, true, nil}, // node 1 has links 1 and 2
		{anr.Direct([]anr.ID{1, 2, 2}), 3, false, nil},
		{anr.Local(), 3, false, nil},
	} {
		err := pm.Admit(&m, 0, tc.h, tc.dmax)
		if (err != nil) != tc.refused || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Fatalf("Admit(%v, dmax %d) = %v, want refused=%v (%v)", tc.h, tc.dmax, err, tc.refused, tc.is)
		}
	}
	bits := int64(pm.IDWidth() + 1)
	if want := (Metrics{DmaxViolations: 1, Packets: 2, HeaderBits: 4*bits + bits, MaxHeaderHops: 3}); m != want {
		t.Fatalf("metrics after two admissions and three refusals\n got %+v\nwant %+v", m, want)
	}
}

// TestMulticastStopsAtFirstRefusal: one Send however many routes, routes
// handed over in order, nothing after the first refusal.
func TestMulticastStopsAtFirstRefusal(t *testing.T) {
	var m Metrics
	var routed []anr.ID
	refuse := errors.New("refused")
	route := func(h anr.Header) error {
		if h[0].Link == 3 {
			return refuse
		}
		routed = append(routed, h[0].Link)
		return nil
	}
	hs := []anr.Header{anr.Direct([]anr.ID{1}), anr.Direct([]anr.ID{2}), anr.Direct([]anr.ID{3}), anr.Direct([]anr.ID{4})}
	if err := Multicast(&m, hs, route); err != refuse || !slices.Equal(routed, []anr.ID{1, 2}) || m.Sends != 1 {
		t.Fatalf("Multicast = %v after routing %v with %d sends", err, routed, m.Sends)
	}
	if err := Multicast(&m, append(hs, hs[0]), route); !errors.Is(err, ErrMulticastLinks) || m.Sends != 1 {
		t.Fatalf("repeated first link: %v, %d sends", err, m.Sends)
	}
	if err := Multicast(&m, nil, route); err != nil || m.Sends != 2 {
		t.Fatalf("no routes: %v, %d sends", err, m.Sends)
	}
}

// TestLinks: the live table starts as the port map's rows, all up; a flip
// writes one end and reports that end's port; rows cannot grow into each
// other; the port map itself never changes.
func TestLinks(t *testing.T) {
	pm := NewPortMap(graph.Star(4))
	links := NewLinks(pm)
	for u := range links {
		if !slices.Equal(links[u], pm.Ports(NodeID(u))) || cap(links[u]) != len(links[u]) {
			t.Fatalf("node %d: row %v (cap %d), want %v clamped", u, links[u], cap(links[u]), pm.Ports(NodeID(u)))
		}
	}
	if port := links.Flip(0, 2, false); port.Remote != 2 || port.Local != 2 || port.Up {
		t.Fatalf("Flip(0, 2, down) reported %+v", port)
	}
	if links.Up(0, 2) || !links.Up(2, 0) || !links.Up(0, 1) {
		t.Fatal("a flip writes exactly one end of one edge")
	}
	if p, ok := links.Toward(0, 2); !ok || p.Up || p.RemoteID != 1 {
		t.Fatalf("Toward(0, 2) = %+v, %v", p, ok)
	}
	if _, ok := links.Toward(1, 2); ok || links.Up(1, 2) {
		t.Fatal("leaves 1 and 2 share no link")
	}
	if links.Flip(0, 2, true); !links.Up(0, 2) || !pm.Ports(0)[1].Up {
		t.Fatal("flip back up; the port map stays static throughout")
	}
}

// TestFaultLedger: every fault is one counter and one trace event of its own
// kind, tagged with the fault's name; no fault is no entry.
func TestFaultLedger(t *testing.T) {
	var m Metrics
	sink := trace.NewSerial(8)
	faults := []MsgFault{faultNone, FaultDrop, FaultDup, FaultCorrupt, FaultJitter, FaultReorder, FaultSlowdown}
	for i, f := range faults {
		f.Count(&m, sink, int64(10+i), NodeID(i), int64(100+i))
	}
	if want := (Metrics{FaultDrops: 1, FaultDups: 1, FaultCorrupts: 1, FaultJitters: 1, FaultReorders: 1, FaultSlowdowns: 1}); m != want {
		t.Fatalf("counters %+v", m)
	}
	kinds := []trace.Kind{trace.KindFaultDrop, trace.KindFaultDup, trace.KindFaultCorrupt, trace.KindFaultJitter, trace.KindFaultReorder, trace.KindFaultSlow}
	evs := sink.Events()
	if len(evs) != len(kinds) {
		t.Fatalf("%d events for %d faults", len(evs), len(kinds))
	}
	for i, ev := range evs {
		f := faults[i+1]
		if want := (trace.Event{Kind: kinds[i], Time: int64(11 + i), Node: NodeID(i + 1), Msg: int64(101 + i), Cause: f.String()}); ev != want {
			t.Errorf("%v recorded as %+v, want %+v", f, ev, want)
		}
	}
	if MsgFault(99).String() != "fault(99)" || MsgFault(-1).String() != "fault(-1)" {
		t.Fatal("an unknown fault still has a name")
	}
}

// TestStepHop: what one switching subsystem does, case by case — ID 0 ends
// at the NCU whatever the filter says; the filter runs in transit only; a
// copy bit and a dead port are reported together, since the copy is made
// before the packet dies.
func TestStepHop(t *testing.T) {
	pm := NewPortMap(graph.Path(3))
	live := NewLinks(pm)
	live.Flip(1, 2, false)
	reject := func(NodeID, any) bool { return false }
	h := anr.Header{{Link: 2, Copy: true}, {Link: 1}, {Link: anr.NCU}}
	for _, tc := range []struct {
		name   string
		i      int
		filter HopFilter
		want   Hop
	}{
		{"terminal", 2, reject, Hop{Kind: HopTerminal}},
		{"filtered-in-transit", 1, reject, Hop{Kind: HopFiltered}},
		{"filter-skips-sender", 0, reject, Hop{Copy: true, Port: live[1][1]}},
		{"copy-then-dead", 0, nil, Hop{Copy: true, Port: Port{Local: 2, Remote: 2, RemoteID: 1}}},
		{"forward", 1, nil, Hop{Port: Port{Local: 1, Remote: 0, RemoteID: 1, Up: true}}},
	} {
		if got := StepHop(live[1], h, tc.i, 1, tc.filter, nil); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestCrossWithinDelayBound: over random profiles, seeds and per-hop delays
// c, no delay Cross returns and no duplicate's JitterDelay exceeds
// DelayBound, the envelope the discrete-event runtime sizes its calendar ring
// by. A fault that delays delays by at least 1 and no other fault delays;
// only a corruption changes the payload. Cross draws what a roll followed by
// the fired fault's own draw does, so a twin stream stepped that way (a
// string payload's corruption draws nothing) stays aligned with it.
func TestCrossWithinDelayBound(t *testing.T) {
	f := func(seed int64, probs [6]uint8, jmax, rwin, smax, factor, c uint8) bool {
		p := func(i int) float64 { return float64(probs[i]%4) / 18 }
		prof := MsgFaults{Drop: p(0), Dup: p(1), Corrupt: p(2), Jitter: p(3), Reorder: p(4), Slowdown: p(5),
			JitterMax: Time(jmax % 10), ReorderWindow: Time(rwin % 10), SlowMax: Time(smax % 10), SlowFactor: float64(factor%8) / 2}
		hw := Time(c % 12)
		bound := prof.DelayBound(hw)
		r, twin := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for range 100 {
			k, pl, delay := prof.Cross(r, hw, "x")
			delays := k == FaultJitter || k == FaultReorder || k == FaultSlowdown
			if delay > bound || delays != (delay > 0) || (k == FaultCorrupt) != (pl == Garbled{}) {
				t.Logf("%+v c=%d: %v delay %d payload %v, bound %d", prof, hw, k, delay, pl, bound)
				return false
			}
			want, wantDelay := prof.Roll(twin), Time(0)
			switch want {
			case FaultJitter, FaultDup:
				wantDelay = prof.JitterDelay(twin)
			case FaultReorder:
				wantDelay = prof.ReorderDelay(twin)
			case FaultSlowdown:
				wantDelay = prof.SlowdownDelay(twin, hw)
			}
			if k == FaultDup {
				delay = prof.JitterDelay(r) // the duplicate's own re-crossing
			}
			if k != want || delay != wantDelay || delay > bound {
				t.Logf("%+v c=%d: %v delay %d, twin stream %v delay %d", prof, hw, k, delay, want, wantDelay)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSlab: every value a slab hands out is distinct and zeroed, a later New
// leaves the earlier values as they were written, and 4096 values cost a
// chunk per 256 once the chunks stop growing.
func TestSlab(t *testing.T) {
	const n = 4096
	type rec struct {
		id   int
		tags []int
	}
	var s Slab[rec]
	vals := make([]*rec, n)
	seen := make(map[*rec]bool, n)
	for i := range vals {
		v := s.New()
		if seen[v] || v.id != 0 || v.tags != nil {
			t.Fatalf("value %d: reused %v, not zeroed: %+v", i, seen[v], *v)
		}
		seen[v] = true
		v.id, v.tags = i+1, []int{i}
		vals[i] = v
	}
	for i, v := range vals {
		if v.id != i+1 || len(v.tags) != 1 || v.tags[0] != i {
			t.Fatalf("value %d overwritten: %+v", i, *v)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		var s Slab[rec]
		for range n {
			s.New()
		}
	})
	if allocs > 25 {
		t.Errorf("%v allocations for %d values, want <= 25", allocs, n)
	}
}

// TestHandlerErrorNamesNodeTimeCause pins the failure line a run a handler
// failed returns (Env.Fail): the node, the time, then the cause, which
// errors.Is reaches through Unwrap.
func TestHandlerErrorNamesNodeTimeCause(t *testing.T) {
	cause := fmt.Errorf("election: tour send: %w", anr.ErrPathTooLong)
	err := error(&HandlerError{Node: 3, Time: 17, Cause: cause})
	if got, want := err.Error(), "node 3 at t=17: "+cause.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(err, anr.ErrPathTooLong) {
		t.Errorf("errors.Is(%v, anr.ErrPathTooLong) = false", err)
	}
}
