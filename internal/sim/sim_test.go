package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// pingProto sends a fixed route on an injected "go" and echoes a reply over
// the reverse route when it receives "ping".
type pingProto struct {
	id      core.NodeID
	route   anr.Header
	gotPing bool
	gotPong bool
	pingAt  core.Time
}

func (p *pingProto) Init(core.Env) {}

func (p *pingProto) Deliver(env core.Env, pkt core.Packet) {
	switch pkt.Payload {
	case "go":
		if err := env.Send(p.route, "ping"); err != nil {
			panic(err)
		}
	case "ping":
		p.gotPing = true
		p.pingAt = env.Now()
		if err := env.Send(pkt.Reverse, "pong"); err != nil {
			panic(err)
		}
	case "pong":
		p.gotPong = true
	}
}

func (p *pingProto) LinkEvent(core.Env, core.Port) {}

// collectProto records every payload it receives.
type collectProto struct {
	id   core.NodeID
	got  []any
	ats  []core.Time
	rems []anr.Header
}

func (p *collectProto) Init(core.Env) {}

func (p *collectProto) Deliver(env core.Env, pkt core.Packet) {
	p.got = append(p.got, pkt.Payload)
	p.ats = append(p.ats, env.Now())
	p.rems = append(p.rems, pkt.Remaining)
}

func (p *collectProto) LinkEvent(core.Env, core.Port) {}

// linkWatcher records link events.
type linkWatcher struct {
	events []core.Port
}

func (p *linkWatcher) Init(core.Env)                 {}
func (p *linkWatcher) Deliver(core.Env, core.Packet) {}
func (p *linkWatcher) LinkEvent(_ core.Env, pt core.Port) {
	p.events = append(p.events, pt)
}

func TestPingPongTiming(t *testing.T) {
	// Path 0-1-2. Node 0 pings node 2 (2 hops). C=2, P=3.
	g := graph.Path(3)
	protos := make([]*pingProto, 3)
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &pingProto{id: id}
		protos[id] = p
		return p
	}, WithDelays(2, 3))
	pm := net.PortMap()
	links, err := pm.RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	protos[0].route = anr.Direct(links)

	net.Inject(0, 0, "go")
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !protos[2].gotPing {
		t.Fatal("node 2 never received ping")
	}
	if !protos[0].gotPong {
		t.Fatal("node 0 never received pong")
	}
	// Timeline: inject processed at t=3 (P), ping departs 3, 2 hops of C=2
	// arrive t=7, processed at t=10; pong departs 10, arrives 14, processed
	// at t=17.
	if protos[2].pingAt != 10 {
		t.Fatalf("ping processed at %d, want 10", protos[2].pingAt)
	}
	if finish != 17 {
		t.Fatalf("finish = %d, want 17", finish)
	}
	m := net.Metrics()
	if m.Hops != 4 {
		t.Fatalf("Hops = %d, want 4", m.Hops)
	}
	if m.Deliveries != 2 || m.Injections != 1 {
		t.Fatalf("Deliveries=%d Injections=%d, want 2,1", m.Deliveries, m.Injections)
	}
}

func TestCopyPathBroadcastTiming(t *testing.T) {
	// Path 0-1-2-3, C=0, P=1. A single CopyPath packet from 0 reaches 1,2,3
	// all at t=1 and they all finish processing at t=2.
	g := graph.Path(4)
	protos := make([]*collectProto, 4)
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &collectProto{id: id}
		protos[id] = p
		return p
	}, WithDelays(0, 1))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the send from node 0's injected activation.
	driver := &pingProto{route: anr.CopyPath(links)}
	net.nodes[0].proto = driver

	net.Inject(0, 0, "go")
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if len(protos[v].got) != 1 || protos[v].got[0] != "ping" {
			t.Fatalf("node %d got %v, want one ping", v, protos[v].got)
		}
		if protos[v].ats[0] != 2 {
			t.Fatalf("node %d processed at %d, want 2", v, protos[v].ats[0])
		}
	}
	if finish != 2 {
		t.Fatalf("finish = %d, want 2", finish)
	}
	m := net.Metrics()
	if m.Deliveries != 3 || m.CopyDeliveries != 2 {
		t.Fatalf("Deliveries=%d CopyDeliveries=%d, want 3,2", m.Deliveries, m.CopyDeliveries)
	}
	if m.Hops != 3 {
		t.Fatalf("Hops = %d, want 3", m.Hops)
	}
	if m.Packets != 1 || m.Sends != 1 {
		t.Fatalf("Packets=%d Sends=%d, want 1,1", m.Packets, m.Sends)
	}
	// The copy at node 1 is made while consuming node 1's own forwarding
	// hop, so the remaining route is the single hop 2->3.
	if got := protos[1].rems[0].HopCount(); got != 1 {
		t.Fatalf("node 1 remaining hops = %d, want 1 (2 to 3)", got)
	}
}

func TestNCUSerialization(t *testing.T) {
	// Star with center 0 and three leaves. All leaves message the center at
	// once; with P=1 the center's activations must complete at 2, 3, 4.
	g := graph.Star(4)
	var center *collectProto
	net := New(g, func(id core.NodeID) core.Protocol {
		if id == 0 {
			center = &collectProto{id: id}
			return center
		}
		return &pingProto{id: id, route: anr.Direct([]anr.ID{1})}
	}, WithDelays(0, 1))
	for v := core.NodeID(1); v <= 3; v++ {
		net.Inject(0, v, "go")
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(center.got) != 3 {
		t.Fatalf("center got %d messages, want 3", len(center.got))
	}
	want := []core.Time{2, 3, 4}
	for i, at := range center.ats {
		if at != want[i] {
			t.Fatalf("activation %d at %d, want %d", i, at, want[i])
		}
	}
	if finish != 4 {
		t.Fatalf("finish = %d, want 4", finish)
	}
}

func TestMulticastSingleSend(t *testing.T) {
	// Star center multicasts to all three leaves in one activation: one
	// send, three packets.
	g := graph.Star(4)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 1))
	hs := []anr.Header{
		anr.Direct([]anr.ID{1}),
		anr.Direct([]anr.ID{2}),
		anr.Direct([]anr.ID{3}),
	}
	mc := &multicastOnGo{routes: hs}
	net.nodes[0].proto = mc
	net.Inject(0, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	m := net.Metrics()
	if m.Sends != 1 {
		t.Fatalf("Sends = %d, want 1 (free multicast)", m.Sends)
	}
	if m.Packets != 3 || m.Deliveries != 3 {
		t.Fatalf("Packets=%d Deliveries=%d, want 3,3", m.Packets, m.Deliveries)
	}
}

type multicastOnGo struct {
	routes []anr.Header
}

func (p *multicastOnGo) Init(core.Env) {}
func (p *multicastOnGo) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		if err := env.Multicast(p.routes, "data"); err != nil {
			panic(err)
		}
	}
}
func (p *multicastOnGo) LinkEvent(core.Env, core.Port) {}

func TestLinkFailureDropsInFlight(t *testing.T) {
	// Path 0-1-2 with C=5. The packet departs at t=1; link 1-2 dies at t=3
	// while the packet is on link 0-1 (arrives node 1 at t=6), so the second
	// hop must drop it.
	g := graph.Path(3)
	protos := make([]*collectProto, 3)
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &collectProto{id: id}
		protos[id] = p
		return p
	}, WithDelays(5, 1))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[0].proto = &pingProto{route: anr.Direct(links)}
	net.Inject(0, 0, "go")
	net.SetLink(3, 1, 2, false)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(protos[2].got) != 0 {
		t.Fatalf("node 2 got %v, want nothing (in-flight drop)", protos[2].got)
	}
	m := net.Metrics()
	if m.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", m.Drops)
	}
	if m.Hops != 1 {
		t.Fatalf("Hops = %d, want 1", m.Hops)
	}
}

func TestLinkEventNotification(t *testing.T) {
	g := graph.Path(2)
	watchers := make([]*linkWatcher, 2)
	net := New(g, func(id core.NodeID) core.Protocol {
		w := &linkWatcher{}
		watchers[id] = w
		return w
	}, WithDelays(0, 1))
	net.SetLink(5, 0, 1, false)
	net.SetLink(9, 0, 1, true)
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for v, w := range watchers {
		if len(w.events) != 2 {
			t.Fatalf("node %d saw %d link events, want 2", v, len(w.events))
		}
		if w.events[0].Up || !w.events[1].Up {
			t.Fatalf("node %d events = %+v, want down then up", v, w.events)
		}
	}
	if net.Metrics().LinkEvents != 4 {
		t.Fatalf("LinkEvents = %d, want 4", net.Metrics().LinkEvents)
	}
	if !net.LinkUp(0, 1) {
		t.Fatal("link must be up at the end")
	}
}

func TestDmaxEnforced(t *testing.T) {
	g := graph.Path(5)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 1), WithDmax(2))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sender := &errCapture{route: anr.Direct(links)}
	net.nodes[0].proto = sender
	net.Inject(0, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sender.err, anr.ErrPathTooLong) {
		t.Fatalf("send error = %v, want ErrPathTooLong", sender.err)
	}
	if net.Metrics().DmaxViolations != 1 {
		t.Fatalf("DmaxViolations = %d, want 1", net.Metrics().DmaxViolations)
	}
}

type errCapture struct {
	route anr.Header
	err   error
}

func (p *errCapture) Init(core.Env) {}
func (p *errCapture) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Payload == "go" {
		p.err = env.Send(p.route, "data")
	}
}
func (p *errCapture) LinkEvent(core.Env, core.Port) {}

func TestRandomDelaysDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) core.Metrics {
		g := graph.Ring(8)
		net := New(g, func(id core.NodeID) core.Protocol {
			return &forwarder{}
		}, WithDelays(4, 6), WithRandomDelays(), WithSeed(seed))
		net.Inject(0, 0, 20) // forward a counter 20 times around the ring
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return net.Metrics()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed produced different metrics:\n%v\n%v", a, b)
	}
	c := run(8)
	if a.FinishTime == c.FinishTime {
		t.Log("different seeds produced equal finish times (possible but unusual)")
	}
}

// forwarder passes a decrementing counter to its first port.
type forwarder struct{}

func (p *forwarder) Init(core.Env) {}
func (p *forwarder) Deliver(env core.Env, pkt core.Packet) {
	n, ok := pkt.Payload.(int)
	if !ok || n <= 0 {
		return
	}
	if err := env.Send(anr.Direct([]anr.ID{env.Ports()[0].Local}), n-1); err != nil {
		panic(err)
	}
}
func (p *forwarder) LinkEvent(core.Env, core.Port) {}

func TestEventBudget(t *testing.T) {
	// Two nodes bouncing a message forever must trip the budget.
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &bouncer{}
	}, WithDelays(0, 1), WithEventBudget(1000))
	net.Inject(0, 0, "go")
	if _, err := net.Run(); !errors.Is(err, ErrEventBudget) {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
}

type bouncer struct{}

func (p *bouncer) Init(core.Env) {}
func (p *bouncer) Deliver(env core.Env, pkt core.Packet) {
	if err := env.Send(anr.Direct([]anr.ID{env.Ports()[0].Local}), "x"); err != nil {
		panic(err)
	}
}
func (p *bouncer) LinkEvent(core.Env, core.Port) {}

func TestRunUntil(t *testing.T) {
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 1))
	net.Inject(10, 0, "late")
	if _, err := net.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	if net.Metrics().Injections != 0 {
		t.Fatal("event after the deadline must not run")
	}
	if net.Now() != 5 {
		t.Fatalf("Now = %d, want 5", net.Now())
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Metrics().Injections != 1 {
		t.Fatal("queued event must run after deadline lifted")
	}
}

func TestTraceEvents(t *testing.T) {
	g := graph.Path(3)
	buf := trace.NewBuffer()
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 1), WithTrace(buf))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[0].proto = &pingProto{route: anr.Direct(links)}
	net.Inject(0, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	var kinds []trace.Kind
	for _, e := range buf.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []trace.Kind{trace.KindInject, trace.KindSend, trace.KindDeliver}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
	// The send must be attributed to the injecting activation.
	evs := buf.Events()
	if evs[1].Act != evs[0].Act {
		t.Fatalf("send act %d != inject act %d", evs[1].Act, evs[0].Act)
	}
	if evs[2].Msg != evs[1].Msg {
		t.Fatalf("deliver msg %d != send msg %d", evs[2].Msg, evs[1].Msg)
	}
}

func TestDeliveriesPerNode(t *testing.T) {
	g := graph.Path(4)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 1))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[0].proto = &pingProto{route: anr.CopyPath(links)}
	net.Inject(0, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	got := net.DeliveriesPerNode()
	want := []int64{0, 1, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DeliveriesPerNode = %v, want %v", got, want)
		}
	}
}

// TestSetLinkOnNonEdgePanics reaches SetLink's precondition: a driver
// scripting an edge its graph lacks, directly or through InjectLink.
func TestSetLinkOnNonEdgePanics(t *testing.T) {
	net := New(graph.Path(3), func(core.NodeID) core.Protocol { return &forwarder{} })
	for _, script := range []func(){
		func() { net.SetLink(1, 0, 2, false) },
		func() { net.InjectLink(2, 0, true) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "non-edge") {
					t.Errorf("panic %q, want one naming the non-edge", msg)
				}
			}()
			script()
		}()
	}
}
