package sim

import (
	"errors"
	"reflect"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// pingProto sends a fixed route on an injected "go" and echoes a reply over
// the reverse route when it receives "ping".
type pingProto struct {
	id    core.NodeID
	route anr.Header
}

func (p *pingProto) Init(core.Env) {}

func (p *pingProto) Deliver(env core.Env, pkt core.Packet) {
	switch pkt.Payload {
	case "go":
		if err := env.Send(p.route, "ping"); err != nil {
			panic(err)
		}
	case "ping":
		if err := env.Send(pkt.Reverse, "pong"); err != nil {
			panic(err)
		}
	}
}

func (p *pingProto) LinkEvent(core.Env, core.Port) {}

// collectProto records every payload it receives.
type collectProto struct {
	id  core.NodeID
	got []any
	ats []core.Time
}

func (p *collectProto) Init(core.Env) {}

func (p *collectProto) Deliver(env core.Env, pkt core.Packet) {
	p.got = append(p.got, pkt.Payload)
	p.ats = append(p.ats, env.Now())
}

func (p *collectProto) LinkEvent(core.Env, core.Port) {}

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

func TestBusyTimeTracksActivations(t *testing.T) {
	g := graph.Path(2)
	net := New(g, func(id core.NodeID) core.Protocol {
		return &collectProto{id: id}
	}, WithDelays(0, 4))
	net.Inject(0, 0, "a")
	net.Inject(0, 0, "b")
	net.Inject(0, 1, "c")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	busy := net.BusyTimePerNode()
	if busy[0] != 8 || busy[1] != 4 {
		t.Fatalf("busy = %v, want [8 4]", busy)
	}
}

// TestMsgFaultsDeterministicPerSeed is the acceptance check for the lossy-link
// model on the DES runtime: with message faults enabled, the run must remain a
// pure function of the seed — identical trace and identical metrics across two
// runs, including the fault events themselves.
func TestMsgFaultsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]trace.Event, core.Metrics) {
		g := graph.Ring(8)
		buf := trace.NewBuffer()
		net := New(g, func(id core.NodeID) core.Protocol {
			return &forwarder{}
		}, WithDelays(4, 6), WithRandomDelays(), WithSeed(seed), WithTrace(buf),
			WithMsgFaults(core.MsgFaults{Drop: 0.1, Dup: 0.1, Corrupt: 0.1, Jitter: 0.1, JitterMax: 9}))
		net.Inject(0, 0, 40)
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		return buf.Events(), net.Metrics()
	}
	evA, mA := run(7)
	evB, mB := run(7)
	if mA != mB {
		t.Fatalf("same seed produced different metrics:\n%v\n%v", mA, mB)
	}
	if !reflect.DeepEqual(evA, evB) {
		t.Fatalf("same seed produced different traces (%d vs %d events)", len(evA), len(evB))
	}
	if mA.FaultDrops+mA.FaultDups+mA.FaultCorrupts+mA.FaultJitters == 0 {
		t.Fatal("fault profile never fired; test exercises nothing")
	}
	evC, mC := run(8)
	if reflect.DeepEqual(evA, evC) && mA == mC {
		t.Fatal("different seeds produced identical runs; fault stream not seeded")
	}
}
