package sim

import (
	"errors"
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

// TestMsgFaultsSlowdownDelaysButDelivers: Slowdown=1 inflates every traversal
// but loses nothing — the packet arrives exactly once, strictly later than a
// fault-free run, with the counter and cause-tagged trace event recorded.
func TestMsgFaultsSlowdownDelaysButDelivers(t *testing.T) {
	run := func(f core.MsgFaults) (arrival core.Time, m core.Metrics, evs []trace.Event) {
		g := graph.Path(2)
		buf := trace.NewBuffer()
		var col *collectProto
		net := New(g, func(id core.NodeID) core.Protocol {
			p := &collectProto{id: id}
			if id == 1 {
				col = p
			}
			return p
		}, WithDelays(2, 1), WithSeed(3), WithTrace(buf), WithMsgFaults(f))
		links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		net.nodes[0].proto = &pingProto{route: anr.Direct(links)}
		net.Inject(0, 0, "go")
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
		if len(col.got) != 1 {
			t.Fatalf("got %d deliveries, want exactly 1", len(col.got))
		}
		return col.ats[0], net.Metrics(), buf.Events()
	}
	base, _, _ := run(core.MsgFaults{})
	slow, m, evs := run(core.MsgFaults{Slowdown: 1, SlowFactor: 3, SlowMax: 4})
	if slow <= base {
		t.Fatalf("slowdown did not delay delivery: %d <= %d", slow, base)
	}
	if m.FaultSlowdowns != 1 {
		t.Fatalf("FaultSlowdowns = %d, want 1", m.FaultSlowdowns)
	}
	if m.FaultDrops+m.FaultDups+m.FaultCorrupts != 0 {
		t.Fatalf("slowdown leaked into other fault kinds: %s", m)
	}
	found := false
	for _, e := range evs {
		if e.Kind == trace.KindFaultSlow {
			found = true
			if e.Cause != "slow" {
				t.Fatalf("fault event = %+v, want cause=slow", e)
			}
		}
	}
	if !found {
		t.Fatal("no KindFaultSlow event recorded")
	}
}
