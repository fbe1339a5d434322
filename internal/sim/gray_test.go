package sim

import (
	"reflect"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

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

// TestSlowdownNeverFusesCutThrough: with zero hardware delay, cut-through
// fuses whole hop chains into one event — but a slowed hop inflates by at
// least one time unit, so the slowdown is visible in virtual time even on a
// zero-delay fabric.
func TestSlowdownNeverFusesCutThrough(t *testing.T) {
	g := graph.Path(3)
	var col *collectProto
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &collectProto{id: id}
		if id == 2 {
			col = p
		}
		return p
	}, WithDelays(0, 1), WithSeed(1), WithMsgFaults(core.MsgFaults{Slowdown: 1}))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[0].proto = &pingProto{route: anr.Direct(links)}
	net.Inject(0, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(col.got))
	}
	m := net.Metrics()
	if m.FaultSlowdowns != 2 {
		t.Fatalf("FaultSlowdowns = %d, want 2 (one per hop)", m.FaultSlowdowns)
	}
	// Two slowed hops at >= 1 extra each, on a route whose fault-free travel
	// time is the software delays alone.
	if col.ats[0] < 2 {
		t.Fatalf("arrival at %d; slowdown extras were fused away", col.ats[0])
	}
	// The reference engine, which has no walk to fuse, lands the packet at
	// the same instant with the same counters.
	var refCol *collectProto
	ref := NewReference(g, func(id core.NodeID) core.Protocol {
		p := &collectProto{id: id}
		if id == 2 {
			refCol = p
		}
		return p
	}, WithDelays(0, 1), WithSeed(1), WithMsgFaults(core.MsgFaults{Slowdown: 1}))
	ref.nodes[0].proto = &pingProto{route: anr.Direct(links)}
	ref.Inject(0, 0, "go")
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if ref.Metrics() != m || !reflect.DeepEqual(refCol.ats, col.ats) {
		t.Fatalf("reference engine: arrivals %v, %v; production: %v, %v", refCol.ats, ref.Metrics(), col.ats, m)
	}
}

// TestStallNodeInflatesSoftwareDelay: activations inside the stall window pay
// the surcharge (accounted in StallTicks); after the window the node is back
// to its configured speed.
func TestStallNodeInflatesSoftwareDelay(t *testing.T) {
	g := graph.Path(2)
	var col *collectProto
	net := New(g, func(id core.NodeID) core.Protocol {
		p := &collectProto{id: id}
		if id == 1 {
			col = p
		}
		return p
	}, WithDelays(1, 1), WithSeed(1))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	net.nodes[0].proto = &pingProto{route: anr.Direct(links)}
	net.StallNode(1, 10, 7)
	net.Inject(0, 0, "go")
	// A second round after the stall window has expired.
	net.Inject(20, 0, "go")
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if len(col.ats) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(col.ats))
	}
	// Stalled delivery: sw(0)=1 + hw=1 + sw(1)=1+7 -> t=10.
	// Healed delivery: injected at 20 -> t=23.
	if col.ats[0] != 10 || col.ats[1] != 23 {
		t.Fatalf("arrivals = %v, want [10 23]", col.ats)
	}
	if got := net.Metrics().StallTicks; got != 7 {
		t.Fatalf("StallTicks = %d, want 7 (one stalled activation)", got)
	}
}

// TestGrayDeterministicPerSeed extends the lossy determinism contract to the
// gray dimensions: slowdown faults and node stalls are pure functions of the
// seed — identical traces and metrics across reruns.
func TestGrayDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]trace.Event, core.Metrics) {
		g := graph.Ring(8)
		buf := trace.NewBuffer()
		net := New(g, func(id core.NodeID) core.Protocol {
			return &forwarder{}
		}, WithDelays(4, 6), WithRandomDelays(), WithSeed(seed), WithTrace(buf),
			WithMsgFaults(core.MsgFaults{Drop: 0.05, Jitter: 0.1, JitterMax: 9, Slowdown: 0.3, SlowFactor: 3, SlowMax: 8}))
		net.StallNode(1, 200, 5)
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
	if mA.FaultSlowdowns == 0 || mA.StallTicks == 0 {
		t.Fatalf("gray dimensions never fired: %s", mA)
	}
	evC, mC := run(8)
	if reflect.DeepEqual(evA, evC) && mA == mC {
		t.Fatal("different seeds produced identical gray runs")
	}
}
