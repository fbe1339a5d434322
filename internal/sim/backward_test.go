package sim_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// Backward-RunUntil coverage: the simulated clock only moves forward, so a
// RunUntil whose deadline is behind the clock (any negative deadline
// included) is refused with sim.ErrBackward before either engine is entered.
// A refused call must change nothing a driver can see — clock, metrics,
// scheduler counters, trace — and the run that follows must be
// observable-identical to one made without it. (TestBackwardRunUntilSpill is
// named for the spill of lane and ring into the heap that such a deadline
// used to cause.)

// spillScenario builds the pipelined broadcast the backward tests drive:
// C = 3 with jitter keeps hop events parked in the ring across epoch
// boundaries.
func spillScenario(t *testing.T, extra ...sim.Option) (*sim.Network, *trace.Serial) {
	t.Helper()
	g := graph.GNP(72, 0.07, 11)
	buf := trace.NewSerial(0)
	net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		append([]sim.Option{sim.WithDelays(3, 1), sim.WithSeed(5), sim.WithTrace(buf),
			sim.WithMsgFaults(core.MsgFaults{Jitter: 0.2, JitterMax: 10})}, extra...)...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u += 6 {
		net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
		net.Inject(core.Time(u%7), core.NodeID(u), topology.Trigger{})
	}
	return net, buf
}

// refuseBackward asks net to run to each deadline, every one behind its
// clock, and fails t unless each call returns ErrBackward naming the
// deadline and the clock, with nothing the driver can observe changed.
func refuseBackward(t *testing.T, net *sim.Network, buf *trace.Serial, deadlines ...core.Time) {
	t.Helper()
	now, metrics, sched, events := net.Now(), net.Metrics(), net.SchedStats(), len(buf.Events())
	for _, d := range deadlines {
		_, err := net.RunUntil(d)
		if !errors.Is(err, sim.ErrBackward) {
			t.Fatalf("RunUntil(%d) with the clock at %d: err %v, want sim.ErrBackward", d, now, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(d)) || !strings.Contains(msg, fmt.Sprint(now)) {
			t.Errorf("error %q names neither the deadline %d nor the clock %d", msg, d, now)
		}
	}
	if net.Now() != now || net.Metrics() != metrics || net.SchedStats() != sched || len(buf.Events()) != events {
		t.Fatalf("a refused RunUntil changed the network: clock %d -> %d, metrics %+v -> %+v, sched %v -> %v, trace %d -> %d events",
			now, net.Now(), metrics, net.Metrics(), sched, net.SchedStats(), events, len(buf.Events()))
	}
}

// runWithBackwardCall runs into the thick of the broadcast — a non-empty
// same-time lane and a ring with several slots pending — then, with back
// set, asks for deadlines behind the clock before it drains; with back unset
// it drains from the same point directly, the reference the refused calls
// must not differ from.
func runWithBackwardCall(t *testing.T, back bool, extra ...sim.Option) lossyRun {
	t.Helper()
	net, buf := spillScenario(t, extra...)
	if _, err := net.RunUntil(9); err != nil {
		t.Fatal(err)
	}
	net.Inject(net.Now(), 3, topology.Trigger{})
	if back {
		refuseBackward(t, net, buf, net.Now()-1, 2, 0, -1, -3)
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return observed(buf, net, finish)
}

func runStraight(t *testing.T, extra ...sim.Option) lossyRun {
	t.Helper()
	net, buf := spillScenario(t, extra...)
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return observed(buf, net, finish)
}

// TestBackwardRunUntilSpill refuses backward deadlines mid-run under the
// classic scheduler, the shard-mode serial reference, two and eight shards,
// and non-default ring windows — tiny (4 slots, rounded up to the 64-slot
// minimum) and fixed historical 64.
func TestBackwardRunUntilSpill(t *testing.T) {
	cases := map[string][]sim.Option{
		"classic":        nil,
		"classic-ring4":  {sim.WithFixedRing(4)},
		"classic-ring64": {sim.WithFixedRing(64)},
		"shard-serial":   {sim.WithShards(1)},
		"shard-ring4":    {sim.WithShards(1), sim.WithFixedRing(4)},
		"shard-2":        {sim.WithShards(2)},
		"shard-8":        {sim.WithShards(8)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			refused := runWithBackwardCall(t, true, opts...)
			straight := runWithBackwardCall(t, false, opts...)
			requireEqualRuns(t, refused, straight)
		})
	}
}

// TestRunUntilNegativeDeadlineRefused: a negative deadline is a deadline
// behind the clock, not "no deadline". Ten injections wait at t = 5..14; a
// RunUntil(-3) delivers none of them and leaves the clock at 0, and the Run
// after it delivers all ten.
func TestRunUntilNegativeDeadlineRefused(t *testing.T) {
	for name, opts := range map[string][]sim.Option{
		"classic":  nil,
		"shards-1": {sim.WithShards(1)},
		"shards-2": {sim.WithShards(2)},
	} {
		t.Run(name, func(t *testing.T) {
			buf := trace.NewSerial(0)
			net := sim.New(graph.Ring(8), func(core.NodeID) core.Protocol { return &sink{} },
				append([]sim.Option{sim.WithDelays(1, 1), sim.WithTrace(buf)}, opts...)...)
			for i := 0; i < 10; i++ {
				net.Inject(core.Time(5+i), core.NodeID(i%8), i)
			}
			refuseBackward(t, net, buf, -3)
			if net.Now() != 0 || net.Metrics().Injections != 0 {
				t.Fatalf("after RunUntil(-3): clock %d, %d injections delivered; want 0 and 0", net.Now(), net.Metrics().Injections)
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
			if got := net.Metrics().Injections; got != 10 || net.Now() != 15 {
				t.Fatalf("Run after the refused call: %d injections, clock %d; want 10 at 15", got, net.Now())
			}
		})
	}
}

// sink is a protocol that takes what it is given and sends nothing.
type sink struct{}

func (*sink) Init(core.Env)                 {}
func (*sink) Deliver(core.Env, core.Packet) {}
func (*sink) LinkEvent(core.Env, core.Port) {}

// TestForwardCutKeepsRing pins the forward-RunUntil contract: stopping the
// clock at a deadline before pending ring instants must not disturb them (the
// next run promotes them from the ring), and chopping a run into epochs
// must be observable-identical to one Run.
func TestForwardCutKeepsRing(t *testing.T) {
	for _, opts := range [][]sim.Option{nil, {sim.WithShards(1)}} {
		name := "classic"
		if len(opts) > 0 {
			name = "shard-serial"
		}
		t.Run(name, func(t *testing.T) {
			straight := runStraight(t, opts...)
			net, buf := spillScenario(t, opts...)
			// Chop the run into 2-tick epochs: every RunUntil cuts forward
			// with hop events still parked in the ring (C = 3 > epoch width).
			for d := core.Time(0); d <= straight.finish; d += 2 {
				if _, err := net.RunUntil(d); err != nil {
					t.Fatal(err)
				}
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			epoched := observed(buf, net, finish)
			requireEqualRuns(t, epoched, straight)
		})
	}
}

// TestBackwardRunUntilHeapResidue: a far injection past the ring's window
// waits in the overflow heap when a backward deadline is refused, and
// dispatches at the instant it would have without the call.
func TestBackwardRunUntilHeapResidue(t *testing.T) {
	const far = 500
	build := func() (*sim.Network, *trace.Serial) {
		g := graph.RandomTree(16, 3)
		buf := trace.NewSerial(0)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
			sim.WithDelays(1, 1), sim.WithFixedRing(64), sim.WithTrace(buf))
		for u := 0; u < g.N(); u++ {
			net.Inject(core.Time(u), core.NodeID(u), topology.Trigger{})
		}
		net.Inject(far, 5, topology.Trigger{})
		return net, buf
	}
	refused, buf := build()
	if _, err := refused.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if s := refused.SchedStats(); s.HeapPushes != 1 {
		t.Fatalf("%d heap pushes before the refused call, want 1: the far injection alone", s.HeapPushes)
	}
	refuseBackward(t, refused, buf, 0)
	finish, err := refused.Run()
	if err != nil {
		t.Fatal(err)
	}
	straight, straightBuf := build()
	straightFinish, err := straight.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualRuns(t, observed(buf, refused, finish), observed(straightBuf, straight, straightFinish))
	// The injection arrives at far and its activation ends one P later.
	if !slices.ContainsFunc(buf.Events(), func(e trace.Event) bool {
		return e.Kind == trace.KindInject && e.Node == 5 && e.Time == far+1
	}) {
		t.Errorf("no injection activation at node 5 at t = %d", far+1)
	}
}
