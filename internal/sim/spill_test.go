package sim_test

import (
	"fmt"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// Backward-RunUntil coverage: a RunUntil whose deadline is behind the clock
// spills the same-time lane, the shard-mode stage, and every pending
// calendar-ring slot into the heap (spine.rewind), then moves the clock back.
// The heap's (t, seq) order must reproduce the spilled entries' dispatch
// positions exactly once the clock catches up again, so an epoch-driven run
// with a backward jump must be observable-identical to the same run without
// it.

// spillScenario builds the pipelined broadcast used by the spill tests:
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

// runToSpillPoint runs into the thick of the broadcast and injects one more
// trigger at the current instant, so what a backward jump would spill is a
// non-empty same-time lane and a ring whose fullest slot spans several
// chunks.
func runToSpillPoint(t *testing.T, net *sim.Network) {
	t.Helper()
	if _, err := net.RunUntil(9); err != nil {
		t.Fatal(err)
	}
	net.Inject(net.Now(), 3, topology.Trigger{})
	if lane, slot := net.SpineShape(); lane == 0 || slot <= 2*16 {
		t.Fatalf("at the spill point the lane holds %d events and the fullest ring slot %d; want a non-empty lane and a slot of three 16-entry chunks", lane, slot)
	}
}

// runWithBackwardJump stops at the spill point, jumps the clock backward
// (spilling lane + ring to the heap), then drains; with jump false it drains
// from the spill point directly — the reference the jump must not differ from.
func runWithBackwardJump(t *testing.T, jump bool, extra ...sim.Option) lossyRun {
	t.Helper()
	net, buf := spillScenario(t, extra...)
	runToSpillPoint(t, net)
	if jump {
		if _, err := net.RunUntil(2); err != nil {
			t.Fatal(err)
		}
		if got := net.Now(); got != 2 {
			t.Fatalf("clock after backward RunUntil = %d, want 2", got)
		}
		if lane, slot := net.SpineShape(); lane != 0 || slot != 0 {
			t.Fatalf("after the spill the lane holds %d events and a ring slot %d; want both empty", lane, slot)
		}
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

// TestBackwardRunUntilSpill drives the spill path under the classic
// scheduler, the shard-mode serial reference (whose stage and per-shard ring
// spill through the same rewind), two shards (every child rewinds with the
// facade's clock), and non-default ring windows — tiny (4 slots, so the
// scenario also overflows to the heap organically) and fixed historical 64.
func TestBackwardRunUntilSpill(t *testing.T) {
	cases := map[string][]sim.Option{
		"classic":        nil,
		"classic-ring4":  {sim.WithFixedRing(4)},
		"classic-ring64": {sim.WithFixedRing(64)},
		"shard-serial":   {sim.WithShards(1)},
		"shard-ring4":    {sim.WithShards(1), sim.WithFixedRing(4)},
		"shard-2":        {sim.WithShards(2)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			jumped := runWithBackwardJump(t, true, opts...)
			straight := runWithBackwardJump(t, false, opts...)
			requireEqualRuns(t, jumped, straight)
		})
	}
}

// TestForwardCutKeepsRing pins the forward-RunUntil contract: stopping the
// clock at a deadline before pending ring instants must not spill them (the
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

// TestBackwardRunUntilHeapResidue pins the entry spill when the heap — not
// just the ring — holds the pending work: far-future injections past any
// ring window must survive a backward jump untouched.
func TestBackwardRunUntilHeapResidue(t *testing.T) {
	build := func() *sim.Network {
		g := graph.RandomTree(16, 3)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
			sim.WithDelays(1, 1), sim.WithFixedRing(4))
		for u := 0; u < g.N(); u++ {
			// Injections straddling the 4-slot window: some ring, some heap.
			net.Inject(core.Time(u), core.NodeID(u%g.N()), topology.Trigger{})
		}
		return net
	}
	jumped := build()
	if _, err := jumped.RunUntil(6); err != nil {
		t.Fatal(err)
	}
	if _, err := jumped.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if _, err := jumped.Run(); err != nil {
		t.Fatal(err)
	}
	straight := build()
	if _, err := straight.Run(); err != nil {
		t.Fatal(err)
	}
	if jumped.Metrics() != straight.Metrics() {
		t.Errorf("metrics diverged\n  jumped   %+v\n  straight %+v", jumped.Metrics(), straight.Metrics())
	}
	if fmt.Sprint(jumped.DeliveriesPerNode()) != fmt.Sprint(straight.DeliveriesPerNode()) {
		t.Error("deliveries diverged after backward jump over heap residue")
	}
}
