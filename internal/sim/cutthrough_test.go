package sim_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// The tests in this file hold production's cut-through walk to the model's
// semantics. At C = 0 a hardware hop takes no time, so a packet's walk is one
// depth-first descent inside the event that sent it; production executes it as
// a loop over pooled buffers, the reference engine (reference_test.go) as a
// naive recursion over a plain heap with a fresh reverse route per hop. The two
// share no scheduler, no buffer and no dispatch code, and the classic side of
// the table holds them to every observable — the full trace stream, metrics,
// clock, errors, and the per-node delivery and busy vectors. (The names date
// from when the second leg was production's own walk with one scheduler event
// per hop.)

// TestCutThroughDifferential runs every golden row — exact C = 0 (the
// fusion-heavy regime), randomized C > 0 (no hop is ever inline; the ring and
// the reference's heap must dispatch the same order), lossy links with flaps,
// and a multi-starter election — on the classic side of the table.
func TestCutThroughDifferential(t *testing.T) {
	for _, s := range goldenRows() {
		table(t, s, classicSide...)
	}
}

// lossyBranching is the fusion-heavy row: branching-path broadcasts over a
// zero-hardware-delay tree, every node preloaded, so fused segments see every
// fault class the profile enables mid-walk.
func lossyBranching(seed int64, faults core.MsgFaults) scenario {
	return scenario{name: "lossy-branching", graph: graphSpec{family: tree, n: 96, seed: seed}, mode: topology.ModeBranching, preload: 1,
		c: 0, p: 1, seed: seed, dmax: 96, faults: faults, steps: script(injectEvery(96, 7, 3), runAll())}
}

// TestCutThroughLossyFusedSegments covers drop, dup, corrupt and jitter
// faults landing on fused segments, each fault class alone and all
// together, on both sides of the table.
func TestCutThroughLossyFusedSegments(t *testing.T) {
	cases := []struct {
		name   string
		faults core.MsgFaults
		count  func(m core.Metrics) int64
	}{
		{"drop", core.MsgFaults{Drop: 0.08}, func(m core.Metrics) int64 { return m.FaultDrops }},
		{"dup", core.MsgFaults{Dup: 0.08}, func(m core.Metrics) int64 { return m.FaultDups }},
		{"corrupt", core.MsgFaults{Corrupt: 0.08}, func(m core.Metrics) int64 { return m.FaultCorrupts }},
		{"jitter", core.MsgFaults{Jitter: 0.15, JitterMax: 4}, func(m core.Metrics) int64 { return m.FaultJitters }},
		{"all", core.MsgFaults{Drop: 0.04, Dup: 0.04, Corrupt: 0.03, Jitter: 0.08, JitterMax: 3}, func(m core.Metrics) int64 { return m.FaultDrops + m.FaultDups + m.FaultCorrupts + m.FaultJitters }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := both(t, lossyBranching(5, tc.faults))[0]
			if tc.count(got.metrics) == 0 || got.sched.FusedHops == 0 {
				t.Fatalf("%d faults, %d fused hops: the row does not cover a fault on a fused segment", tc.count(got.metrics), got.sched.FusedHops)
			}
		})
	}
}

// TestCutThroughFilterMidFusion has a HopFilter reject packets at a transit
// subsystem, breaking walks mid-fusion.
func TestCutThroughFilterMidFusion(t *testing.T) {
	got := both(t, scenario{name: "filter", graph: graphSpec{family: tree, n: 64, seed: 4}, mode: topology.ModeBranching, preload: 64,
		c: 0, p: 1, seed: 1, dmax: 64, filter: func(at core.NodeID, _ any) bool { return at%5 != 3 },
		steps: script(injectAt(0, 0), runAll())})[0]
	if got.metrics.Filtered == 0 {
		t.Fatal("filter never fired; the row does not cover mid-fusion rejection")
	}
}

// TestCutThroughCrashBetweenHops downs an interior tree edge at t = 0; the
// broadcast, planned on the preloaded view that still believes the link is
// up, is injected afterwards, so its walk reaches a dead link mid-route.
func TestCutThroughCrashBetweenHops(t *testing.T) {
	got := both(t, scenario{name: "crash-between-hops", graph: graphSpec{family: tree, n: 64, seed: 6}, mode: topology.ModeBranching, preload: 64,
		c: 0, p: 1, seed: 1, dmax: 64, steps: script(link(0, midEdge, false), injectAt(1, 0), runAll())})[0]
	if got.metrics.Drops == 0 {
		t.Fatal("no drop on the downed link; the row does not cover a crash mid-walk")
	}
}

// TestCutThroughSchedStats sanity-checks the observability counters:
// production cuts through the hops the reference engine walks inline, event
// for event (the table compares both counts), and absorbs same-instant
// traffic in the lane.
func TestCutThroughSchedStats(t *testing.T) {
	s := lossyBranching(9, core.MsgFaults{}).sched(t)
	if s.FusedHops == 0 || s.RingPushes == 0 || s.LanePushes == 0 || s.HeapPushes != 0 {
		t.Errorf("implausible stats: %+v", s)
	}
	if rate := s.LaneHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("lane hit rate %v out of range", rate)
	}
	if fpe := s.FusedHopsPerEvent(); fpe <= 0 {
		t.Errorf("fused hops per event %v, want > 0", fpe)
	}
}

// sched is classic's scheduler counters, after the classic side agrees on s.
func (s scenario) sched(t *testing.T) sim.SchedStats {
	return table(t, s, classicSide...)["classic"].sched
}

// TestSlowdownNeverFusesCutThrough: with zero hardware delay, cut-through
// fuses whole hop chains into one event — but a slowed hop inflates by at
// least one time unit, so on the copy path 0-1-2 the slowdowns are visible in
// virtual time even on a zero-delay fabric, and the reference engine, which
// has no walk to fuse, lands the packet at the same instant.
func TestSlowdownNeverFusesCutThrough(t *testing.T) {
	got := both(t, scenario{name: "slowdown-c0", graph: graphSpec{family: path, n: 3}, mode: topology.ModeBranching, preload: 3,
		c: 0, p: 1, seed: 1, faults: core.MsgFaults{Slowdown: 1}, steps: script(injectAt(0, 0), runAll())})[0]
	if got.metrics.FaultSlowdowns != 2 {
		t.Fatalf("FaultSlowdowns = %d, want 2 (one per hop)", got.metrics.FaultSlowdowns)
	}
	var done []int64
	for _, e := range got.events {
		if e.Kind == trace.KindDeliver && e.Node == 2 {
			done = append(done, e.Time)
		}
	}
	if len(done) != 1 || done[0] < 4 {
		t.Fatalf("node 2 done at %v; want once, no earlier than two activations and two slowed hops (4)", done)
	}
}

// TestSetDefaultCutThrough: the walk is not configurable — no option,
// default or environment turns it off — so a network built with nothing said
// about it fuses and agrees with the reference engine, also while a
// differently configured network (sharded, lossy) runs in a parallel subtest:
// configuration is per network. (The name dates from the package-wide default
// that used to select per-hop accounting for every network in the process.)
func TestSetDefaultCutThrough(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		t.Parallel()
		for rep := 0; rep < 3; rep++ {
			if lossyBranching(11, core.MsgFaults{}).sched(t).FusedHops == 0 {
				t.Fatal("a default network fused no hops")
			}
		}
	})
	t.Run("sharded-lossy", func(t *testing.T) {
		t.Parallel()
		for rep := 0; rep < 3; rep++ {
			play(t, trainRow(2, core.MsgFaults{Jitter: 0.2, JitterMax: 9}), shardSide[1])
		}
	})
}

// FuzzCutThrough decodes random graphs, seeds, modes and fault profiles at
// C = 0 into one row and checks the whole table on it. One edge is dead from
// the start and back at t = 2: preloaded views still route over it, so walks
// meet a down link mid-route with the fault rolls of the hops before it
// already drawn. Run as a CI fuzz smoke.
func FuzzCutThrough(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(30), false, uint8(10), uint8(10), uint8(5), uint8(10))
	f.Add(int64(7), uint8(48), uint8(12), true, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(24), uint8(50), true, uint8(25), uint8(0), uint8(12), uint8(25))
	f.Add(int64(5), uint8(40), uint8(2), true, uint8(20), uint8(10), uint8(10), uint8(20)) // sparse: a walk meets the dead link
	f.Fuzz(func(t *testing.T, seed int64, n, pPct uint8, branching bool, drop, dup, corrupt, jitter uint8) {
		nodes := 8 + int(n)%56
		s := scenario{name: "fuzz-cut-through", graph: graphSpec{n: nodes, p: 0.05 + float64(pPct%100)/100, seed: seed},
			mode: topology.ModeFlood, full: true, c: 0, p: 1, seed: seed, dmax: 2 * nodes,
			faults: core.MsgFaults{Drop: float64(drop%40) / 200, Dup: float64(dup%40) / 200, Corrupt: float64(corrupt%40) / 200,
				Jitter: float64(jitter%40) / 200, JitterMax: 3}}
		if branching {
			s.mode, s.preload = topology.ModeBranching, 1
		}
		if s.graph.build().M() > 0 {
			s.steps = script(link(0, midEdge, false), link(2, midEdge, true))
		}
		s.steps = script(s.steps, injectEvery(nodes, 3, 4), runAll())
		both(t, s)
	})
}
