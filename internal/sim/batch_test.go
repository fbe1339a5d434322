package sim_test

import (
	"fmt"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/traffic"
)

// The tests in this file are the transparency evidence for the C >= 1
// scheduler spine. Ring geometry: the calendar ring's span is pure mechanism,
// so the auto-sized ring, a fixed 64-slot window (which sends a long-delay
// envelope's far half through the overflow heap) and the 8192-slot cap
// (sim.WithFixedRing, a test-only hook) must agree — across hardware delays,
// fault envelopes and shard counts — on every observable the table compares;
// only the SchedStats push-split may differ. Reference engine: on the classic
// contract the whole spine — lane, ring, heap, chunks, in-place dispatch — must
// reproduce what the naive engine of reference_test.go gets from one binary
// heap of closures. (The test names date from when ring-bound hops were also
// batched per link and instant.)

// pipelined is the pipelined row: branching-path broadcasts over a GNP graph
// at hardware delay c, so route walks sharing link prefixes pipeline across
// the network and arrive at shared links in same-instant runs that span
// several chunks of one ring slot.
func pipelined(seed int64, n int, c, p core.Time, faults core.MsgFaults, random bool) scenario {
	return scenario{name: "pipelined", graph: graphSpec{n: n, p: 4.0 / float64(n), seed: seed}, mode: topology.ModeBranching, preload: 5,
		c: c, p: p, random: random, seed: seed, faults: faults, steps: script(injectEvery(n, 5, 4), runAll())}
}

// trainRow is the packet-train row: every flow's packets leave the source in
// one activation and pipeline down one multi-hop route, so each link of the
// route sees the train as a same-instant run of hops in one ring slot.
func trainRow(c core.Time, faults core.MsgFaults) scenario {
	return scenario{name: "trains", graph: graphSpec{n: 96, p: 6.0 / 96, seed: 3}, proto: trains, flows: 24,
		c: c, p: 1, seed: 9, faults: faults, steps: script(runAll())}
}

// backlogRow gives hub 0 of a star a backlog of leaves × per activations at
// C = P = 1: leaf u sends per packets to the hub at t = u + 1, and the hub
// serializes them, each activation one P behind the previous — thousands of
// instants past the one-hop delay envelope the ring is sized from.
func backlogRow(leaves, per int) scenario {
	s := scenario{name: "backlog", graph: graphSpec{family: star, n: leaves + 1}, proto: backlog, burst: per, c: 1, p: 1, seed: 1}
	for u := 1; u <= leaves; u++ {
		s.steps = append(s.steps, injectAt(core.Time(u), core.NodeID(u)))
	}
	s.steps = append(s.steps, runAll())
	return s
}

// batchFaultProfiles are the fault envelopes the differentials sweep: none,
// jitter-heavy (past the historical 64-slot window), gray-link slowdowns,
// and a reorder+dup mix.
func batchFaultProfiles() map[string]core.MsgFaults {
	return map[string]core.MsgFaults{
		"none":   {},
		"jitter": {Jitter: 0.25, JitterMax: 90},
		"slow":   {Slowdown: 0.2, SlowFactor: 3, SlowMax: 70},
		"mix":    {Reorder: 0.1, ReorderWindow: 12, Dup: 0.05, Jitter: 0.1, JitterMax: 6},
	}
}

// shardSubtable is the engines a shardsN subtest holds to each other: the
// classic side at 0, WithShards(1) on both rings at 1, and p = 1 against every
// p >= 2 above.
func shardSubtable(shards int) []engine {
	switch shards {
	case 0:
		return classicSide
	case 1:
		return []engine{shardSide[0], shardSide[5]}
	}
	return shardSide[:5]
}

// TestHopBatchDifferential sweeps delay geometry (C, P, exact/randomized) and
// fault envelopes over the pipelined row, on the classic side of the table
// (shards0) and the shard side (shards1: one shard on both rings; shards4:
// one shard against two to eight).
func TestHopBatchDifferential(t *testing.T) {
	type geom struct{ c, p core.Time }
	geoms := []geom{{0, 1}, {1, 1}, {2, 3}, {5, 1}}
	for fname, faults := range batchFaultProfiles() {
		for _, gm := range geoms {
			for _, shards := range []int{0, 1, 4} {
				for _, random := range []bool{false, true} {
					name := fmt.Sprintf("%s/c%d-p%d/shards%d/random=%v", fname, gm.c, gm.p, shards, random)
					t.Run(name, func(t *testing.T) {
						table(t, pipelined(23, 90, gm.c, gm.p, faults, random), shardSubtable(shards)...)
					})
				}
			}
		}
	}
}

// TestHopBatchRingGeometry pins ring-span transparency on one long-envelope
// row — the auto-sized default again (run-to-run determinism), a request
// below the minimum (4 rounds up to 64), the 64-slot window that forces heap
// overflow mid-run, and the cap — against the classic side of the table.
func TestHopBatchRingGeometry(t *testing.T) {
	s := pipelined(31, 90, 3, 1, core.MsgFaults{Jitter: 0.2, JitterMax: 90, Slowdown: 0.1, SlowFactor: 2, SlowMax: 40}, false)
	want := table(t, s, classicSide...)["classic"]
	for _, win := range []int{0, 4, 64, 8192} {
		t.Run(fmt.Sprintf("window%d", win), func(t *testing.T) {
			got := play(t, s, engine{name: "fixed", ring: win})
			if win == 4 && got.sched.RingOverflows == 0 {
				t.Error("4-slot window reported no ring overflows; the overflow path was not exercised")
			}
			if d := diverge(want, got, false); d != "" {
				t.Errorf("window %d diverged at %s", win, d)
			}
		})
	}
}

// TestHopBatchTrainDifferential sweeps the train row across hardware delays
// and fault envelopes on both sides of the table — the dense same-instant
// complement of TestHopBatchDifferential's broadcast sweep.
func TestHopBatchTrainDifferential(t *testing.T) {
	for fname, faults := range batchFaultProfiles() {
		for _, c := range []core.Time{1, 4} {
			for _, shards := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/c%d/shards%d", fname, c, shards), func(t *testing.T) {
					side := classicSide
					if shards > 0 {
						side = shardSide
					}
					table(t, trainRow(c, faults), side...)
				})
			}
		}
	}
}

// TestHeapBypassC1Regime is the CI heap-bypass regression smoke: a C >= 1
// workload with jitter and slowdown faults — delays well past the historical
// 64-slot window — must keep LaneHitRate >= 0.95 via the auto-sized ring,
// whose whole point that is; store-and-forward traffic at C = P = 1 must
// bypass the heap entirely, its NCU backlogs riding the ring as it doubles. A
// failure means the ring stopped covering the delay envelope or the backlogs,
// which is a performance cliff long before it is a correctness problem.
func TestHeapBypassC1Regime(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 96, Slowdown: 0.1, SlowFactor: 2, SlowMax: 128}
	for _, c := range []core.Time{2, 8} {
		got := play(t, pipelined(13, 150, c, 1, faults, false), classicSide[0])
		if rate := got.sched.LaneHitRate(); rate < 0.95 {
			t.Errorf("C=%d: lane hit rate %.3f < 0.95 — the auto-sizer lost the heap bypass\nstats: %+v",
				c, rate, got.sched)
		}
	}
	// Store-and-forward at C = P = 1: the NCU backlogs, not the delay
	// envelope, set how far out events land, and the ring follows them out.
	g := graph.GNP(96, 6.0/96, 3)
	res, err := traffic.Run(g, traffic.RandomFlows(g, 96, 45, 1), traffic.StoreAndForward, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rate := res.Sched.LaneHitRate(); rate != 1 {
		t.Errorf("store-and-forward: lane hit rate %.4f, want 1 — an NCU backlog overflowed the ring\nstats: %+v",
			rate, res.Sched)
	}
}

// TestRingAutoSize pins the auto-sizing rule: the span is the one-hop delay
// envelope (C + worst fault surcharge + P) with 4x headroom, rounded to a
// power of two in [64, 8192]; the test-only WithFixedRing overrides and freezes it; a
// SetMsgFaults that widens the envelope grows the ring, one that narrows it
// does not shrink.
func TestRingAutoSize(t *testing.T) {
	build := func(opts ...sim.Option) *sim.Network {
		return sim.New(graph.RandomTree(8, 1), topology.NewMaintainer(topology.ModeFlood, false, nil), opts...)
	}
	cases := []struct {
		name string
		opts []sim.Option
		want int
	}{
		{"defaults", nil, 64},
		{"c8", []sim.Option{sim.WithDelays(8, 1)}, 64},
		{"c30", []sim.Option{sim.WithDelays(30, 1)}, 128},
		{"jitter", []sim.Option{sim.WithDelays(2, 1), sim.WithMsgFaults(core.MsgFaults{Jitter: 0.1, JitterMax: 96})}, 512},
		{"slowdown", []sim.Option{sim.WithDelays(8, 1), sim.WithMsgFaults(core.MsgFaults{Slowdown: 0.1, SlowFactor: 2, SlowMax: 128})}, 1024},
		{"huge-envelope-capped", []sim.Option{sim.WithDelays(4000, 1)}, 8192},
		{"fixed", []sim.Option{sim.WithDelays(30, 1), sim.WithFixedRing(64)}, 64},
		{"fixed-rounds-up", []sim.Option{sim.WithFixedRing(100)}, 128},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := build(tc.opts...).RingWindow(); got != tc.want {
				t.Errorf("RingWindow() = %d, want %d", got, tc.want)
			}
		})
	}
	t.Run("grow-on-setmsgfaults", func(t *testing.T) {
		net := build(sim.WithDelays(2, 1))
		if got := net.RingWindow(); got != 64 {
			t.Fatalf("initial window %d, want 64", got)
		}
		net.SetMsgFaults(core.MsgFaults{Jitter: 0.1, JitterMax: 96})
		if got := net.RingWindow(); got != 512 {
			t.Errorf("window after widening faults = %d, want 512", got)
		}
		net.SetMsgFaults(core.MsgFaults{})
		if got := net.RingWindow(); got != 512 {
			t.Errorf("window shrank to %d after narrowing faults; the ring must never shrink", got)
		}
	})
	t.Run("fixed-ignores-setmsgfaults", func(t *testing.T) {
		net := build(sim.WithFixedRing(64))
		net.SetMsgFaults(core.MsgFaults{Jitter: 0.1, JitterMax: 1000})
		if got := net.RingWindow(); got != 64 {
			t.Errorf("fixed window grew to %d on SetMsgFaults", got)
		}
	})
	t.Run("sharded-children", func(t *testing.T) {
		g := graph.GNP(120, 0.06, 17)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
			sim.WithDelays(2, 1), sim.WithShards(4))
		if net.Shards() < 2 {
			t.Skip("partitioner produced a single part")
		}
		if got := net.RingWindow(); got != 64 {
			t.Fatalf("child window %d, want 64", got)
		}
		net.SetMsgFaults(core.MsgFaults{Jitter: 0.1, JitterMax: 96})
		if got := net.RingWindow(); got != 512 {
			t.Errorf("child window after widening faults = %d, want 512", got)
		}
	})
}

// TestSetDefaultRingWindow: the ring's span is decided per network, from that
// network's own delay envelope — nothing process-wide pins it. The train row
// on the test-only fixed window overflows its 64 slots under 90-tick jitter;
// the same row with no such option, played at the same time in a parallel
// subtest, auto-sizes and never overflows; and the two agree on every
// observable. (The name dates from the package-wide default that a benchmark
// flag used to pin for every network in the process.)
func TestSetDefaultRingWindow(t *testing.T) {
	s := trainRow(2, core.MsgFaults{Jitter: 0.2, JitterMax: 90})
	got := make([]obs, 2)
	if !t.Run("plays", func(t *testing.T) {
		for i, e := range classicSide[:2] {
			t.Run(e.name, func(t *testing.T) {
				t.Parallel()
				got[i] = play(t, s, e)
			})
		}
	}) {
		return
	}
	auto, pinned := got[0], got[1]
	if pinned.sched.RingOverflows == 0 || auto.sched.RingOverflows != 0 {
		t.Fatalf("ring overflows: %d on the 64-slot window under 90-tick jitter, %d auto-sized", pinned.sched.RingOverflows, auto.sched.RingOverflows)
	}
	if d := diverge(auto, pinned, false); d != "" {
		t.Errorf("auto-sized and pinned diverged at %s", d)
	}
}

// TestNCUBacklogRidesRing: a 3,000-activation backlog at one NCU grows the
// auto-sized ring on demand instead of overflowing it, and the run equals,
// observable by observable, the same run on a frozen 64-slot ring, which
// sends the backlog's far part through the overflow heap — and on the shard
// side, the hub's shard against the leaves'.
func TestNCUBacklogRidesRing(t *testing.T) {
	s := backlogRow(3, 1000)
	got := table(t, s, classicSide...)
	table(t, s, shardSide...)
	auto, pinned := got["classic"], got["ring-64"]
	if auto.deliveries[0] != 3000 || auto.sched.RingOverflows != 0 || auto.window != 4096 {
		t.Errorf("auto-sized: hub took %d deliveries, ring spans %d, stats %+v; want 3000, 4096 and no overflow", auto.deliveries[0], auto.window, auto.sched)
	}
	if pinned.sched.RingOverflows == 0 {
		t.Errorf("64-slot ring never overflowed under the backlog: %+v", pinned.sched)
	}
}

// TestNCUBacklogAtRingCap tests the doubling at its limit: a 10,000-activation
// backlog grows the ring to the 8192-slot cap and no further, the rest
// overflows to the heap, and the run equals the reference engine's.
func TestNCUBacklogAtRingCap(t *testing.T) {
	got := table(t, backlogRow(10, 1000), classicSide...)["classic"]
	if got.window != 8192 || got.sched.RingOverflows == 0 {
		t.Errorf("ring spans %d instants after the backlog, stats %+v: want the 8192 cap, overflowing", got.window, got.sched)
	}
}

// FuzzHopBatch decodes random graphs, delay geometry and fault envelopes at
// C >= 0 into one pipelined row and checks the whole table on it. Run as a
// CI fuzz smoke.
func FuzzHopBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(2), uint8(1), uint8(20), uint8(24), uint8(0), uint8(0))
	f.Add(int64(7), uint8(80), uint8(6), uint8(8), uint8(2), uint8(10), uint8(96), uint8(15), uint8(64))
	f.Add(int64(29), uint8(24), uint8(30), uint8(0), uint8(1), uint8(0), uint8(0), uint8(25), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct, c, p, jitter, jitterMax, slow, slowMax uint8) {
		nodes := 10 + int(n)%110
		s := pipelined(seed, nodes, core.Time(c%12), 1+core.Time(p%4), core.MsgFaults{
			Jitter: float64(jitter%40) / 100, JitterMax: core.Time(jitterMax),
			Slowdown: float64(slow%40) / 100, SlowFactor: 2, SlowMax: core.Time(slowMax),
		}, false)
		s.graph.p = 0.05 + float64(pPct%100)/250
		s.preload, s.steps = 4, script(injectEvery(nodes, 4, 5), runAll())
		both(t, s)
	})
}
