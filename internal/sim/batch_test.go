package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// The tests in this file are the transparency evidence for the C >= 1
// scheduler spine: (link, instant) hop batching and the auto-sized calendar
// ring must be invisible to every observable. A batched run and an unbatched
// run of the same scenario — across hardware delays, fault envelopes, ring
// geometries, and shard counts — must agree on the full trace stream, the
// per-node projections, metrics, finish time, the per-node delivery and busy
// vectors, and even Events() (batched hop records still count as events);
// only the SchedStats push-split may differ.

// runPipelined is the batching-heavy scenario: branching-path broadcasts
// over a GNP graph at hardware delay c, so route walks sharing link
// prefixes pipeline across the network and arrive at shared links in
// same-instant runs — exactly the traffic hop batching coalesces.
func runPipelined(t testing.TB, seed int64, n int, c, p core.Time, faults core.MsgFaults, extra ...sim.Option) lossyRun {
	t.Helper()
	g := graph.GNP(n, 4.0/float64(n), seed)
	buf := trace.NewSerial(0)
	net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		append([]sim.Option{sim.WithDelays(c, p), sim.WithSeed(seed),
			sim.WithTrace(buf), sim.WithMsgFaults(faults)}, extra...)...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < n; u += 5 {
		net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
		net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return lossyRun{
		events:     buf.Events(),
		metrics:    net.Metrics(),
		finish:     finish,
		deliveries: net.DeliveriesPerNode(),
		busy:       net.BusyTimePerNode(),
		sched:      net.SchedStats(),
	}
}

// runTrains is the dense-batching scenario: every flow's packets leave the
// source in one activation (the traffic engine's Hardware discipline) and
// pipeline down one shared multi-hop route, so each link of the route sees
// the train as a same-instant run — the exact traffic (link, instant)
// batching coalesces. Branching broadcasts (runPipelined) exercise the
// batch paths only at rare route coincidences; packet trains exercise them
// densely.
func runTrains(t testing.TB, faults core.MsgFaults, c core.Time, extra ...sim.Option) (traffic.Result, []trace.Event) {
	t.Helper()
	g := graph.GNP(96, 6.0/96, 3)
	flows := traffic.RandomFlows(g, 24, 16, 5)
	buf := trace.NewSerial(0)
	res, err := traffic.Run(g, flows, traffic.Hardware, c, 1,
		append([]sim.Option{sim.WithSeed(9), sim.WithMsgFaults(faults), sim.WithTrace(buf)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Events()
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

// TestHopBatchDifferential sweeps delay geometry (C, P, exact/randomized),
// fault envelopes, and shard counts, comparing batched vs unbatched
// execution observable by observable.
func TestHopBatchDifferential(t *testing.T) {
	type geom struct{ c, p core.Time }
	geoms := []geom{{0, 1}, {1, 1}, {2, 3}, {5, 1}}
	for fname, faults := range batchFaultProfiles() {
		for _, gm := range geoms {
			for _, shards := range []int{0, 1, 4} {
				for _, random := range []bool{false, true} {
					name := fmt.Sprintf("%s/c%d-p%d/shards%d/random=%v", fname, gm.c, gm.p, shards, random)
					t.Run(name, func(t *testing.T) {
						extra := []sim.Option{sim.WithShards(shards)}
						if random {
							extra = append(extra, sim.WithRandomDelays())
						}
						batched := runPipelined(t, 23, 90, gm.c, gm.p, faults,
							append([]sim.Option{sim.WithHopBatching(true)}, extra...)...)
						unbatched := runPipelined(t, 23, 90, gm.c, gm.p, faults,
							append([]sim.Option{sim.WithHopBatching(false)}, extra...)...)
						if batched.sched.Events != unbatched.sched.Events {
							t.Errorf("Events diverged: batched %d, unbatched %d",
								batched.sched.Events, unbatched.sched.Events)
						}
						if unbatched.sched.BatchedHops != 0 {
							t.Errorf("unbatched run reported %d batched hops", unbatched.sched.BatchedHops)
						}
						requireEqualRuns(t, batched, unbatched)
					})
				}
			}
		}
	}
}

// TestHopBatchRingGeometry pins batching transparency across ring spans —
// the auto-sized default, the historical 64-slot window, a tiny window that
// forces heap overflow mid-scenario, and the cap — against the unbatched
// auto-sized reference.
func TestHopBatchRingGeometry(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 90, Slowdown: 0.1, SlowFactor: 2, SlowMax: 40}
	ref := runPipelined(t, 31, 90, 3, 1, faults, sim.WithHopBatching(false))
	for _, win := range []int{0, 4, 64, 8192} {
		t.Run(fmt.Sprintf("window%d", win), func(t *testing.T) {
			got := runPipelined(t, 31, 90, 3, 1, faults,
				sim.WithHopBatching(true), sim.WithRingWindow(win))
			if got.sched.Events != ref.sched.Events {
				t.Errorf("Events diverged: window %d got %d, reference %d", win, got.sched.Events, ref.sched.Events)
			}
			if win == 4 && got.sched.RingOverflows == 0 {
				t.Error("4-slot window reported no ring overflows; the overflow path was not exercised")
			}
			requireEqualRuns(t, got, ref)
		})
	}
}

// TestHopBatchStats sanity-checks the batching observability on the train
// scenario: a C >= 1 run of same-route packet trains must coalesce a large
// share of its hops, keep Events() and the trace identical to the unbatched
// count, and stay on the heap-bypass fast path.
func TestHopBatchStats(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.15, JitterMax: 24}
	batched, bev := runTrains(t, faults, 2, sim.WithHopBatching(true))
	unbatched, uev := runTrains(t, faults, 2, sim.WithHopBatching(false))
	if batched.Sched.BatchedHops < 100 {
		t.Fatalf("train C=2 run coalesced only %d hops; scenario does not exercise batching", batched.Sched.BatchedHops)
	}
	if batched.Sched.Events != unbatched.Sched.Events {
		t.Fatalf("batching changed Events: batched %d, unbatched %d", batched.Sched.Events, unbatched.Sched.Events)
	}
	// Every batched hop is a ring push the unbatched run paid individually.
	if got := batched.Sched.RingPushes + batched.Sched.BatchedHops; got != unbatched.Sched.RingPushes {
		t.Errorf("batched ring pushes (%d) + batched hops (%d) = %d, want unbatched ring pushes %d",
			batched.Sched.RingPushes, batched.Sched.BatchedHops, got, unbatched.Sched.RingPushes)
	}
	if batched.Sched.RingPeak == 0 {
		t.Error("ring peak not tracked")
	}
	if rate := batched.Sched.LaneHitRate(); rate < 0.95 {
		t.Errorf("auto-sized ring lost the heap bypass: lane hit rate %.3f, want >= 0.95\nstats: %+v", rate, batched.Sched)
	}
	if batched.Delivered != unbatched.Delivered || batched.Metrics != unbatched.Metrics {
		t.Errorf("observables diverged:\n  batched   %d delivered %+v\n  unbatched %d delivered %+v",
			batched.Delivered, batched.Metrics, unbatched.Delivered, unbatched.Metrics)
	}
	if !slices.Equal(bev, uev) {
		t.Errorf("trace diverged: batched %d events, unbatched %d events", len(bev), len(uev))
	}
}

// TestHopBatchTrainDifferential sweeps the train scenario across hardware
// delays, fault envelopes, and shard counts — the dense-batch complement of
// TestHopBatchDifferential's broadcast sweep.
func TestHopBatchTrainDifferential(t *testing.T) {
	for fname, faults := range batchFaultProfiles() {
		for _, c := range []core.Time{1, 4} {
			for _, shards := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/c%d/shards%d", fname, c, shards), func(t *testing.T) {
					batched, bev := runTrains(t, faults, c, sim.WithShards(shards))
					unbatched, uev := runTrains(t, faults, c,
						sim.WithShards(shards), sim.WithHopBatching(false), sim.WithRingWindow(64))
					if batched.Sched.Events != unbatched.Sched.Events {
						t.Errorf("Events diverged: batched %d, unbatched %d",
							batched.Sched.Events, unbatched.Sched.Events)
					}
					if batched.Delivered != unbatched.Delivered || batched.Metrics != unbatched.Metrics {
						t.Errorf("observables diverged:\n  batched   %d delivered %+v\n  unbatched %d delivered %+v",
							batched.Delivered, batched.Metrics, unbatched.Delivered, unbatched.Metrics)
					}
					if !slices.Equal(bev, uev) {
						t.Errorf("trace diverged: batched %d events, unbatched %d events", len(bev), len(uev))
					}
				})
			}
		}
	}
}

// TestHeapBypassC1Regime is the CI heap-bypass regression smoke: a C >= 1
// workload with jitter and slowdown faults — delays well past the historical
// 64-slot window — must keep LaneHitRate >= 0.95 via the auto-sized ring.
func TestHeapBypassC1Regime(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 96, Slowdown: 0.1, SlowFactor: 2, SlowMax: 128}
	for _, c := range []core.Time{2, 8} {
		run := runPipelined(t, 13, 150, c, 1, faults)
		if rate := run.sched.LaneHitRate(); rate < 0.95 {
			t.Errorf("C=%d: lane hit rate %.3f < 0.95 — the auto-sizer lost the heap bypass\nstats: %+v",
				c, rate, run.sched)
		}
	}
}

// TestRingAutoSize pins the auto-sizing rule: the span is the one-hop delay
// envelope (C + worst fault surcharge + P) with 4x headroom, rounded to a
// power of two in [64, 8192]; WithRingWindow overrides and freezes it; a
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
		{"fixed", []sim.Option{sim.WithDelays(30, 1), sim.WithRingWindow(64)}, 64},
		{"fixed-rounds-up", []sim.Option{sim.WithRingWindow(100)}, 128},
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
		net := build(sim.WithRingWindow(64))
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

// TestSetDefaultHopBatching verifies the package-wide defaults reach
// networks constructed without explicit options (the hook differential
// tests and reference benchmarks use to flip whole stacks).
func TestSetDefaultHopBatching(t *testing.T) {
	defer sim.SetDefaultHopBatching(true)
	defer sim.SetDefaultRingWindow(0)
	sim.SetDefaultHopBatching(false)
	sim.SetDefaultRingWindow(64)
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 90}
	off, offEvents := runTrains(t, faults, 2)
	if off.Sched.BatchedHops != 0 {
		t.Fatalf("default-off run batched %d hops", off.Sched.BatchedHops)
	}
	if off.Sched.RingOverflows == 0 {
		t.Fatal("64-slot default window reported no overflows under 90-tick jitter")
	}
	sim.SetDefaultHopBatching(true)
	sim.SetDefaultRingWindow(0)
	on, onEvents := runTrains(t, faults, 2)
	if on.Sched.BatchedHops == 0 {
		t.Fatal("default-on run batched no hops")
	}
	if on.Sched.RingOverflows != 0 {
		t.Fatalf("auto-sized run overflowed the ring %d times", on.Sched.RingOverflows)
	}
	if on.Delivered != off.Delivered || on.Metrics != off.Metrics {
		t.Errorf("observables diverged:\n  default-on  %d delivered %+v\n  default-off %d delivered %+v",
			on.Delivered, on.Metrics, off.Delivered, off.Metrics)
	}
	if !slices.Equal(onEvents, offEvents) {
		t.Errorf("trace diverged: default-on %d events, default-off %d events", len(onEvents), len(offEvents))
	}
}

// FuzzHopBatch searches for a divergence between the batched auto-sized
// scheduler and the reference one-event-per-hop scheduler pinned to the
// historical 64-slot window, over random graphs, delay geometry, fault
// envelopes, and shard counts. Run as a CI fuzz smoke.
func FuzzHopBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(2), uint8(1), uint8(20), uint8(24), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(80), uint8(6), uint8(8), uint8(2), uint8(10), uint8(96), uint8(15), uint8(64), uint8(4))
	f.Add(int64(29), uint8(24), uint8(30), uint8(0), uint8(1), uint8(0), uint8(0), uint8(25), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct, c, p, jitter, jitterMax, slow, slowMax, shards uint8) {
		nodes := 10 + int(n)%110
		faults := core.MsgFaults{
			Jitter:     float64(jitter%40) / 100,
			JitterMax:  core.Time(jitterMax),
			Slowdown:   float64(slow%40) / 100,
			SlowFactor: 2,
			SlowMax:    core.Time(slowMax),
		}
		g := graph.GNP(nodes, 0.05+float64(pPct%100)/250, seed)
		run := func(extra ...sim.Option) string {
			buf := trace.NewSerial(0)
			net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
				append([]sim.Option{sim.WithDelays(core.Time(c%12), 1+core.Time(p%4)),
					sim.WithSeed(seed), sim.WithTrace(buf), sim.WithMsgFaults(faults),
					sim.WithShards(int(shards % 5))}, extra...)...)
			recs := topology.RecordsForGraph(g, net.PortMap(), nil)
			for u := 0; u < nodes; u += 4 {
				net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
				net.Inject(core.Time(u%5), core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		}
		batched := run(sim.WithHopBatching(true))
		reference := run(sim.WithHopBatching(false), sim.WithRingWindow(64))
		if batched != reference {
			t.Errorf("batched %s != reference %s (nodes=%d c=%d shards=%d faults=%+v)",
				batched, reference, nodes, c%12, shards%5, faults)
		}
	})
}
