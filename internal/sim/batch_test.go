package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// The tests in this file are the transparency evidence for the C >= 1
// scheduler spine, in two kinds of leg. Ring geometry: the calendar ring's
// span is pure mechanism, so the auto-sized ring, a fixed 64-slot window
// (which sends a long-delay envelope's far half through the overflow heap) and
// the 8192-slot cap (sim.WithFixedRing, a test-only hook) must agree — across
// hardware delays, fault envelopes and shard counts — on the full trace
// stream, the per-node projections, metrics, finish time, the per-node
// delivery and busy vectors, and Events(); only the SchedStats push-split may
// differ. Reference engine: on the classic contract the whole spine — lane,
// ring, heap, chunks, in-place dispatch — must reproduce what the naive
// engine of reference_test.go gets from one binary heap of closures. (The
// test names date from when ring-bound hops were also batched per link and
// instant.)

// runPipelined is the pipelined scenario: branching-path broadcasts over a
// GNP graph at hardware delay c, so route walks sharing link prefixes
// pipeline across the network and arrive at shared links in same-instant
// runs that span several chunks of one ring slot.
func runPipelined(t testing.TB, mk newEngine, seed int64, n int, c, p core.Time, faults core.MsgFaults, extra ...sim.Option) lossyRun {
	t.Helper()
	g := graph.GNP(n, 4.0/float64(n), seed)
	buf := trace.NewSerial(0)
	net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
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
	return observed(buf, net, finish)
}

// runTrains is the packet-train scenario: every flow's packets leave the
// source in one activation (the traffic engine's Hardware discipline) and
// pipeline down one shared multi-hop route, so each link of the route sees
// the train as a same-instant run of hops in one ring slot.
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

// ringWindows are the fixed spans every differential holds against the
// auto-sized ring: the historical window and the cap.
var ringWindows = []int{64, 8192}

// TestHopBatchDifferential sweeps delay geometry (C, P, exact/randomized),
// fault envelopes, and shard counts, comparing the auto-sized ring against
// the fixed windows — and, on the classic contract, against the reference
// engine — observable by observable.
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
						auto := runPipelined(t, production, 23, 90, gm.c, gm.p, faults, extra...)
						if shards == 0 {
							requireEqualRuns(t, auto, runPipelined(t, reference, 23, 90, gm.c, gm.p, faults, extra...))
						}
						for _, win := range ringWindows {
							fixed := runPipelined(t, production, 23, 90, gm.c, gm.p, faults,
								append([]sim.Option{sim.WithFixedRing(win)}, extra...)...)
							if auto.sched.Events != fixed.sched.Events {
								t.Errorf("Events diverged: auto-sized %d, window %d %d",
									auto.sched.Events, win, fixed.sched.Events)
							}
							requireEqualRuns(t, auto, fixed)
						}
					})
				}
			}
		}
	}
}

// TestHopBatchRingGeometry pins ring-span transparency on one long-envelope
// scenario — the auto-sized default again (run-to-run determinism), a request
// below the minimum (4 rounds up to 64), the 64-slot window that forces heap
// overflow mid-scenario, and the cap — against the auto-sized run, itself
// held to the reference engine.
func TestHopBatchRingGeometry(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 90, Slowdown: 0.1, SlowFactor: 2, SlowMax: 40}
	ref := runPipelined(t, production, 31, 90, 3, 1, faults)
	requireEqualRuns(t, ref, runPipelined(t, reference, 31, 90, 3, 1, faults))
	for _, win := range []int{0, 4, 64, 8192} {
		t.Run(fmt.Sprintf("window%d", win), func(t *testing.T) {
			got := runPipelined(t, production, 31, 90, 3, 1, faults, sim.WithFixedRing(win))
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

// TestHopBatchTrainDifferential sweeps the train scenario across hardware
// delays, fault envelopes, and shard counts — the dense same-instant
// complement of TestHopBatchDifferential's broadcast sweep.
func TestHopBatchTrainDifferential(t *testing.T) {
	for fname, faults := range batchFaultProfiles() {
		for _, c := range []core.Time{1, 4} {
			for _, shards := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/c%d/shards%d", fname, c, shards), func(t *testing.T) {
					auto, aev := runTrains(t, faults, c, sim.WithShards(shards))
					for _, win := range ringWindows {
						fixed, fev := runTrains(t, faults, c, sim.WithShards(shards), sim.WithFixedRing(win))
						if auto.Sched.Events != fixed.Sched.Events {
							t.Errorf("Events diverged: auto-sized %d, window %d %d",
								auto.Sched.Events, win, fixed.Sched.Events)
						}
						if auto.Delivered != fixed.Delivered || auto.Metrics != fixed.Metrics {
							t.Errorf("observables diverged:\n  auto-sized %d delivered %+v\n  window %d %d delivered %+v",
								auto.Delivered, auto.Metrics, win, fixed.Delivered, fixed.Metrics)
						}
						if !slices.Equal(aev, fev) {
							t.Errorf("trace diverged: auto-sized %d events, window %d %d events", len(aev), win, len(fev))
						}
					}
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
		run := runPipelined(t, production, 13, 150, c, 1, faults)
		if rate := run.sched.LaneHitRate(); rate < 0.95 {
			t.Errorf("C=%d: lane hit rate %.3f < 0.95 — the auto-sizer lost the heap bypass\nstats: %+v",
				c, rate, run.sched)
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
// network's own delay envelope — nothing process-wide pins it. A driver given
// the test-only fixed window overflows its 64 slots under 90-tick jitter; the
// same driver with no such option, run at the same time on another goroutine,
// auto-sizes and never overflows; and the two agree on every observable. (The
// name dates from the package-wide default that a benchmark flag used to pin
// for every network in the process.)
func TestSetDefaultRingWindow(t *testing.T) {
	faults := core.MsgFaults{Jitter: 0.2, JitterMax: 90}
	type out struct {
		res traffic.Result
		evs []trace.Event
		err error
	}
	g := graph.GNP(96, 6.0/96, 3)
	flows := traffic.RandomFlows(g, 24, 16, 5)
	run := func(extra ...sim.Option) <-chan out {
		ch := make(chan out, 1)
		go func() {
			buf := trace.NewSerial(0)
			res, err := traffic.Run(g, flows, traffic.Hardware, 2, 1,
				append([]sim.Option{sim.WithSeed(9), sim.WithMsgFaults(faults), sim.WithTrace(buf)}, extra...)...)
			ch <- out{res, buf.Events(), err}
		}()
		return ch
	}
	pinnedCh, autoCh := run(sim.WithFixedRing(64)), run()
	pinned, auto := <-pinnedCh, <-autoCh
	if pinned.err != nil || auto.err != nil {
		t.Fatal(pinned.err, auto.err)
	}
	if pinned.res.Sched.RingOverflows == 0 {
		t.Fatal("64-slot window reported no overflows under 90-tick jitter")
	}
	if auto.res.Sched.RingOverflows != 0 {
		t.Fatalf("auto-sized run overflowed the ring %d times", auto.res.Sched.RingOverflows)
	}
	if auto.res.Delivered != pinned.res.Delivered || auto.res.Metrics != pinned.res.Metrics {
		t.Errorf("observables diverged:\n  auto-sized %d delivered %+v\n  pinned     %d delivered %+v",
			auto.res.Delivered, auto.res.Metrics, pinned.res.Delivered, pinned.res.Metrics)
	}
	if !slices.Equal(auto.evs, pinned.evs) {
		t.Errorf("trace diverged: auto-sized %d events, pinned %d events", len(auto.evs), len(pinned.evs))
	}
}

// burst asks a leaf of runBacklog's star to send that many packets to the hub.
type burst int

// hubFeeder is runBacklog's protocol: a leaf handed a burst sends it to the
// hub back to back, one packet per send; what arrives is only counted (by the
// engine's delivery vector and trace).
type hubFeeder struct{}

func (hubFeeder) Init(core.Env)                 {}
func (hubFeeder) LinkEvent(core.Env, core.Port) {}

func (hubFeeder) Deliver(env core.Env, pkt core.Packet) {
	k, ok := pkt.Payload.(burst)
	if !ok {
		return
	}
	hub, _ := env.PortToward(0)
	route := anr.Direct([]anr.ID{hub.Local})
	for i := 0; i < int(k); i++ {
		if err := env.Send(route, i); err != nil {
			panic(err)
		}
	}
}

// runBacklog gives one NCU a backlog of leaves × per activations at
// C = P = 1: each leaf of a star sends per packets to the hub, one instant
// after the last, and the hub serializes them, scheduling each activation
// one P behind the previous — thousands of instants past the one-hop delay
// envelope the ring is sized from.
func runBacklog(t *testing.T, mk newEngine, leaves, per int, extra ...sim.Option) (lossyRun, engine) {
	t.Helper()
	g := graph.Star(leaves + 1)
	buf := trace.NewSerial(0)
	net := mk(g, func(core.NodeID) core.Protocol { return hubFeeder{} },
		append([]sim.Option{sim.WithDelays(1, 1), sim.WithTrace(buf)}, extra...)...)
	for u := 1; u <= leaves; u++ {
		net.Inject(core.Time(u), core.NodeID(u), burst(per))
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := net.DeliveriesPerNode()[0]; got != int64(leaves*per) {
		t.Fatalf("hub took %d deliveries, want %d", got, leaves*per)
	}
	return observed(buf, net, finish), net
}

// TestNCUBacklogRidesRing: a 3,000-activation backlog at one NCU grows the
// auto-sized ring on demand instead of overflowing it, and the run equals,
// observable by observable, the same run on a frozen 64-slot ring, which
// sends the backlog's far part through the overflow heap.
func TestNCUBacklogRidesRing(t *testing.T) {
	auto, net := runBacklog(t, production, 3, 1000)
	pinned, _ := runBacklog(t, production, 3, 1000, sim.WithFixedRing(64))
	if auto.sched.RingOverflows != 0 {
		t.Errorf("auto-sized ring overflowed: %+v", auto.sched)
	}
	if w := net.(*sim.Network).RingWindow(); w != 4096 {
		t.Errorf("auto-sized ring spans %d instants after the backlog, want 4096", w)
	}
	if pinned.sched.RingOverflows == 0 {
		t.Errorf("64-slot ring never overflowed under the backlog: %+v", pinned.sched)
	}
	if auto.sched.Events != pinned.sched.Events {
		t.Errorf("Events diverged: auto-sized %d, pinned %d", auto.sched.Events, pinned.sched.Events)
	}
	requireEqualRuns(t, auto, pinned)
}

// TestNCUBacklogAtRingCap tests the doubling at its limit: a 10,000-activation
// backlog grows the ring to the 8192-slot cap and no further, the rest
// overflows to the heap, and the run equals the reference engine's.
func TestNCUBacklogAtRingCap(t *testing.T) {
	got, net := runBacklog(t, production, 10, 1000)
	if w := net.(*sim.Network).RingWindow(); w != 8192 {
		t.Errorf("ring spans %d instants after the backlog, want the 8192 cap", w)
	}
	if got.sched.RingOverflows == 0 {
		t.Errorf("a backlog past the cap never overflowed: %+v", got.sched)
	}
	ref, _ := runBacklog(t, reference, 10, 1000)
	requireEqualRuns(t, got, ref)
}

// FuzzHopBatch searches for a divergence between the auto-sized scheduler, the
// same scheduler pinned to a 64-slot ring and — on the classic contract — the
// reference engine, over random graphs, delay geometry, fault envelopes, and
// shard counts. Run as a CI fuzz smoke.
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
		run := func(mk newEngine, extra ...sim.Option) string {
			buf := trace.NewSerial(0)
			net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
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
		auto := run(production)
		if pinned := run(production, sim.WithFixedRing(64)); auto != pinned {
			t.Errorf("auto-sized %s != 64-slot ring %s (nodes=%d c=%d shards=%d faults=%+v)",
				auto, pinned, nodes, c%12, shards%5, faults)
		}
		if shards%5 == 0 {
			if naive := run(reference); auto != naive {
				t.Errorf("production %s != reference engine %s (nodes=%d c=%d faults=%+v)",
					auto, naive, nodes, c%12, faults)
			}
		}
	})
}
