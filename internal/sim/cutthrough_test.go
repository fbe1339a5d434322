package sim_test

import (
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// The tests in this file hold production's cut-through walk to the model's
// semantics. At C = 0 a hardware hop takes no time, so a packet's walk is one
// depth-first descent inside the event that sent it; production executes it as
// a loop over pooled buffers, the reference engine (reference_test.go) as a
// naive recursion over a plain heap with a fresh reverse route per hop. The two
// share no scheduler, no buffer and no dispatch code, and must agree on every
// observable — the full trace stream, the per-node projections, metrics, finish
// time, and the per-node delivery and busy vectors. (The names date from when
// the second leg was production's own walk with one scheduler event per hop —
// the same loop in the same order; these tests originally gated re-pinning the
// golden hashes for cut-through switching.)

// diffRun executes one scenario on both engines and requires identical hashes
// (the hash covers trace + metrics + finish + per-node vectors).
func diffRun(t *testing.T, name string, run func(t *testing.T, mk newEngine, extra ...sim.Option) string) {
	t.Helper()
	fused := run(t, production)
	unfused := run(t, reference)
	if fused != unfused {
		t.Errorf("%s: production and the reference engine diverged\n  production %s\n  reference  %s", name, fused, unfused)
	}
}

// TestCutThroughDifferential runs every golden scenario — exact C = 0 (the
// fusion-heavy regime), randomized C > 0 (no hop is ever inline; the ring and
// the reference's heap must dispatch the same order), lossy links with flaps,
// and a multi-starter election — on both engines.
func TestCutThroughDifferential(t *testing.T) {
	for name, run := range goldenScenarios() {
		diffRun(t, name, run)
	}
}

// lossyRun is the hand-rolled fusion-heavy scenario: branching-path
// broadcasts over a zero-hardware-delay tree with every fault class
// enabled, so fused segments see drops, duplicates, corruptions, and
// jitter mid-walk. It returns the full observable state for field-by-field
// comparison.
type lossyRun struct {
	events     []trace.Event
	metrics    core.Metrics
	finish     core.Time
	deliveries []int64
	busy       []core.Time
	sched      sim.SchedStats
	clocks     []core.Time // Now() after each driver call, where a test records it
}

// observed collects a finished run's observables.
func observed(buf *trace.Serial, net engine, finish core.Time) lossyRun {
	return lossyRun{
		events:     buf.Events(),
		metrics:    net.Metrics(),
		finish:     finish,
		deliveries: net.DeliveriesPerNode(),
		busy:       net.BusyTimePerNode(),
		sched:      net.SchedStats(),
	}
}

func runLossyBranching(t *testing.T, mk newEngine, seed int64, faults core.MsgFaults, extra ...sim.Option) lossyRun {
	t.Helper()
	g := graph.RandomTree(96, seed)
	buf := trace.NewSerial(0)
	net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		append([]sim.Option{sim.WithDelays(0, 1), sim.WithSeed(seed), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithMsgFaults(faults)}, extra...)...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
	}
	for u := 0; u < g.N(); u += 7 {
		net.Inject(core.Time(u%3), core.NodeID(u), topology.Trigger{})
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return observed(buf, net, finish)
}

// requireEqualRuns compares two runs observable by observable, including
// the per-node trace projections, with failure messages that name what
// diverged (a hash mismatch alone cannot).
func requireEqualRuns(t *testing.T, fused, unfused lossyRun) {
	t.Helper()
	if fused.metrics != unfused.metrics {
		t.Errorf("metrics diverged\n  fused   %+v\n  unfused %+v", fused.metrics, unfused.metrics)
	}
	if fused.finish != unfused.finish {
		t.Errorf("finish diverged: fused %d, unfused %d", fused.finish, unfused.finish)
	}
	if !slices.Equal(fused.clocks, unfused.clocks) {
		t.Errorf("clock readings diverged\n  fused   %v\n  unfused %v", fused.clocks, unfused.clocks)
	}
	for u := range fused.deliveries {
		if fused.deliveries[u] != unfused.deliveries[u] {
			t.Errorf("node %d deliveries diverged: fused %d, unfused %d", u, fused.deliveries[u], unfused.deliveries[u])
		}
		if fused.busy[u] != unfused.busy[u] {
			t.Errorf("node %d busy time diverged: fused %d, unfused %d", u, fused.busy[u], unfused.busy[u])
		}
	}
	if len(fused.events) != len(unfused.events) {
		t.Fatalf("trace length diverged: fused %d, unfused %d", len(fused.events), len(unfused.events))
	}
	for i := range fused.events {
		if fused.events[i] != unfused.events[i] {
			t.Fatalf("trace event %d diverged\n  fused   %+v\n  unfused %+v", i, fused.events[i], unfused.events[i])
		}
	}
	fp, up := trace.PerNode(fused.events), trace.PerNode(unfused.events)
	if len(fp) != len(up) {
		t.Fatalf("projection node sets diverged: fused %d nodes, unfused %d", len(fp), len(up))
	}
	for node, fe := range fp {
		ue := up[node]
		if len(fe) != len(ue) {
			t.Fatalf("node %d projection length diverged: fused %d, unfused %d", node, len(fe), len(ue))
			continue
		}
		for i := range fe {
			if fe[i] != ue[i] {
				t.Errorf("node %d projection event %d diverged\n  fused   %+v\n  unfused %+v", node, i, fe[i], ue[i])
			}
		}
	}
}

// TestCutThroughLossyFusedSegments covers drop, dup, corrupt and jitter
// faults landing on fused segments, each fault class alone and all
// together, field-by-field.
func TestCutThroughLossyFusedSegments(t *testing.T) {
	cases := []struct {
		name   string
		faults core.MsgFaults
		check  func(m core.Metrics) int64
	}{
		{"drop", core.MsgFaults{Drop: 0.08}, func(m core.Metrics) int64 { return m.FaultDrops }},
		{"dup", core.MsgFaults{Dup: 0.08}, func(m core.Metrics) int64 { return m.FaultDups }},
		{"corrupt", core.MsgFaults{Corrupt: 0.08}, func(m core.Metrics) int64 { return m.FaultCorrupts }},
		{"jitter", core.MsgFaults{Jitter: 0.15, JitterMax: 4}, func(m core.Metrics) int64 { return m.FaultJitters }},
		{"all", core.MsgFaults{Drop: 0.04, Dup: 0.04, Corrupt: 0.03, Jitter: 0.08, JitterMax: 3}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fused := runLossyBranching(t, production, 5, tc.faults)
			unfused := runLossyBranching(t, reference, 5, tc.faults)
			if tc.check != nil {
				if n := tc.check(fused.metrics); n == 0 {
					t.Fatalf("fault class %q never fired; scenario does not cover it", tc.name)
				}
			}
			if fused.sched.FusedHops == 0 {
				t.Fatal("no hops were fused; scenario does not exercise cut-through")
			}
			if unfused.sched.FusedHops != 0 {
				t.Fatalf("reference run reported %d fused hops", unfused.sched.FusedHops)
			}
			requireEqualRuns(t, fused, unfused)
		})
	}
}

// TestCutThroughFilterMidFusion has a HopFilter reject packets at a transit
// subsystem, breaking walks mid-fusion.
func TestCutThroughFilterMidFusion(t *testing.T) {
	run := func(t *testing.T, mk newEngine) lossyRun {
		t.Helper()
		g := graph.RandomTree(64, 4)
		buf := trace.NewSerial(0)
		filter := func(at core.NodeID, payload any) bool { return at%5 != 3 }
		net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			sim.WithDelays(0, 1), sim.WithDmax(g.N()), sim.WithTrace(buf), sim.WithHopFilter(filter))
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		net.Protocol(0).(topology.Maintainer).Preload(recs)
		net.Inject(0, 0, topology.Trigger{})
		finish, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return observed(buf, net, finish)
	}
	fused := run(t, production)
	unfused := run(t, reference)
	if fused.metrics.Filtered == 0 {
		t.Fatal("filter never fired; scenario does not cover mid-fusion rejection")
	}
	requireEqualRuns(t, fused, unfused)
}

// TestCutThroughCrashBetweenHops downs a tree edge so that in-flight walks
// hit a dead link between fused hops and are dropped there.
func TestCutThroughCrashBetweenHops(t *testing.T) {
	run := func(t *testing.T, mk newEngine) lossyRun {
		t.Helper()
		g := graph.RandomTree(64, 6)
		buf := trace.NewSerial(0)
		net := mk(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			sim.WithDelays(0, 1), sim.WithDmax(g.N()), sim.WithTrace(buf))
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		net.Protocol(0).(topology.Maintainer).Preload(recs)
		// Down an interior edge at t=0; the broadcast (planned on the
		// preloaded full view, which still believes the link is up) is
		// injected afterwards, so its walk reaches a dead link mid-route.
		e := g.Edges()[len(g.Edges())/2]
		net.SetLink(0, e.U, e.V, false)
		net.Inject(1, 0, topology.Trigger{})
		finish, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return observed(buf, net, finish)
	}
	fused := run(t, production)
	unfused := run(t, reference)
	if fused.metrics.Drops == 0 {
		t.Fatal("no drop on the downed link; scenario does not cover a crash mid-walk")
	}
	requireEqualRuns(t, fused, unfused)
}

// TestCutThroughSchedStats sanity-checks the observability counters:
// production replaces per-hop events with fused hops, the reference engine
// counts one event per hop, and production absorbs same-instant traffic in
// the lane.
func TestCutThroughSchedStats(t *testing.T) {
	fused := runLossyBranching(t, production, 9, core.MsgFaults{})
	unfused := runLossyBranching(t, reference, 9, core.MsgFaults{})
	if fused.sched.FusedHops == 0 {
		t.Fatal("fused run reported no fused hops")
	}
	if fused.sched.Events >= unfused.sched.Events {
		t.Fatalf("fusion did not reduce events: fused %d, unfused %d", fused.sched.Events, unfused.sched.Events)
	}
	// Every hop production cut through is an event the reference counted, and
	// the two scheduled the same number of everything else.
	if got := fused.sched.Events + fused.sched.FusedHops; got != unfused.sched.Events {
		t.Errorf("fused events (%d) + fused hops (%d) = %d, want the reference's events %d",
			fused.sched.Events, fused.sched.FusedHops, got, unfused.sched.Events)
	}
	// A unit-delay run should be absorbed entirely by the same-time lane and
	// the near-time calendar ring; the heap is for far-future schedules only.
	if fused.sched.RingPushes == 0 || fused.sched.LanePushes == 0 || fused.sched.HeapPushes != 0 {
		t.Errorf("implausible stats: %+v", fused.sched)
	}
	if rate := fused.sched.LaneHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("lane hit rate %v out of range", rate)
	}
	if fpe := fused.sched.FusedHopsPerEvent(); fpe <= 0 {
		t.Errorf("fused hops per event %v, want > 0", fpe)
	}
}

// TestSetDefaultCutThrough: the walk is not configurable — no option,
// default or environment turns it off — so a network built with nothing said
// about it fuses and agrees with the reference engine, also while a
// differently configured network (sharded, lossy) runs on another goroutine:
// configuration is per network. (The name dates from the package-wide default
// that used to select per-hop accounting for every network in the process.)
func TestSetDefaultCutThrough(t *testing.T) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		g := graph.GNP(64, 0.08, 2)
		flows := traffic.RandomFlows(g, 8, 8, 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := traffic.Run(g, flows, traffic.StoreAndForward, 2, 1,
				sim.WithShards(2), sim.WithMsgFaults(core.MsgFaults{Jitter: 0.2, JitterMax: 9})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	want := runLossyBranching(t, reference, 11, core.MsgFaults{})
	for rep := 0; rep < 3; rep++ {
		got := runLossyBranching(t, production, 11, core.MsgFaults{})
		if got.sched.FusedHops == 0 {
			t.Fatal("a default network fused no hops")
		}
		requireEqualRuns(t, got, want)
	}
}

// FuzzCutThrough searches for a divergence between production and the
// reference engine over random graphs, seeds, modes, and fault profiles. Run
// as a CI fuzz smoke.
func FuzzCutThrough(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(30), false, uint8(10), uint8(10), uint8(5), uint8(10))
	f.Add(int64(7), uint8(48), uint8(12), true, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(24), uint8(50), true, uint8(25), uint8(0), uint8(12), uint8(25))
	f.Add(int64(5), uint8(40), uint8(2), true, uint8(20), uint8(10), uint8(10), uint8(20)) // sparse: a walk meets the dead link
	f.Fuzz(func(t *testing.T, seed int64, n, pPct uint8, branching bool, drop, dup, corrupt, jitter uint8) {
		nodes := 8 + int(n)%56
		p := 0.05 + float64(pPct%100)/100
		faults := core.MsgFaults{
			Drop:      float64(drop%40) / 200,
			Dup:       float64(dup%40) / 200,
			Corrupt:   float64(corrupt%40) / 200,
			Jitter:    float64(jitter%40) / 200,
			JitterMax: 3,
		}
		mode := topology.ModeFlood
		if branching {
			mode = topology.ModeBranching
		}
		g := graph.GNP(nodes, p, seed)
		run := func(mk newEngine) string {
			buf := trace.NewSerial(0)
			net := mk(g, topology.NewMaintainer(mode, true, nil),
				sim.WithDelays(0, 1), sim.WithSeed(seed), sim.WithDmax(2*nodes),
				sim.WithTrace(buf), sim.WithMsgFaults(faults))
			if branching {
				recs := topology.RecordsForGraph(g, net.PortMap(), nil)
				for u := 0; u < nodes; u++ {
					net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
				}
			}
			// One edge is dead from the start and back at t = 2: preloaded
			// views still route over it, so walks meet a down link mid-route
			// with the fault rolls of the hops before it already drawn.
			if edges := g.Edges(); len(edges) > 0 {
				e := edges[len(edges)/2]
				net.SetLink(0, e.U, e.V, false)
				net.SetLink(2, e.U, e.V, true)
			}
			for u := 0; u < nodes; u += 3 {
				net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		}
		if fused, unfused := run(production), run(reference); fused != unfused {
			t.Errorf("production %s != reference %s (nodes=%d p=%v mode=%v faults=%+v)",
				fused, unfused, nodes, p, mode, faults)
		}
	})
}
