package sim_test

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// The tests in this file are the determinism contract of the sharded
// space-parallel engine: a run under WithShards(p) must produce byte-
// identical observables — trace stream, metrics, finish time, per-node
// delivery/busy vectors, per-node trace projections — for every p >= 1.
// WithShards(1) is the serial reference execution of the shard-mode stream
// contract; the suite compares it against multi-shard runs over the golden
// scenarios, a driver-heavy epoch scenario, and a fuzzer.

var shardCounts = []int{2, 3, 4, 8}

// TestShardDifferential runs every golden scenario under the shard-mode
// serial reference and under 2/3/4/8 shards and requires identical hashes.
// (The C = 0 scenario collapses to one shard for every p — the documented
// serial fallback — so it checks option composition rather than parallelism;
// the C >= 1 scenarios partition for real.)
func TestShardDifferential(t *testing.T) {
	for name, run := range goldenScenarios() {
		serial := run(t, production, sim.WithShards(1))
		for _, p := range shardCounts {
			if got := run(t, production, sim.WithShards(p)); got != serial {
				t.Errorf("%s: %d-shard run diverged from serial reference\n  shards=1 %s\n  shards=%d %s",
					name, p, serial, p, got)
			}
		}
	}
}

// TestShardGoldenHashes pins the shard-mode observable stream byte for byte,
// like TestGoldenHashes does for the classic scheduler. Every scenario is
// hashed at one and at four shards and both must match the committed value —
// so a regression in either the serial reference or the parallel engine
// (or a drift between them) fails against a fixed point, not just pairwise.
func TestShardGoldenHashes(t *testing.T) {
	path := filepath.Join("testdata", "shard_golden_hashes.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for name, run := range goldenScenarios() {
		one := run(t, production, sim.WithShards(1))
		four := run(t, production, sim.WithShards(4))
		if one != four {
			t.Fatalf("scenario %q: shards=1 and shards=4 disagree before pinning\n  one  %s\n  four %s", name, one, four)
		}
		got[name] = one
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("scenario %q: shard-mode output diverged from golden\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("scenario %q has no committed shard golden (run -update-golden)", name)
		}
	}
}

// runShardFlood is the C >= 1 workhorse scenario: a flood broadcast over a
// GNP graph, returning every observable for field-by-field comparison.
func runShardFlood(t *testing.T, shards int, extra ...sim.Option) (lossyRun, *sim.Network) {
	t.Helper()
	g := graph.GNP(120, 0.06, 17)
	buf := trace.NewSerial(0)
	net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
		append([]sim.Option{sim.WithDelays(2, 1), sim.WithSeed(29), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithShards(shards)}, extra...)...)
	for u := 0; u < g.N(); u += 4 {
		net.Inject(core.Time(u%3), core.NodeID(u), topology.Trigger{})
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return observed(buf, net, finish), net
}

// TestShardEngagement verifies the sharded path is actually selected on a
// C >= 1 GNP scenario — the partition statistics are sane, the run matches
// the serial reference field by field, and the total event count is
// conserved (every event dispatches exactly once, on exactly one shard).
func TestShardEngagement(t *testing.T) {
	serial, refNet := runShardFlood(t, 1)
	if got := refNet.Shards(); got != 1 {
		t.Fatalf("serial reference reports %d shards", got)
	}
	sharded, net := runShardFlood(t, 4)
	info := net.ShardInfo()
	if info.Shards <= 1 {
		t.Fatalf("sharded run did not engage: %+v", info)
	}
	if info.Lookahead != 2 {
		t.Errorf("lookahead = %d, want the exact hardware delay 2", info.Lookahead)
	}
	if info.CutEdges == 0 {
		t.Error("partition reports no cut edges on a connected GNP graph")
	}
	if serial.sched.Events != sharded.sched.Events {
		t.Errorf("event count not conserved: serial %d, sharded %d", serial.sched.Events, sharded.sched.Events)
	}
	requireEqualRuns(t, serial, sharded)
}

// TestShardSerialFallback: an all-zero-delay model has no lookahead, so any
// shard request collapses to the serial reference.
func TestShardSerialFallback(t *testing.T) {
	g := graph.GNP(64, 0.1, 3)
	net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
		sim.WithDelays(0, 1), sim.WithShards(8))
	if got := net.Shards(); got != 1 {
		t.Fatalf("zero-delay network partitioned into %d shards; with no lookahead it must run serially", got)
	}
	if info := net.ShardInfo(); info.Lookahead != 0 || info.CutEdges != 0 {
		t.Fatalf("fallback ShardInfo = %+v, want zero cut stats", info)
	}
}

// TestShardPartitionWithoutCutEdge: a partition whose parts are exactly the
// graph's components cuts no edge, and the window is still the model's
// minimum hop delay. Node 2 sits isolated beside the 4-cycle 0-1-3-4; at
// seed 1 the partitioner seeds on node 2, so two shards share no edge. The
// run must end and match the serial reference. It runs under a watchdog, so
// a zero-width window fails the test instead of spinning forever.
func TestShardPartitionWithoutCutEdge(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 3}, {3, 4}, {4, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	run := func(shards int) (lossyRun, sim.ShardInfo) {
		buf := trace.NewSerial(0)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
			sim.WithDelays(1, 1), sim.WithSeed(1), sim.WithDmax(g.N()), sim.WithTrace(buf), sim.WithShards(shards))
		for u := 0; u < g.N(); u++ {
			net.Inject(0, core.NodeID(u), topology.Trigger{})
		}
		var finish core.Time
		done := make(chan error, 1)
		go func() {
			var err error
			finish, err = net.Run()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d-shard run on %+v had not returned after 10 s", shards, net.ShardInfo())
		}
		return observed(buf, net, finish), net.ShardInfo()
	}
	serial, _ := run(1)
	sharded, info := run(2)
	if want := (sim.ShardInfo{Shards: 2, CutEdges: 0, Lookahead: 1}); info != want {
		t.Errorf("ShardInfo = %+v, want %+v", info, want)
	}
	requireEqualRuns(t, serial, sharded)
}

// TestShardEpochsAndDriverAPI drives the full mid-run driver surface the way
// soak campaigns do — RunUntil epochs with link flips, fault-profile swaps,
// and NCU stalls scripted in between — then the clock's edge cases: an
// injection at Now() after Run, a RunUntil past the last event, and a
// backward RunUntil (refused with ErrBackward at every shard count) followed
// by injections in the past. The sharded run must match the serial reference
// field by field, Now() after every call included.
func TestShardEpochsAndDriverAPI(t *testing.T) {
	run := func(t *testing.T, shards int) lossyRun {
		t.Helper()
		g := graph.GNP(80, 0.08, 23)
		edges := g.Edges()
		buf := trace.NewSerial(0)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, true, nil),
			sim.WithDelays(2, 1), sim.WithSeed(31), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithShards(shards))
		for u := 0; u < g.N(); u += 5 {
			net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
		}
		var finish core.Time
		var clocks []core.Time
		step := func(f core.Time, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			finish = max(finish, f)
			clocks = append(clocks, net.Now())
		}
		for epoch, deadline := 0, core.Time(12); epoch < 4; epoch, deadline = epoch+1, deadline+12 {
			step(net.RunUntil(deadline))
			e := edges[(epoch*7)%len(edges)]
			net.InjectLink(e.U, e.V, epoch%2 == 1)
			net.SetMsgFaults(core.MsgFaults{Drop: 0.02 * float64(epoch), Dup: 0.02, Jitter: 0.05, JitterMax: 3})
			net.StallNode(core.NodeID((epoch*13)%g.N()), 6, 2)
			net.Inject(deadline, core.NodeID((epoch*11)%g.N()), topology.Trigger{})
		}
		step(net.Run())
		net.Inject(net.Now(), 7, topology.Trigger{})
		step(net.Run())
		step(net.RunUntil(net.Now() + 150))
		back := net.Now() - 20
		if _, err := net.RunUntil(back); !errors.Is(err, sim.ErrBackward) {
			t.Fatalf("RunUntil(%d) with the clock at %d: err %v, want sim.ErrBackward", back, net.Now(), err)
		}
		clocks = append(clocks, net.Now())
		net.Inject(back-5, 9, topology.Trigger{})
		net.Inject(back-1, 40, topology.Trigger{})
		step(net.Run())
		r := observed(buf, net, finish)
		r.clocks = clocks
		return r
	}
	serial := run(t, 1)
	for _, p := range []int{2, 4} {
		requireEqualRuns(t, serial, run(t, p))
	}
}

// TestSetDefaultShards: the shard count is a value in one driver's option
// list, not a process setting, so it reaches exactly the networks built from
// that list. Two goroutines run the same driver at once, one with
// WithShards(4) and its own totals sink, one with neither: each Result.Sched
// is what its own sink collected, a network built from each list reports that
// list's partition in ShardInfo, and under -race nothing is shared. (The name
// dates from the package-wide default this replaced.)
func TestSetDefaultShards(t *testing.T) {
	g := graph.GNP(96, 0.06, 13)
	flows := traffic.RandomFlows(g, 12, 8, 3)
	var sharded, classic sim.SchedTotals
	lists := map[*sim.SchedTotals][]sim.Option{
		&sharded: {sim.WithShards(4), sharded.Sink()},
		&classic: {classic.Sink()},
	}
	var wg sync.WaitGroup
	for totals, opts := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				before := totals.Stats()
				res, err := traffic.Run(g, flows, traffic.StoreAndForward, 2, 1, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				before.Events += res.Sched.Events
				if got := totals.Stats(); res.Sched.Events == 0 || got.Events != before.Events {
					t.Errorf("rep %d: the driver's network counted %+v, its sink now holds %+v", rep, res.Sched, got)
				}
			}
			info := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
				append([]sim.Option{sim.WithDelays(2, 1)}, opts...)...).ShardInfo()
			if want := totals == &sharded; (info.Shards > 1) != want || (info.CutEdges > 0) != want || (info.Lookahead == 2) != want {
				t.Errorf("options with WithShards(4)=%v built %+v", want, info)
			}
		}()
	}
	wg.Wait()
	if sharded.Stats() == classic.Stats() || classic.Stats().Events == 0 {
		t.Errorf("the two drivers' totals are %+v and %+v", sharded.Stats(), classic.Stats())
	}
}

// FuzzShardCount searches for a shard-count dependence over random graphs,
// seeds, delay configs, shard counts, and fault profiles (including link
// flips that cut shard boundaries). isolate strips every edge of node u < 8
// when its bit u is set, so graphs with several components — and partitions
// that cut no edge — are reachable. Run as a CI fuzz smoke like
// FuzzCutThrough.
func FuzzShardCount(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(2), uint8(2), uint8(1), false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(64), uint8(8), uint8(4), uint8(1), uint8(2), true, uint8(10), uint8(10), uint8(15), uint8(0))
	f.Add(int64(42), uint8(24), uint8(30), uint8(7), uint8(3), uint8(1), false, uint8(25), uint8(0), uint8(25), uint8(0x91))
	// TestShardPartitionWithoutCutEdge's graph: GNP(5, 0.29, 126) with node 2
	// isolated is the 4-cycle 0-1-3-4, and at seed 126 two shards cut no edge.
	f.Add(int64(126), uint8(3), uint8(25), uint8(0), uint8(1), uint8(0), false, uint8(0), uint8(0), uint8(0), uint8(1<<2))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct, shards, c, sw uint8, randomize bool, drop, dup, jitter, isolate uint8) {
		nodes := 2 + int(n)%126
		p := 0.04 + float64(pPct%100)/100
		hw := core.Time(c % 4)     // 0 covers the serial fallback
		swd := core.Time(1 + sw%3) // software delay >= 1
		P := 2 + int(shards)%7
		faults := core.MsgFaults{
			Drop:      float64(drop%40) / 200,
			Dup:       float64(dup%40) / 200,
			Jitter:    float64(jitter%40) / 200,
			JitterMax: 3,
			Reorder:   float64(jitter%20) / 200,
		}
		g := graph.GNP(nodes, p, seed)
		for u := 0; u < min(nodes, 8); u++ {
			if isolate&(1<<u) != 0 {
				for _, v := range slices.Clone(g.Neighbors(graph.NodeID(u))) {
					g.RemoveEdge(graph.NodeID(u), v)
				}
			}
		}
		edges := g.Edges()
		run := func(shardCount int) string {
			buf := trace.NewSerial(0)
			opts := []sim.Option{sim.WithDelays(hw, swd), sim.WithSeed(seed), sim.WithDmax(2 * nodes),
				sim.WithTrace(buf), sim.WithMsgFaults(faults), sim.WithShards(shardCount)}
			if randomize {
				opts = append(opts, sim.WithRandomDelays())
			}
			net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, true, nil), opts...)
			if len(edges) > 0 {
				net.SetLink(2, edges[0].U, edges[0].V, false)
				net.SetLink(9, edges[0].U, edges[0].V, true)
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
		if serial, sharded := run(1), run(P); serial != sharded {
			t.Errorf("shards=1 %s != shards=%d %s (nodes=%d p=%v hw=%d sw=%d rand=%v faults=%+v)",
				serial, P, sharded, nodes, p, hw, swd, randomize, faults)
		}
	})
}

// floodFail floods a token over every port; a node with ticks > 0 then
// spends that many self-addressed activations and fails the run.
type floodFail struct {
	ticks int
	seen  bool
}

type failTick struct{}

var errCannotContinue = errors.New("flood: cannot continue")

func (p *floodFail) Init(core.Env)                 {}
func (p *floodFail) LinkEvent(core.Env, core.Port) {}
func (p *floodFail) Deliver(env core.Env, pkt core.Packet) {
	if _, ok := pkt.Payload.(failTick); ok {
		if p.ticks--; p.ticks == 0 {
			env.Fail(errCannotContinue)
			return
		}
	} else if p.seen {
		return
	} else {
		p.seen = true
		var hs []anr.Header
		for _, port := range env.Ports() {
			hs = append(hs, anr.OneHop(port.Local))
		}
		if err := env.Multicast(hs, "flood"); err != nil {
			env.Fail(err)
			return
		}
	}
	if p.ticks > 0 {
		_ = env.Send(anr.Local(), failTick{})
	}
}

// TestFailureAgreesAcrossShardCounts: a run a handler fails returns the same
// core.HandlerError under the classic scheduler and every shard count. On an
// 8x8 grid flooded from corner 0, the opposite corners 7 and 56 both fail,
// 56 one activation sooner, inside one synchronous window (C = 4): each shard
// stops at its own failure, and the run reports the earlier one, not the
// lower node. Running the failed network again, backward or forward,
// dispatches nothing and returns the same error.
func TestFailureAgreesAcrossShardCounts(t *testing.T) {
	g := graph.Grid(8, 8)
	build := func(opts ...sim.Option) *sim.Network {
		return sim.New(g, func(id core.NodeID) core.Protocol {
			return &floodFail{ticks: map[core.NodeID]int{7: 2, 56: 1}[id]}
		}, append([]sim.Option{sim.WithDelays(4, 1)}, opts...)...)
	}
	var want *core.HandlerError
	for _, shards := range []int{0, 1, 2, 8} {
		var net *sim.Network
		if shards == 0 {
			net = build()
		} else if net = build(sim.WithShards(shards)); shards > 1 && net.ShardInfo().Shards < 2 {
			t.Fatalf("WithShards(%d) did not partition: %+v", shards, net.ShardInfo())
		}
		net.Inject(0, 0, "start")
		_, err := net.Run()
		var he *core.HandlerError
		if !errors.As(err, &he) {
			t.Fatalf("shards %d: err %v, want a core.HandlerError", shards, err)
		}
		if want == nil {
			want = he
		}
		if he.Node != 56 || *he != *want {
			t.Fatalf("shards %d: %v, want %v at node 56", shards, he, want)
		}
		events := net.SchedStats().Events
		_, back := net.RunUntil(0)
		_, again := net.Run()
		if !errors.Is(back, he) || !errors.Is(again, he) || net.SchedStats().Events != events {
			t.Fatalf("shards %d: a failed network ran again: RunUntil(0) %v, Run %v", shards, back, again)
		}
	}
}
