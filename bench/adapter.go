package main

// adapter.go is the only file of the harness that imports fastnet/internal.
// It builds the seven workloads from the packages' public functions, wraps
// the layer boundaries in spans for -trace runs, and reads SchedStats and
// core.Metrics counters through a marshalled map, so a later change that
// deletes a counter zeroes one per-layer metric instead of breaking the build.
// It deliberately stays off the toggles ROADMAP schedules for retirement
// (WithCutThrough, WithHopBatching, WithRingWindow, SetDefault*,
// TakeGlobalSchedStats).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/faults"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/paths"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
	"fastnet/internal/traffic"
)

// outcome is what one rep reports besides its cost: the useful work done and
// the simulated statistics the digest is taken over.
type outcome struct {
	// ops counts model operations: link hops plus NCU activations, summed
	// over every network the rep ran. Scheduler events are not the unit of
	// work, because a scheduler change is expected to change their count.
	ops    int64
	ledger string
}

// scenario is one workload instantiated from a seed.
type scenario struct {
	// rep runs the scenario once: build networks, run to quiescence,
	// validate. A non-nil tracer turns the layer spans on; the ledger must
	// not depend on it.
	rep func(tr *tracer) (outcome, error)
	// extras measures the workload's own trace-only comparison once per
	// trace run (nil when it has none).
	extras func(tr *tracer) error
	g      *graph.Graph // primary fabric, input of the standalone probes
	seed   int64
	genS   float64 // input generation time
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{
	"ctl-c0", "flood-jitter-c8", "flood-jitter-c8-shard2", "relay-c1",
	"openloop-poisson", "openloop-zipf-cap", "soak-churn",
}

// buildScenario generates the named workload's inputs from seed. div
// divides the input sizes: 1 is the benchmark, tests use 50.
func buildScenario(name string, seed int64, div int) (*scenario, error) {
	t0 := time.Now()
	var sc *scenario
	switch name {
	case "ctl-c0":
		sc = ctlScenario(seed, div)
	case "flood-jitter-c8":
		sc = floodScenario(seed, div, 0)
	case "flood-jitter-c8-shard2":
		sc = floodScenario(seed, div, 2)
	case "relay-c1":
		sc = relayScenario(seed, div)
	case "openloop-poisson":
		sc = loadScenario(seed, load.Config{Seed: seed, Calls: 300_000 / div, Rate: 4, Holding: 256})
	case "openloop-zipf-cap":
		sc = loadScenario(seed, load.Config{
			Seed: seed, Calls: 240_000 / div, Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
			Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8},
		})
	case "soak-churn":
		sc = soakScenario(seed, div)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	sc.seed = seed
	sc.genS = time.Since(t0).Seconds()
	return sc, nil
}

func modelOps(m core.Metrics) int64 { return m.Hops + m.Syscalls() }

// fabric returns a connected random graph on n nodes with exactly
// n*degree/2 edges: a random spanning tree plus uniformly random extra edges.
// It is graph.GNP with the edge count pinned, so that every seed does the
// same amount of structural work and the spread between seeds measures the
// host, not the draw.
func fabric(n int, degree float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]))
	}
	for m := min(int(float64(n)*degree/2), n*(n-1)/2); g.M() < m; {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// ---- ctl-c0 ---------------------------------------------------------------

// ctlScenario is the paper's control plane in its headline regime C=0, P=1:
// per rep, ctlNets times, one branching-paths broadcast on a random tree and
// one token election with every node starting on a sparse G(n,p).
func ctlScenario(seed int64, div int) *scenario {
	const ctlNets = 8
	treeN, elN := max(4096/div, 16), max(1024/div, 8)
	trees := make([]*graph.Graph, ctlNets)
	gnps := make([]*graph.Graph, ctlNets)
	for k := range trees {
		trees[k] = graph.RandomTree(treeN, seed+int64(k))
		gnps[k] = fabric(elN, 4, seed+int64(k))
	}
	starters := make([]core.NodeID, elN)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	sc := &scenario{g: gnps[0]}
	sc.rep = func(tr *tracer) (outcome, error) {
		var out outcome
		var led strings.Builder
		var allMsgs int64
		for k := range trees {
			bm, err := broadcastOnce(tr, trees[k])
			if err != nil {
				return out, fmt.Errorf("broadcast %d: %w", k, err)
			}
			em, leader, msgs, err := electOnce(tr, gnps[k], starters)
			if err != nil {
				return out, fmt.Errorf("election %d: %w", k, err)
			}
			if msgs > 6*int64(elN) {
				return out, fmt.Errorf("election %d: %d algorithm messages exceed 6n = %d", k, msgs, 6*elN)
			}
			out.ops += modelOps(bm) + modelOps(em)
			fmt.Fprintf(&led, "%s | %s leader=%d msgs=%d\n", bm, em, leader, msgs)
			allMsgs += msgs
		}
		tr.setValue("election.msgs", float64(allMsgs))
		tr.setValue("election.msgs_per_n", float64(allMsgs)/float64(ctlNets*elN))
		out.ledger = led.String()
		return out, nil
	}
	sc.extras = func(tr *tracer) error {
		g := graph.RandomTree(max(1024/div, 16), seed)
		var walls []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			if err := gosimBroadcast(g); err != nil {
				return err
			}
			walls = append(walls, time.Since(t0).Seconds())
		}
		tr.setValue("gosim.bcast_s", median(walls))
		return nil
	}
	return sc
}

// broadcastOnce is one §3 branching-paths broadcast from node 0. Untraced it
// is topology.SingleBroadcast; traced it is that driver's body spelled out,
// so that construction, warm start, injection, run and handlers each get a
// span. The digest check holds the two to the same simulated statistics.
func broadcastOnce(tr *tracer, g *graph.Graph) (core.Metrics, error) {
	want := int64(g.N() - 1)
	var m core.Metrics
	if tr == nil {
		res, err := topology.SingleBroadcast(g, 0, topology.ModeBranching)
		if err != nil {
			return m, err
		}
		if int64(res.Covered) != want {
			return m, fmt.Errorf("covered %d of %d nodes", res.Covered, want)
		}
		m = res.Metrics
	} else {
		t0 := time.Now()
		net := sim.New(g, tr.timed("topology", topology.NewMaintainer(topology.ModeBranching, false, nil)),
			sim.WithDelays(0, 1), sim.WithDmax(topology.DefaultDmax(topology.ModeBranching, g.N())))
		tr.since("sim.new", t0)
		t0 = time.Now()
		unwrap(net.Protocol(0)).(topology.Maintainer).Preload(topology.RecordsForGraph(g, net.PortMap(), nil))
		tr.since("topology.records", t0)
		t0 = time.Now()
		net.Inject(0, 0, topology.Trigger{})
		tr.since("sim.inject", t0)
		t0 = time.Now()
		_, err := net.Run()
		tr.since("sim.run", t0)
		if err != nil {
			return m, err
		}
		m = net.Metrics()
		tr.counters(m)
		tr.counters(net.SchedStats())
	}
	if m.Deliveries != want {
		return m, fmt.Errorf("%d deliveries, want %d", m.Deliveries, want)
	}
	return m, nil
}

// electOnce is one §4 token election; election.Run untraced, its body
// spelled out when traced (see broadcastOnce).
func electOnce(tr *tracer, g *graph.Graph, starters []core.NodeID) (core.Metrics, core.NodeID, int64, error) {
	if tr == nil {
		res, err := election.Run(g, election.AlgoToken, starters)
		return res.Metrics, res.Leader, res.AlgorithmMessages, err
	}
	stats := &election.Stats{}
	t0 := time.Now()
	net := sim.New(g, tr.timed("election", func(id core.NodeID) core.Protocol { return election.New(id, stats) }),
		sim.WithDelays(0, 1), sim.WithDmax(election.Dmax(g.N())))
	tr.since("sim.new", t0)
	t0 = time.Now()
	for _, s := range starters {
		net.Inject(0, s, election.Start{})
	}
	tr.since("sim.inject", t0)
	t0 = time.Now()
	_, err := net.Run()
	tr.since("sim.run", t0)
	if err != nil {
		return core.Metrics{}, core.None, 0, err
	}
	leader := core.None
	for u := 0; u < g.N(); u++ {
		switch unwrap(net.Protocol(core.NodeID(u))).(*election.Protocol).State() {
		case election.StateLeader:
			if leader != core.None {
				return core.Metrics{}, core.None, 0, fmt.Errorf("both %d and %d are leaders", leader, u)
			}
			leader = core.NodeID(u)
		case election.StateLeaderElected:
		default:
			return core.Metrics{}, core.None, 0, fmt.Errorf("node %d undecided", u)
		}
	}
	if leader == core.None {
		return core.Metrics{}, core.None, 0, election.ErrNoLeader
	}
	m := net.Metrics()
	tr.counters(m)
	tr.counters(net.SchedStats())
	return m, leader, stats.AlgorithmMessages(), nil
}

// gosimBroadcast is the broadcast of broadcastOnce on the goroutine runtime.
func gosimBroadcast(g *graph.Graph) error {
	net := gosim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil), gosim.WithDmax(g.N()))
	defer net.Shutdown()
	net.Protocol(0).(topology.Maintainer).Preload(topology.RecordsForGraph(g, net.PortMap(), nil))
	net.Inject(0, topology.Trigger{})
	if err := net.AwaitQuiescence(30 * time.Second); err != nil {
		return err
	}
	if d := net.Metrics().Deliveries; d != int64(g.N()-1) {
		return fmt.Errorf("gosim broadcast reached %d of %d nodes", d, g.N()-1)
	}
	return nil
}

// ---- flood-jitter-c8 ------------------------------------------------------

// floodScenario is the C >= 1 regime: per rep, floodNets ARPANET-style floods
// on dense random fabrics at C=8 with every hop jittered and a tenth of them
// slowed, every 8th node warm-started and triggered. shards > 0 selects
// sim.WithShards. Several fabrics per rep, because how well a fabric
// partitions into two shards varies from one draw to the next by more than
// any change this benchmark is meant to catch.
func floodScenario(seed int64, div, shards int) *scenario {
	const floodNets = 3
	n := max(208/div, 16)
	gs := make([]*graph.Graph, floodNets)
	for k := range gs {
		gs[k] = fabric(n, 14, seed+int64(k))
	}
	// run floods every fabric once and returns the wall time it took.
	run := func(tr *tracer, shards int, sink trace.Sink) (outcome, float64, error) {
		var out outcome
		var led strings.Builder
		t0 := time.Now()
		for k, g := range gs {
			one, err := floodOnce(tr, g, seed+int64(k), shards, sink)
			if err != nil {
				return out, 0, fmt.Errorf("flood %d: %w", k, err)
			}
			out.ops += one.ops
			led.WriteString(one.ledger + "\n")
		}
		out.ledger = led.String()
		return out, time.Since(t0).Seconds(), nil
	}
	sc := &scenario{g: gs[0]}
	sc.rep = func(tr *tracer) (outcome, error) {
		out, _, err := run(tr, shards, nil)
		return out, err
	}
	switch shards {
	case 0:
		// What a trace sink costs the spine: the same rep with every
		// runtime event recorded into a counting sink.
		sc.extras = func(tr *tracer) error {
			var sink countingSink
			plain, sunk, err := alternate(3,
				func() (float64, error) { _, w, err := run(nil, shards, nil); return w, err },
				func() (float64, error) { sink = 0; _, w, err := run(nil, shards, &sink); return w, err })
			tr.setValue("trace.sink_overhead_ratio", sunk/plain)
			tr.setValue("trace.events", float64(sink))
			return err
		}
	default:
		// The shard-mode contract says p = 1 and p = 2 produce the same
		// simulated statistics; their wall ratio is the speedup.
		sc.extras = func(tr *tracer) error {
			var one, two outcome
			serial, sharded, err := alternate(3,
				func() (w float64, err error) { one, w, err = run(nil, 1, nil); return },
				func() (w float64, err error) { two, w, err = run(nil, shards, nil); return })
			if err == nil && one.ledger != two.ledger {
				err = fmt.Errorf("WithShards(1) and WithShards(%d) disagree:\n%s\n%s", shards, one.ledger, two.ledger)
			}
			tr.setValue("sim.shard_speedup", serial/sharded)
			return err
		}
	}
	return sc
}

// countingSink is the cheapest possible trace.Sink.
type countingSink int64

func (c *countingSink) Record(trace.Event) { *c++ }

func floodOnce(tr *tracer, g *graph.Graph, seed int64, shards int, sink trace.Sink) (outcome, error) {
	opts := []sim.Option{
		sim.WithDelays(8, 1), sim.WithSeed(seed),
		sim.WithMsgFaults(core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512}),
	}
	if shards > 0 {
		opts = append(opts, sim.WithShards(shards))
	}
	if sink != nil {
		opts = append(opts, sim.WithTrace(sink))
	}
	t0 := time.Now()
	net := sim.New(g, tr.timed("topology", topology.NewMaintainer(topology.ModeFlood, false, nil)), opts...)
	tr.since("sim.new", t0)
	t0 = time.Now()
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u += 8 {
		unwrap(net.Protocol(core.NodeID(u))).(topology.Maintainer).Preload(recs)
	}
	tr.since("topology.records", t0)
	t0 = time.Now()
	for u := 0; u < g.N(); u += 8 {
		net.Inject(0, core.NodeID(u), topology.Trigger{})
	}
	tr.since("sim.inject", t0)
	t0 = time.Now()
	_, err := net.Run()
	tr.since("sim.run", t0)
	if err != nil {
		return outcome{}, err
	}
	m := net.Metrics()
	switch {
	case m.Deliveries == 0:
		return outcome{}, fmt.Errorf("flood delivered nothing")
	case m.DmaxViolations != 0:
		return outcome{}, fmt.Errorf("%d dmax violations", m.DmaxViolations)
	case shards > 1 && net.ShardInfo().Shards != shards:
		return outcome{}, fmt.Errorf("%d shards, want %d", net.ShardInfo().Shards, shards)
	}
	if tr != nil {
		tr.counters(m)
		tr.counters(net.SchedStats())
		info := net.ShardInfo()
		tr.cores = info.Shards
		tr.setValue("sim.shards", float64(info.Shards))
		tr.addValue("sim.cut_edges", float64(info.CutEdges))
		tr.setValue("sim.lookahead", float64(info.Lookahead))
	}
	return outcome{ops: modelOps(m), ledger: m.String()}, nil
}

// ---- relay-c1 -------------------------------------------------------------

// relayScenario is bare forwarding at C=1: the same flows once over pure
// hardware routes and once store-and-forward, where handlers are a few lines
// and the event spine is nearly the whole cost.
func relayScenario(seed int64, div int) *scenario {
	n := max(1024/div, 16)
	g := fabric(n, 6, seed)
	flows := traffic.RandomFlows(g, max(1024/div, 4), 45, seed)
	want := 0
	for _, f := range flows {
		want += f.Packets
	}
	sc := &scenario{g: g}
	sc.rep = func(tr *tracer) (outcome, error) {
		var out outcome
		var led strings.Builder
		for _, d := range []traffic.Discipline{traffic.Hardware, traffic.StoreAndForward} {
			span := "traffic.hw"
			if d == traffic.StoreAndForward {
				span = "traffic.sf"
			}
			t0 := time.Now()
			res, err := traffic.Run(g, flows, d, 1, 1)
			tr.since(span, t0)
			if err != nil {
				return out, err
			}
			if res.Delivered != want {
				return out, fmt.Errorf("%s delivered %d of %d packets", d, res.Delivered, want)
			}
			out.ops += modelOps(res.Metrics)
			fmt.Fprintf(&led, "%s delivered=%d %s\n", d, res.Delivered, res.Metrics)
			tr.counters(res.Metrics)
			tr.counters(res.Sched)
			tr.setValue(span+"_hops", float64(res.Metrics.Hops))
		}
		out.ledger = led.String()
		return out, nil
	}
	return sc
}

// ---- openloop-* -----------------------------------------------------------

// loadScenario is one open-loop run of the load plane on a sparse G(1024,p).
func loadScenario(seed int64, cfg load.Config) *scenario {
	g := fabric(1024, 6, seed)
	sc := &scenario{g: g}
	sc.rep = func(tr *tracer) (outcome, error) {
		t0 := time.Now()
		s, err := load.Run(g, cfg)
		tr.since("load.run", t0)
		if err != nil {
			return outcome{}, err
		}
		switch {
		case s.Generated != int64(cfg.Calls):
			return outcome{}, fmt.Errorf("generated %d of %d calls", s.Generated, cfg.Calls)
		case s.Generated != s.Delivered+s.Blocked+s.Dropped:
			return outcome{}, fmt.Errorf("ledger leak: gen=%d del=%d blk=%d drop=%d", s.Generated, s.Delivered, s.Blocked, s.Dropped)
		case cfg.NCUCap == 0 && s.Blocked+s.Dropped != 0:
			return outcome{}, fmt.Errorf("refusals without declared overload: blk=%d drop=%d", s.Blocked, s.Dropped)
		case cfg.NCUCap > 0 && s.Blocked == 0:
			return outcome{}, fmt.Errorf("capped run blocked nothing")
		case s.PoolChunks > s.MaxInFlight/1024+1:
			// Records are recycled: chunks follow peak in-flight calls,
			// not generated calls.
			return outcome{}, fmt.Errorf("record pool not engaged: %d chunks for %d in flight", s.PoolChunks, s.MaxInFlight)
		}
		if tr != nil {
			tr.counters(s.Net)
			tr.counters(s.Sched)
			gen := float64(s.Generated)
			tr.setValue("load.delivered_share", float64(s.Delivered)/gen)
			tr.setValue("load.blocked_share", float64(s.Blocked)/gen)
			tr.setValue("load.dropped_share", float64(s.Dropped)/gen)
			tr.setValue("load.setup_p50_ticks", float64(s.Setup.Quantile(0.5)))
			tr.setValue("load.setup_p99_ticks", float64(s.Setup.Quantile(0.99)))
			tr.setValue("load.setup_p999_ticks", float64(s.Setup.Quantile(0.999)))
			tr.setValue("load.max_in_flight", float64(s.MaxInFlight))
			tr.setValue("load.pool_chunks", float64(s.PoolChunks))
			tr.setValue("load.calls", gen)
		}
		return outcome{ops: modelOps(s.Net), ledger: fmt.Sprintf(
			"gen=%d del=%d blk=%d drop=%d late=%d dups=%d garbled=%d setup(%s) transit(%s) inflight=%d chunks=%d finish=%d | %s",
			s.Generated, s.Delivered, s.Blocked, s.Dropped, s.Late, s.Dups, s.Garbled,
			s.Setup.Summary(), s.Transit.Summary(), s.MaxInFlight, s.PoolChunks, s.Finish, s.Net)}, nil
	}
	sc.extras = func(tr *tracer) error {
		full, bare, err := alternate(3,
			func() (float64, error) { t0 := time.Now(); _, err := sc.rep(nil); return time.Since(t0).Seconds(), err },
			func() (float64, error) { d, err := bareSpine(g, cfg); return d.Seconds(), err })
		tr.setValue("load.bare_spine_s", bare)
		tr.setValue("load.overhead_ratio", (full-bare)/bare)
		return err
	}
	return sc
}

// bareCall is the bare spine's whole per-call state.
type bareCall struct{ hdr anr.Header }

// bareProto is the two-line call protocol: the source sends the route, the
// destination counts the arrival.
type bareProto struct{ delivered *int64 }

func (bareProto) Init(core.Env)                 {}
func (bareProto) LinkEvent(core.Env, core.Port) {}
func (p bareProto) Deliver(env core.Env, pkt core.Packet) {
	if pkt.Injected {
		_ = env.Send(pkt.Payload.(*bareCall).hdr, pkt.Payload) // routes are validated when built
		return
	}
	*p.delivered++
}

// bareSpine replays cfg's arrival count through the runtime with the load
// engine's samplers and injection batching but no timing wheel, record pool
// or latency recorder: what the same traffic costs the spine alone. The
// returned time covers what load.Run also pays (network, pair table, arrival
// loop, drain) and leaves out deriving the routes a second time, which only
// this replay has to do because the table keeps its headers private.
func bareSpine(g *graph.Graph, cfg load.Config) (time.Duration, error) {
	var delivered int64
	batch := 256
	if cfg.NCUCap > 0 {
		batch = 1 // the engine's strict-admission path
	}
	t0 := time.Now()
	net := sim.New(g, func(core.NodeID) core.Protocol { return bareProto{&delivered} },
		sim.WithDelays(0, 1), sim.WithSeed(cfg.Seed))
	pt, err := load.NewPairTable(g, net.PortMap(), cfg.Pairs, cfg.Zipf, cfg.Seed^0x9a1f)
	if err != nil {
		return 0, err
	}
	spent := time.Since(t0)

	calls := make([]bareCall, pt.Len())
	srcs := make([]core.NodeID, pt.Len())
	trees := map[core.NodeID]*graph.Tree{}
	for i := range calls {
		src, dst := pt.Pair(i)
		if trees[src] == nil {
			trees[src] = g.BFSTree(src)
		}
		links, err := net.PortMap().RouteLinks(trees[src].PathFromRoot(dst))
		if err != nil {
			return 0, err
		}
		calls[i].hdr, srcs[i] = anr.Direct(links), src
	}

	t0 = time.Now()
	arr := load.NewPoisson(cfg.Rate, cfg.Seed^0x41a7)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x77e1))
	for sent := 0; sent < cfg.Calls; {
		var last core.Time
		for n := 0; n < batch && sent < cfg.Calls; n, sent = n+1, sent+1 {
			last = arr.Next()
			i := pt.Sample(rng)
			net.Inject(last, srcs[i], &calls[i])
		}
		if _, err := net.RunUntil(last); err != nil {
			return 0, err
		}
	}
	if _, err := net.Run(); err != nil {
		return 0, err
	}
	spent += time.Since(t0)
	if delivered != int64(cfg.Calls) {
		return 0, fmt.Errorf("bare spine delivered %d of %d calls", delivered, cfg.Calls)
	}
	return spent, nil
}

// ---- soak-churn -----------------------------------------------------------

// soakScenario is the driver-heavy path: link flaps, crashes, lossy fabric,
// ARQ, call teardown, per-component elections and nine invariants per epoch.
func soakScenario(seed int64, div int) *scenario {
	n := max(96/div, 24)
	g := fabric(n, 8, seed)
	cfg := faults.Config{
		Seed: seed, Epochs: 5, Mode: topology.ModeBranching,
		Flaps: 4, Crashes: 2, Downtime: 2, Calls: 8,
		Reliable: 8, Loss: 0.1, Dup: 0.05, Corrupt: 0.025, Jitter: 0.05,
	}
	sc := &scenario{g: g}
	sc.rep = func(tr *tracer) (outcome, error) {
		t0 := time.Now()
		res, err := faults.Soak(g, cfg)
		tr.since("faults.soak", t0)
		if err != nil {
			return outcome{}, err
		}
		if !res.OK() {
			return outcome{}, fmt.Errorf("%d invariant violations, first: %s", len(res.Violations), res.Violations[0])
		}
		if res.Epochs != cfg.Epochs {
			return outcome{}, fmt.Errorf("%d of %d epochs completed", res.Epochs, cfg.Epochs)
		}
		if tr != nil {
			tr.counters(res.Metrics)
			tr.counters(res.Sched)
			tr.setValue("faults.epochs", float64(res.Epochs))
			tr.setValue("faults.violations", float64(len(res.Violations)))
			tr.setValue("faults.conv_rounds", float64(res.ConvRounds))
			tr.setValue("faults.elections", float64(res.Elections))
			tr.setValue("faults.flips", float64(res.FaultFlips))
			tr.setValue("reliable.sent", float64(res.RelSent))
			tr.setValue("reliable.retrans", float64(res.RelRetrans))
			tr.setValue("calls.setup", float64(res.CallsSetUp))
			tr.setValue("calls.failed", float64(res.CallsFailed))
		}
		// The soak network's measures plus the algorithm messages of the
		// per-component elections, which run on networks of their own.
		return outcome{ops: modelOps(res.Metrics) + res.ReelectMsgs, ledger: res.Line()}, nil
	}
	return sc
}

// ---- spans ----------------------------------------------------------------

// tracer collects one rep's spans, model counters and layer values.
type tracer struct {
	spans  *spanSet
	values map[string]float64
	clocks map[string][]*timedProto // per-node handler clocks by layer
	cores  int                      // goroutines dispatching handlers
}

func newTracer() *tracer {
	return &tracer{spans: newSpanSet(), values: map[string]float64{}, clocks: map[string][]*timedProto{}, cores: 1}
}

// The recording methods are no-ops on a nil tracer, so a rep is written once
// and runs untraced at the cost of a few clock reads.

func (tr *tracer) since(name string, t0 time.Time) {
	if tr != nil {
		tr.spans.since(name, t0)
	}
}

func (tr *tracer) setValue(name string, v float64) {
	if tr != nil {
		tr.values[name] = v
	}
}

func (tr *tracer) addValue(name string, v float64) {
	if tr != nil {
		tr.values[name] += v
	}
}

// counterFields maps a per-layer counter to the exported fields of
// core.Metrics or sim.SchedStats it sums.
var counterFields = map[string][]string{
	"core.hops":          {"Hops"},
	"core.syscalls":      {"Deliveries", "Injections", "LinkEvents"},
	"core.packets":       {"Packets"},
	"core.header_bits":   {"HeaderBits"},
	"core.finish_ticks":  {"FinishTime"},
	"core.fault_events":  {"FaultDrops", "FaultDups", "FaultCorrupts", "FaultJitters", "FaultReorders", "FaultSlowdowns"},
	"core.cap_drops":     {"CapQueueDrops", "CapLinkDrops"},
	"core.queue_ticks":   {"QueueTicks"},
	"sim.events":         {"Events"},
	"sim.heap_pushes":    {"HeapPushes"},
	"sim.lane_pushes":    {"LanePushes"},
	"sim.ring_pushes":    {"RingPushes"},
	"sim.batched_hops":   {"BatchedHops"},
	"sim.fused_hops":     {"FusedHops"},
	"sim.ring_overflows": {"RingOverflows"},
	"sim.heap_peak":      {"HeapPeak"},
	"sim.ring_peak":      {"RingPeak"},
}

// counters folds one network's counter struct into the rep's values: sums
// across the networks of a rep, maxima for the peaks. Fields are looked up
// by name in the marshalled struct, so a counter a later change removes
// reads as zero here instead of failing to compile.
func (tr *tracer) counters(v any) {
	if tr == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	var fields map[string]float64
	if err := json.Unmarshal(data, &fields); err != nil {
		return
	}
	for name, keys := range counterFields {
		var sum float64
		seen := false
		for _, k := range keys {
			if x, ok := fields[k]; ok {
				sum, seen = sum+x, true
			}
		}
		switch {
		case !seen:
		case strings.HasSuffix(name, "_peak"):
			tr.values[name] = max(tr.values[name], sum)
		default:
			tr.values[name] += sum
		}
	}
}

// timed wraps a factory so every protocol it builds clocks its handlers for
// the named layer. On a nil tracer the factory is returned as is.
func (tr *tracer) timed(layer string, f core.Factory) core.Factory {
	if tr == nil {
		return f
	}
	return func(id core.NodeID) core.Protocol {
		p := &timedProto{inner: f(id)}
		tr.clocks[layer] = append(tr.clocks[layer], p)
		return p
	}
}

// timedProto clocks one node's handler activations and, through timedEnv,
// the sends they issue. A node's activations are serialized, so the clock
// needs no lock even when shard mode runs nodes on two goroutines.
type timedProto struct {
	inner core.Protocol
	env   timedEnv
	calls int64
	total time.Duration
}

// Init runs inside sim.New, outside every handler span, so it is not clocked.
func (p *timedProto) Init(env core.Env) { p.inner.Init(env) }

func (p *timedProto) Deliver(env core.Env, pkt core.Packet) {
	p.env.Env = env
	t0 := time.Now()
	p.inner.Deliver(&p.env, pkt)
	p.total += time.Since(t0)
	p.calls++
}

func (p *timedProto) LinkEvent(env core.Env, port core.Port) {
	p.env.Env = env
	t0 := time.Now()
	p.inner.LinkEvent(&p.env, port)
	p.total += time.Since(t0)
	p.calls++
}

// unwrap returns the protocol a driver check wants to inspect.
func unwrap(p core.Protocol) core.Protocol {
	if tp, ok := p.(*timedProto); ok {
		return tp.inner
	}
	return p
}

// timedEnv clocks Send and Multicast: validation, first-hop routing and the
// inline cut-through walk all happen inside them.
type timedEnv struct {
	core.Env
	send time.Duration
}

func (e *timedEnv) Send(h anr.Header, payload any) error {
	t0 := time.Now()
	err := e.Env.Send(h, payload)
	e.send += time.Since(t0)
	return err
}

func (e *timedEnv) Multicast(hs []anr.Header, payload any) error {
	t0 := time.Now()
	err := e.Env.Multicast(hs, payload)
	e.send += time.Since(t0)
	return err
}

// foldClocks moves the per-node handler clocks into the span set: each
// layer's handler span net of its sends, and the sends as sim.send.
func (tr *tracer) foldClocks() {
	for layer, ps := range tr.clocks {
		for _, p := range ps {
			tr.spans.add(layer+".handler", p.total-p.env.send, p.calls)
			tr.spans.add("sim.send", p.env.send, 0)
		}
	}
	tr.clocks = map[string][]*timedProto{}
}

// layerValues renders one traced rep as per-layer metrics.
func (tr *tracer) layerValues() map[string]float64 {
	tr.foldClocks()
	v := tr.values
	s := tr.spans
	for _, name := range []string{"sim.new", "sim.inject", "sim.run", "sim.send", "topology.records", "traffic.hw", "traffic.sf"} {
		v[name+"_s"] = s.seconds(name)
	}
	if s.count["sim.run"] > 0 {
		v["sim.run_self_s"] = s.self("sim.run", tr.cores).Seconds()
	}
	for _, layer := range []string{"topology", "election"} {
		v[layer+".handler_s"] = s.seconds(layer + ".handler")
		v[layer+".handler_calls"] = float64(s.count[layer+".handler"])
	}
	v["topology.handler_ns_per_call"] = ratio(v["topology.handler_s"]*1e9, v["topology.handler_calls"])
	v["traffic.hw_ns_per_hop"] = ratio(v["traffic.hw_s"]*1e9, v["traffic.hw_hops"])
	v["traffic.sf_ns_per_hop"] = ratio(v["traffic.sf_s"]*1e9, v["traffic.sf_hops"])
	pushes := v["sim.heap_pushes"] + v["sim.lane_pushes"] + v["sim.ring_pushes"] + v["sim.batched_hops"]
	v["sim.heap_bypass_ratio"] = ratio(pushes-v["sim.heap_pushes"], pushes)
	v["sim.fused_hops_per_event"] = ratio(v["sim.fused_hops"], v["sim.events"])
	v["load.calls_per_s"] = ratio(v["load.calls"], s.seconds("load.run"))
	v["faults.s_per_epoch"] = ratio(s.seconds("faults.soak"), v["faults.epochs"])
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- standalone probes ----------------------------------------------------

// alternate times a and b in turn, rounds times each, and returns the median
// seconds of each: two variants compared under the same host conditions.
func alternate(rounds int, a, b func() (float64, error)) (float64, float64, error) {
	var as, bs []float64
	for i := 0; i < rounds; i++ {
		x, err := a()
		if err != nil {
			return 0, 0, err
		}
		y, err := b()
		if err != nil {
			return 0, 0, err
		}
		as, bs = append(as, x), append(bs, y)
	}
	return median(as), median(bs), nil
}

// timeMedian runs f reps times and returns the median duration in seconds.
func timeMedian(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}

// probes times single layers in isolation on the workload's own fabric, the
// same way on every workload: the costs a rep pays inside drivers that offer
// no boundary to wrap.
func (sc *scenario) probes(tr *tracer) error {
	g := sc.g
	tr.setValue("graph.gen_s", sc.genS)
	tr.setValue("graph.bfs_tree_s", timeMedian(5, func() { g.BFSTree(0) }))
	var pm *core.PortMap
	tr.setValue("core.portmap_s", timeMedian(5, func() { pm = core.NewPortMap(g) }))

	links := make([]anr.ID, 64)
	for i := range links {
		links[i] = anr.ID(i%15 + 1)
	}
	hdr := anr.CopyPath(links)
	var codecErr error
	const codecN = 2000
	tr.setValue("anr.codec_ns", 1e9/codecN*timeMedian(5, func() {
		for i := 0; i < codecN; i++ {
			data, err := hdr.Encode(4)
			if err == nil {
				_, err = anr.Decode(data, 4)
			}
			if err != nil {
				codecErr = err
			}
		}
	}))
	if codecErr != nil {
		return fmt.Errorf("anr codec: %w", codecErr)
	}

	tree := graph.RandomTree(4096, sc.seed).BFSTree(0)
	tr.setValue("paths.decompose_s", timeMedian(5, func() { paths.Decompose(tree, paths.Labels(tree)) }))

	// One database holding the whole fabric; a route is cold right after a
	// routing-relevant record change and warm on the next lookup.
	recs := topology.RecordsForGraph(g, pm, nil)
	db := topology.NewDB()
	for _, r := range recs {
		db.Update(r)
	}
	src, dst := core.NodeID(0), core.NodeID(g.N()-1)
	var cold, warm []float64
	var routeErr error
	flip := recs[1]
	flip.Links = append([]topology.LinkInfo(nil), flip.Links...)
	for i := 0; i < 9; i++ {
		flip.Seq++
		flip.Links[0].Load++ // a load change invalidates the routing caches
		db.Update(flip)
		t0 := time.Now()
		_, err := db.Route(src, dst)
		cold = append(cold, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			routeErr = err
		}
		const warmN = 1000
		t0 = time.Now()
		for j := 0; j < warmN; j++ {
			_, _ = db.Route(src, dst) // same answer as the cold lookup above
		}
		warm = append(warm, float64(time.Since(t0).Nanoseconds())/warmN)
	}
	if routeErr != nil {
		return fmt.Errorf("db route: %w", routeErr)
	}
	tr.setValue("topology.db_route_cold_ns", median(cold))
	tr.setValue("topology.db_route_warm_ns", median(warm))

	var pt *load.PairTable
	var ptErr error
	tr.setValue("load.pairtable_s", timeMedian(3, func() { pt, ptErr = load.NewPairTable(g, pm, 0, 1.2, sc.seed) }))
	if ptErr != nil {
		return fmt.Errorf("pair table: %w", ptErr)
	}
	const drawN = 100_000
	perDraw := func(f func()) float64 {
		return 1e9 / drawN * timeMedian(5, func() {
			for i := 0; i < drawN; i++ {
				f()
			}
		})
	}
	arr := load.NewPoisson(4, sc.seed)
	tr.setValue("load.sampler_ns", perDraw(func() { arr.Next() }))
	rng := rand.New(rand.NewSource(sc.seed))
	tr.setValue("load.pair_sample_ns", perDraw(func() { pt.Sample(rng) }))
	var h load.Hist
	tick := int64(0)
	tr.setValue("load.hist_record_ns", perDraw(func() { tick++; h.Record(tick & 4095) }))
	return nil
}
