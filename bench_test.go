// Benchmarks: one per experiment of the paper (see DESIGN.md's index and
// EXPERIMENTS.md for measured-vs-paper results), plus micro-benchmarks of
// the hot substrate paths. Run with:
//
//	go test -bench=. -benchmem
package fastnet_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/experiments"
	"fastnet/internal/faults"
	"fastnet/internal/globalfn"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/paths"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// benchSpec runs one experiment spec per iteration.
func benchSpec(b *testing.B, id string) {
	spec, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := spec.Run(experiments.Env{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkE1BroadcastVsFlooding(b *testing.B) { benchSpec(b, "E1") }
func BenchmarkE2BroadcastTime(b *testing.B)       { benchSpec(b, "E2") }
func BenchmarkE3LowerBound(b *testing.B)          { benchSpec(b, "E3") }
func BenchmarkE4DeadlockExample(b *testing.B)     { benchSpec(b, "E4") }
func BenchmarkE5Convergence(b *testing.B)         { benchSpec(b, "E5") }
func BenchmarkE6ElectionSyscalls(b *testing.B)    { benchSpec(b, "E6") }
func BenchmarkE7ElectionBaselines(b *testing.B)   { benchSpec(b, "E7") }
func BenchmarkE8Binomial(b *testing.B)            { benchSpec(b, "E8") }
func BenchmarkE9Fibonacci(b *testing.B)           { benchSpec(b, "E9") }
func BenchmarkE10Traditional(b *testing.B)        { benchSpec(b, "E10") }
func BenchmarkE11OptimalTime(b *testing.B)        { benchSpec(b, "E11") }
func BenchmarkE12StarVsTree(b *testing.B)         { benchSpec(b, "E12") }
func BenchmarkE13CausalTree(b *testing.B)         { benchSpec(b, "E13") }
func BenchmarkE14BFSLayers(b *testing.B)          { benchSpec(b, "E14") }
func BenchmarkE15HeaderGrowth(b *testing.B)       { benchSpec(b, "E15") }
func BenchmarkE16HardwareAblation(b *testing.B)   { benchSpec(b, "E16") }
func BenchmarkE17Duality(b *testing.B)            { benchSpec(b, "E17") }
func BenchmarkE18DataVsControl(b *testing.B)      { benchSpec(b, "E18") }
func BenchmarkE19PIF(b *testing.B)                { benchSpec(b, "E19") }

// E20/E21 are multi-second sweeps of invariant-checked soaks; in short mode
// each benchmarks a single scaled-down soak point so `-short -bench .` stays
// fast while still exercising the churn and lossy-link paths.
func BenchmarkE20Degradation(b *testing.B) {
	if testing.Short() {
		benchSoak(b, faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
		})
		return
	}
	benchSpec(b, "E20")
}

func BenchmarkE21Reliability(b *testing.B) {
	if testing.Short() {
		benchSoak(b, faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2, NoElection: true,
			Reliable: 8, Loss: 0.1, Dup: 0.05, Corrupt: 0.025, Jitter: 0.05,
		})
		return
	}
	benchSpec(b, "E21")
}

// E22 is a 100-run election sweep; short mode benchmarks one soak point with
// the reorder profile live (invariant I7 included) instead.
func BenchmarkE22Reorder(b *testing.B) {
	if testing.Short() {
		benchSoak(b, faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2,
			Reorder: 0.2, ReorderWindow: 12,
		})
		return
	}
	benchSpec(b, "E22")
}

// E23 is an 80-run RTO sweep; short mode benchmarks one gray soak point
// (slowdown + stall, invariant I8 included) instead.
func BenchmarkE23Gray(b *testing.B) {
	if testing.Short() {
		benchSoak(b, faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2,
			Reliable: 4, Slow: 0.2, Stall: 1,
		})
		return
	}
	benchSpec(b, "E23")
}

// E24 is a 12-run rate sweep plus two bisection probes; short mode
// benchmarks one capped open-loop run (ledger invariant included) instead.
func BenchmarkE24OpenLoop(b *testing.B) {
	if testing.Short() {
		benchOpenLoop(b, load.Config{
			Seed: 7, Calls: 5000, Rate: 1, Holding: 200, Zipf: 1.1,
			NCUCap: 8, Capacity: core.Capacity{NCUQueue: 16},
		})
		return
	}
	benchSpec(b, "E24")
}

// benchSoak runs one soak config per iteration on E20/E21's fabric.
func benchSoak(b *testing.B, cfg faults.Config) {
	g := graph.GNP(24, 0.25, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := faults.Soak(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatal("invariant violation")
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkANREncodeDecode(b *testing.B) {
	links := make([]anr.ID, 64)
	for i := range links {
		links[i] = anr.ID(i%15 + 1)
	}
	h := anr.CopyPath(links)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := h.Encode(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := anr.Decode(data, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeLabelDecompose(b *testing.B) {
	g := graph.RandomTree(4096, 1)
	tr := g.BFSTree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labels := paths.Labels(tr)
		d := paths.Decompose(tr, labels)
		if _, max := d.Rounds(0); max > 13 {
			b.Fatal("bound violated")
		}
	}
}

// BenchmarkFanoutRebuild96 and its siblings time paths.NewFanout, the plan a
// branching-paths origin rebuilds whenever its believed topology changes,
// over random trees of the soak-churn fabric's 96 nodes, 1,024 and 4,096
// nodes. The decomposition is built in pooled scratch, so allocs/op counts
// what the plan keeps.
func BenchmarkFanoutRebuild96(b *testing.B)   { benchFanoutRebuild(b, 96) }
func BenchmarkFanoutRebuild1024(b *testing.B) { benchFanoutRebuild(b, 1024) }
func BenchmarkFanoutRebuild4096(b *testing.B) { benchFanoutRebuild(b, 4096) }

func benchFanoutRebuild(b *testing.B, n int) {
	trees := make([]*graph.Tree, 8)
	for i := range trees {
		trees[i] = graph.RandomTree(n, int64(i+1)).BFSTree(graph.NodeID(i))
	}
	link := func(_, to graph.NodeID) (anr.ID, bool) { return anr.ID(1 + int(to)%250), true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paths.NewFanout(trees[i%len(trees)], link); err != nil {
			b.Fatal(err)
		}
	}
}

// reportControlPlane adds the two numbers the repository benchmark's ctl-c0
// row gates on to a C = 0 control-plane benchmark: heap objects per node
// (the budget the package's alloc test pins) and model operations — hops
// plus system calls, what the paper counts — per second.
func reportControlPlane(b *testing.B, n int, opsPerRun int64, mallocs0 uint64) {
	b.StopTimer()
	b.ReportMetric(float64(mallocs()-mallocs0)/float64(b.N)/float64(n), "allocs/node")
	b.ReportMetric(float64(opsPerRun)*float64(b.N)/b.Elapsed().Seconds(), "model-ops/s")
}

// mallocs is the process's heap-object count so far (ReadMemStats stops the
// world: call it outside the timed region).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkSingleBroadcast4096 is one half of ctl-c0: build a 4096-node
// network, warm-start the origin, broadcast over branching paths. It pins
// the per-node construction and relay cost (TestSingleBroadcastAllocsPerNode
// holds the budget).
func BenchmarkSingleBroadcast4096(b *testing.B) {
	g := graph.RandomTree(4096, 2)
	var ops int64
	b.ReportAllocs()
	m0 := mallocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := topology.SingleBroadcast(g, 0, topology.ModeBranching)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.Deliveries != 4095 {
			b.Fatal("bad delivery count")
		}
		ops = res.Metrics.Hops + res.Metrics.Syscalls()
	}
	reportControlPlane(b, 4096, ops, m0)
}

// BenchmarkGosimBroadcast1024 is BenchmarkSingleBroadcast4096's scenario on
// the goroutine runtime (smaller n: every iteration spawns one goroutine per
// NCU): build the network, warm-start the origin, broadcast to quiescence,
// tear down. It tracks the runtime the DES cross-validates against, so
// regressions in channel routing, quiescence detection, or shutdown are
// visible alongside the scheduler numbers.
func BenchmarkGosimBroadcast1024(b *testing.B) {
	g := graph.RandomTree(1024, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := gosim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			gosim.WithDmax(g.N()))
		net.Protocol(0).(topology.Maintainer).Preload(topology.RecordsForGraph(g, net.PortMap(), nil))
		net.Inject(0, topology.Trigger{})
		err := net.AwaitQuiescence(30 * time.Second)
		m := net.Metrics()
		net.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
		if m.Deliveries != 1023 {
			b.Fatalf("covered %d of 1023 nodes", m.Deliveries)
		}
	}
}

// benchJitterBroadcast mirrors the bench artifact's JitterBroadcast rows:
// a dense GNP flood under hardware delay c with every hop jittered up to 384
// ticks — far past the historical 64-slot ring window — and NCU slowdowns
// stretching the activation backlog. The auto-sized calendar ring keeps the
// run at ~100% heap bypass; compare against a fixed 64-slot ring
// (WithFixedRing(64) in sim's own tests), which sends most hops through a
// million-entry heap (see docs/PERF.md).
func benchJitterBroadcast(b *testing.B, c core.Time, shards int) {
	faults := core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512}
	n := 1024
	if testing.Short() {
		n = 192 // same shape, CI-smoke sized
	}
	g := graph.GNP(n, 14.0/float64(n), 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := []sim.Option{sim.WithDelays(c, 1), sim.WithSeed(7), sim.WithMsgFaults(faults)}
		if shards > 0 {
			opts = append(opts, sim.WithShards(shards))
		}
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil), opts...)
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		for u := 0; u < g.N(); u += 8 {
			net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
			net.Inject(core.Time(u%8), core.NodeID(u), topology.Trigger{})
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if net.Metrics().Deliveries == 0 {
			b.Fatal("flood delivered nothing")
		}
	}
}

func BenchmarkJitterBroadcastC2(b *testing.B)       { benchJitterBroadcast(b, 2, 0) }
func BenchmarkJitterBroadcastC8(b *testing.B)       { benchJitterBroadcast(b, 8, 0) }
func BenchmarkJitterBroadcastC8Shard1(b *testing.B) { benchJitterBroadcast(b, 8, 1) } // the shard-mode contract alone: what p = 1 costs the classic row above
func BenchmarkJitterBroadcastC8Shard4(b *testing.B) { benchJitterBroadcast(b, 8, 4) }

// benchOpenLoop runs one open-loop load-plane scenario per iteration on a
// GNP-1024 fabric, checking the exactly-once ledger and that the record pool
// engaged (allocations bounded by pool chunks, not by generated calls).
// The repository benchmark's openloop-* workloads run the same load plane at
// 300k and 240k calls; short mode scales a million generated calls here down
// to a hundred thousand.
func benchOpenLoop(b *testing.B, cfg load.Config) {
	g := graph.GNP(1024, 6.0/1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := load.Run(g, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if s.Generated != s.Delivered+s.Blocked+s.Dropped {
			b.Fatalf("ledger leak: gen=%d del=%d blk=%d drp=%d",
				s.Generated, s.Delivered, s.Blocked, s.Dropped)
		}
		if int64(s.PoolChunks*1024) > s.Generated {
			b.Fatalf("record pool not engaged: %d pooled records for %d calls",
				s.PoolChunks*1024, s.Generated)
		}
	}
}

func openLoopCalls() int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

func BenchmarkOpenLoopPoisson(b *testing.B) {
	benchOpenLoop(b, load.Config{Seed: 1, Calls: openLoopCalls(), Rate: 4, Holding: 256})
}

func BenchmarkOpenLoopBurst(b *testing.B) {
	benchOpenLoop(b, load.Config{Seed: 1, Calls: openLoopCalls(), Rate: 4, BurstFactor: 8, Holding: 256})
}

func BenchmarkOpenLoopZipf(b *testing.B) {
	benchOpenLoop(b, load.Config{
		Seed: 1, Calls: openLoopCalls(), Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
		Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8},
	})
}

// benchRoutePairs routes the pair table's batch shape — 4,096 random ordered
// pairs — on a degree-6 random fabric of n nodes, where each pair's search
// is the cost that grows with n.
func benchRoutePairs(b *testing.B, n int) {
	g := graph.GNP(n, 6.0/float64(n), 1)
	pm := core.NewPortMap(g)
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]core.NodeID, 4096)
	for i := range pairs {
		pairs[i] = [2]core.NodeID{core.NodeID(rng.Intn(n)), core.NodeID(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pm.RoutePairs(g, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoutePairs1024(b *testing.B)  { benchRoutePairs(b, 1024) }
func BenchmarkRoutePairs4096(b *testing.B)  { benchRoutePairs(b, 4096) }
func BenchmarkRoutePairs16384(b *testing.B) { benchRoutePairs(b, 16384) }

// BenchmarkElection1024 is the other half of ctl-c0: one §4 token election,
// every node starting. It pins the handler cost per capture — domain
// bookkeeping, route derivation, messages (TestElectionAllocsPerNode holds
// the budget).
func BenchmarkElection1024(b *testing.B) {
	g := graph.GNP(1024, 4.0/1024, 3)
	starters := make([]core.NodeID, 1024)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	var ops int64
	b.ReportAllocs()
	m0 := mallocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := election.Run(g, election.AlgoToken, starters)
		if err != nil {
			b.Fatal(err)
		}
		if res.AlgorithmMessages > 6*1024 {
			b.Fatal("6n bound violated")
		}
		ops = res.Metrics.Hops + res.Metrics.Syscalls()
	}
	reportControlPlane(b, 1024, ops, m0)
}

// BenchmarkReliableAdaptive times E23's adaptive sender: 64 frames through
// the Jacobson/Karn estimator on a two-node fabric.
func BenchmarkReliableAdaptive(b *testing.B) {
	const msgs = 64
	g := graph.Path(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sender *reliable.Node
		net := sim.New(g, func(id core.NodeID) core.Protocol {
			nd := reliable.NewNode(id, reliable.Config{RTO: 4, MaxBackoff: 64, Adaptive: true, MinRTO: 2, MaxRTO: 64})
			if id == 0 {
				sender = nd
				return &relBenchNode{Node: nd}
			}
			return nd
		}, sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(1))
		horizon := core.Time(msgs*8 + 400)
		for k := 0; k < msgs; k++ {
			net.Inject(core.Time(k*8), 0, relBenchSend{})
		}
		for t := core.Time(4); t <= horizon; t += 4 {
			net.Inject(t, 0, reliable.Tick{})
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if got := sender.E.Stats().Acked; got != msgs {
			b.Fatalf("acked %d of %d", got, msgs)
		}
	}
}

// relBenchSend commands the bench sender to open one reliable frame.
type relBenchSend struct{}

// relBenchNode drives an adaptive reliable endpoint toward its neighbor.
type relBenchNode struct {
	*reliable.Node
}

func (p *relBenchNode) Deliver(env core.Env, pkt core.Packet) {
	if _, ok := pkt.Payload.(relBenchSend); ok {
		pt, ok := env.PortToward(1)
		if !ok {
			return
		}
		_ = p.E.SendRoute(env, 1, anr.Direct([]anr.ID{pt.Local}), pkt.Payload)
		return
	}
	p.Node.Deliver(env, pkt)
}

// BenchmarkDetectorPhi mirrors the bench artifact's DetectorPhi row: 64
// probe periods of the phi-accrual detector against a live leader.
func BenchmarkDetectorPhi(b *testing.B) {
	const (
		beats  = 64
		period = 16
	)
	g := graph.Path(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dets := make([]*election.Detector, 2)
		net := sim.New(g, func(id core.NodeID) core.Protocol {
			dets[id] = election.NewAdaptiveDetector(id, 3)
			return &election.DetectorNode{D: dets[id]}
		}, sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(1))
		links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		dets[0].SetLeader(1, anr.Direct(links))
		dets[1].SetLeader(1, nil)
		for k := 1; k <= beats; k++ {
			net.Inject(core.Time(k*period), 0, election.BeatTick{})
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		st := dets[0].Stats()
		if st.Suspected || st.Probes == 0 || st.LastAckTick == 0 {
			b.Fatalf("detector state wrong: %s", st)
		}
	}
}

func BenchmarkOptimalTimeRecursion(b *testing.B) {
	p := globalfn.Params{C: 3, P: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.OptimalTime(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeBasedExecution(b *testing.B) {
	p := globalfn.Params{C: 1, P: 1}
	tstar, err := p.OptimalTime(2048)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := p.OptimalTree(tstar)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]globalfn.Value, tr.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := globalfn.Execute(tr, p, inputs, globalfn.Sum, false)
		if err != nil {
			b.Fatal(err)
		}
		if globalfn.Time(res.Finish) != tstar {
			b.Fatal("finish mismatch")
		}
	}
}

// --- routing-plane micro-benchmarks ---
//
// Warm vs cold pairs measure the routing plane: the warm variant routes from
// one fixed source to rotating destinations between topology updates — the
// product's pattern, a node routing from its own map while it is quiet — so
// every query reuses the database's one tree and builds a fresh header; the
// cold variant bumps the database version before every query by
// re-announcing a record with a changed load, so each query also rebuilds
// the view's tree.

// benchRoutingDB builds a warmed database over a 256-node random graph.
func benchRoutingDB(b *testing.B) *topology.DB {
	b.Helper()
	g := graph.GNP(256, 8.0/256, 17)
	pm := core.NewPortMap(g)
	db := topology.NewDB()
	for _, r := range topology.RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	if _, err := db.Route(0, 255); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkDBRouteWarm(b *testing.B) {
	db := benchRoutingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := core.NodeID((i*97 + 13) % 256)
		if _, err := db.Route(0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBRouteCold(b *testing.B) {
	db := benchRoutingDB(b)
	rec, _ := db.Record(0)
	rec.Links = append([]topology.LinkInfo(nil), rec.Links...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A load-only change keeps every min-hop route identical while
		// still bumping the version, so each query rebuilds its tree.
		rec.Seq++
		rec.Links[0].Load++
		db.Update(rec)
		src := core.NodeID(i * 31 % 256)
		dst := core.NodeID((i*97 + 13) % 256)
		if _, err := db.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBRouteMinLoadWarm(b *testing.B) {
	db := benchRoutingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := core.NodeID((i*97 + 13) % 256)
		if _, err := db.RouteMinLoad(0, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDBRouteMinLoadCold(b *testing.B) {
	db := benchRoutingDB(b)
	rec, _ := db.Record(0)
	rec.Links = append([]topology.LinkInfo(nil), rec.Links...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Seq++
		rec.Links[0].Load++
		db.Update(rec)
		src := core.NodeID(i * 31 % 256)
		dst := core.NodeID((i*97 + 13) % 256)
		if _, err := db.RouteMinLoad(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
