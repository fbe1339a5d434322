package load

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// checkLedger asserts the conservation invariant that makes the open-loop
// ledger exactly-once: every generated call is settled exactly one way.
func checkLedger(t *testing.T, s *Stats) {
	t.Helper()
	if s.Generated != s.Delivered+s.Blocked+s.Dropped {
		t.Fatalf("ledger leak: generated=%d delivered=%d blocked=%d dropped=%d",
			s.Generated, s.Delivered, s.Blocked, s.Dropped)
	}
}

// TestEngineCleanFabric: on a fault-free, capacity-free fabric every
// generated call is delivered — nothing blocked, nothing dropped — and the
// latency recorders see every call.
func TestEngineCleanFabric(t *testing.T) {
	g := graph.GNP(64, 5.0/64, 3)
	s, err := Run(g, Config{Seed: 1, Calls: 20000, Rate: 0.5, Holding: 200, Zipf: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Generated != 20000 {
		t.Fatalf("generated=%d want 20000", s.Generated)
	}
	if s.Delivered != s.Generated {
		t.Fatalf("clean fabric lost calls: delivered=%d of %d (dropped=%d blocked=%d)",
			s.Delivered, s.Generated, s.Dropped, s.Blocked)
	}
	if s.Late != 0 || s.Dups != 0 || s.Garbled != 0 {
		t.Fatalf("clean fabric reported late=%d dups=%d garbled=%d", s.Late, s.Dups, s.Garbled)
	}
	if s.Setup.n != s.Delivered || s.Transit.n != s.Delivered {
		t.Fatalf("recorder counts %d/%d, want %d", s.Setup.n, s.Transit.n, s.Delivered)
	}
	if s.Setup.Quantile(0.5) < s.Transit.Quantile(0.5) {
		t.Fatalf("setup p50 %d below transit p50 %d", s.Setup.Quantile(0.5), s.Transit.Quantile(0.5))
	}
	if s.MaxInFlight <= 0 || s.PoolChunks <= 0 {
		t.Fatalf("pool never engaged: maxInFlight=%d chunks=%d", s.MaxInFlight, s.PoolChunks)
	}
}

// TestEngineDeterminism: the run is a pure function of the scenario — two
// identical configs produce identical ledgers, latency distributions, and
// runtime metrics.
func TestEngineDeterminism(t *testing.T) {
	g := graph.GNP(64, 5.0/64, 3)
	cfg := Config{Seed: 7, Calls: 10000, Rate: 0.8, Holding: 150, Zipf: 1.2, BurstFactor: 6,
		NCUCap: 4, Capacity: core.Capacity{NCUQueue: 8, LinkRate: 0.5}}
	a, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("identical configs diverged:\n a: gen=%d del=%d blk=%d drp=%d finish=%d\n b: gen=%d del=%d blk=%d drp=%d finish=%d",
			a.Generated, a.Delivered, a.Blocked, a.Dropped, a.Finish,
			b.Generated, b.Delivered, b.Blocked, b.Dropped, b.Finish)
	}
	// A different seed must actually change the outcome.
	cfg.Seed = 8
	c, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Finish == c.Finish && a.Delivered == c.Delivered && a.Blocked == c.Blocked {
		t.Fatalf("seeds 7 and 8 produced identical outcomes")
	}
}

// ledgerLine renders every field of a run's outcome on one line.
func ledgerLine(s *Stats) string {
	return fmt.Sprintf("gen=%d del=%d blk=%d drp=%d late=%d dups=%d garbled=%d setup={%s} transit={%s} inflight=%d chunks=%d finish=%d net={%s}",
		s.Generated, s.Delivered, s.Blocked, s.Dropped, s.Late, s.Dups, s.Garbled,
		s.Setup.Summary(), s.Transit.Summary(), s.MaxInFlight, s.PoolChunks, s.Finish, s.Net.String())
}

// TestEngineLedgerGolden pins the whole ledger of the engine tests' five
// scenarios plus one whose admission deadlines (4*Holding + 256) and most
// holding times lie past the call-timer ring's cap, so timers there wait in
// the far heap. Timers of one instant expire in no fixed order; these lines
// are what says that order is invisible.
func TestEngineLedgerGolden(t *testing.T) {
	gnp64 := graph.GNP(64, 5.0/64, 3)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
		want string
	}{
		{"clean", gnp64, Config{Seed: 1, Calls: 20000, Rate: 0.5, Holding: 200, Zipf: 1.1}, "gen=20000 del=20000 blk=0 drp=0 late=0 dups=0 garbled=0 setup={n=20000 mean=2.0 p50=2 p99=3 p999=3 max=4} transit={n=20000 mean=1.0 p50=1 p99=1 p999=2 max=2} inflight=256 chunks=1 finish=39946 net={hops=44616 deliveries=20000 (copies=0) injections=20000 linkEvents=0 sends=20000 packets=20000 drops=0 time=39946}"},
		{"bursty-capped", gnp64, Config{Seed: 7, Calls: 10000, Rate: 0.8, Holding: 150, Zipf: 1.2, BurstFactor: 6,
			NCUCap: 4, Capacity: core.Capacity{NCUQueue: 8, LinkRate: 0.5}}, "gen=10000 del=1593 blk=8338 drp=69 late=0 dups=0 garbled=0 setup={n=1593 mean=2.0 p50=2 p99=3 p999=3 max=4} transit={n=1593 mean=1.0 p50=1 p99=1 p999=2 max=2} inflight=169 chunks=1 finish=14768 net={hops=3776 deliveries=1593 (copies=0) injections=1662 linkEvents=0 sends=1662 packets=1662 drops=0 time=14768 cap(queueDrops=0 linkDrops=69 queueTicks=58)}"},
		{"blocking", graph.Ring(16), Config{Seed: 2, Calls: 8000, Rate: 2.0, Holding: 400, NCUCap: 1}, "gen=8000 del=81 blk=7919 drp=0 late=0 dups=0 garbled=0 setup={n=81 mean=2.0 p50=2 p99=2 p999=2 max=2} transit={n=81 mean=1.0 p50=1 p99=1 p999=1 max=1} inflight=8 chunks=1 finish=3971 net={hops=334 deliveries=81 (copies=0) injections=81 linkEvents=0 sends=81 packets=81 drops=0 time=3971}"},
		{"capacity-drops", graph.Star(24), Config{Seed: 4, Calls: 12000, Rate: 3.0, Holding: 100, NCUCap: 64,
			Capacity: core.Capacity{NCUQueue: 2, LinkRate: 0.05, LinkBurst: 2}}, "gen=12000 del=3239 blk=4689 drp=4072 late=0 dups=0 garbled=0 setup={n=3239 mean=2.1 p50=2 p99=3 p999=3 max=3} transit={n=3239 mean=1.0 p50=1 p99=2 p999=2 max=2} inflight=4142 chunks=5 finish=3994 net={hops=6866 deliveries=3239 (copies=0) injections=7289 linkEvents=0 sends=7289 packets=7289 drops=0 time=3994 cap(queueDrops=28 linkDrops=4044 queueTicks=614)}"},
		{"zombies", graph.GNP(48, 5.0/48, 6), Config{Seed: 5, Calls: 10000, Rate: 0.6, Holding: 120, NCUCap: 8,
			Faults: core.MsgFaults{Drop: 0.05, Dup: 0.05}}, "gen=10000 del=8153 blk=893 drp=954 late=0 dups=940 garbled=0 setup={n=8153 mean=2.0 p50=2 p99=3 p999=3 max=4} transit={n=8153 mean=1.0 p50=1 p99=2 p999=2 max=3} inflight=9107 chunks=9 finish=16557 net={hops=19670 deliveries=9093 (copies=0) injections=9107 linkEvents=0 sends=9107 packets=9107 drops=0 time=16557 faults(drop=1026 dup=1012 corrupt=0 jitter=0)}"},
		{"far-heap", gnp64, Config{Seed: 3, Calls: 2000, Rate: 0.01, Holding: 1 << 15, NCUCap: 8,
			Faults: core.MsgFaults{Drop: 0.02}}, "gen=2000 del=1119 blk=833 drp=48 late=0 dups=0 garbled=0 setup={n=1119 mean=2.0 p50=2 p99=2 p999=2 max=2} transit={n=1119 mean=1.0 p50=1 p99=1 p999=1 max=1} inflight=230 chunks=1 finish=194331 net={hops=2670 deliveries=1119 (copies=0) injections=1167 linkEvents=0 sends=1167 packets=1167 drops=0 time=194331 faults(drop=48 dup=0 corrupt=0 jitter=0)}"},
	} {
		s, err := Run(tc.g, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkLedger(t, s)
		if got := ledgerLine(s); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestEngineBlocking: with a tiny per-endpoint concurrency cap and offered
// load far above capacity, a substantial share of arrivals must be blocked
// at admission — the Erlang loss behavior — while the ledger stays exact.
func TestEngineBlocking(t *testing.T) {
	g := graph.Ring(16)
	s, err := Run(g, Config{Seed: 2, Calls: 8000, Rate: 2.0, Holding: 400, NCUCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Blocked == 0 {
		t.Fatalf("overloaded NCUCap=1 ring blocked nothing (delivered=%d dropped=%d)",
			s.Delivered, s.Dropped)
	}
	if s.Delivered == 0 {
		t.Fatalf("nothing delivered under blocking")
	}
}

// TestEngineCapacityDrops: finite NCU queues and starved link buckets under
// overload must surface as runtime capacity drops and engine-level Dropped
// calls; the conservation ledger must still balance exactly.
func TestEngineCapacityDrops(t *testing.T) {
	g := graph.Star(24)
	s, err := Run(g, Config{
		Seed: 4, Calls: 12000, Rate: 3.0, Holding: 100, NCUCap: 64,
		Capacity: core.Capacity{NCUQueue: 2, LinkRate: 0.05, LinkBurst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Net.CapQueueDrops == 0 && s.Net.CapLinkDrops == 0 {
		t.Fatalf("overloaded capacitated star recorded no capacity drops")
	}
	if s.Dropped == 0 {
		t.Fatalf("capacity drops occurred but no call was dropped (queueDrops=%d linkDrops=%d)",
			s.Net.CapQueueDrops, s.Net.CapLinkDrops)
	}
}

// TestEngineFaultyFabric: under message loss and duplication the ledger
// still settles every call exactly once; duplicates surface in Dups, not as
// extra deliveries.
func TestEngineFaultyFabric(t *testing.T) {
	g := graph.GNP(48, 5.0/48, 6)
	s, err := Run(g, Config{
		Seed: 5, Calls: 10000, Rate: 0.6, Holding: 120, NCUCap: 8,
		Faults: core.MsgFaults{Drop: 0.05, Dup: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Dropped == 0 {
		t.Fatalf("5%% per-hop loss dropped no calls")
	}
	if s.Dups == 0 {
		t.Fatalf("5%% per-hop duplication produced no duplicate deliveries")
	}
	if s.Delivered == 0 {
		t.Fatalf("nothing delivered under faults")
	}
}

// TestEnginePoolReuse: on a clean fabric the record pool must stay O(1) in
// the in-flight population — far below one record per generated call.
func TestEnginePoolReuse(t *testing.T) {
	g := graph.GNP(64, 5.0/64, 3)
	s, err := Run(g, Config{Seed: 9, Calls: 50000, Rate: 1.0, Holding: 100})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	records := s.PoolChunks * recChunk
	if int64(records) > s.Generated/4 {
		t.Fatalf("pool grew to %d records for %d calls (maxInFlight=%d): free list not engaged",
			records, s.Generated, s.MaxInFlight)
	}
	if records < s.MaxInFlight {
		t.Fatalf("pool accounting broken: %d records < maxInFlight %d", records, s.MaxInFlight)
	}
}

// TestEngineZeroCalls: an empty run settles cleanly.
func TestEngineZeroCalls(t *testing.T) {
	g := graph.Ring(8)
	s, err := Run(g, Config{Seed: 1, Calls: 0, Rate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Generated != 0 || s.Finish != 0 {
		t.Fatalf("empty run generated=%d finish=%d", s.Generated, s.Finish)
	}
}

// TestEngineRejectsBadConfig: values no sampler can honour come back as a
// typed *ConfigError naming the field — NaN and the infinities included,
// which slip through plain `<= 0` guards because they compare false.
func TestEngineRejectsBadConfig(t *testing.T) {
	g := graph.Ring(8)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"Rate", Config{Calls: 10, Rate: 0}},
		{"Rate", Config{Calls: 10, Rate: -1}},
		{"Rate", Config{Calls: 10, Rate: nan}},
		{"Rate", Config{Calls: 10, Rate: inf}},
		{"Rate", Config{Calls: 10, Rate: -inf}},
		{"Calls", Config{Calls: -1, Rate: 1}},
		{"Zipf", Config{Calls: 10, Rate: 1, Zipf: nan}},
		{"Zipf", Config{Calls: 10, Rate: 1, Zipf: inf}},
		{"Zipf", Config{Calls: 10, Rate: 1, Zipf: -inf}},
		{"BurstFactor", Config{Calls: 10, Rate: 1, BurstFactor: nan}},
		{"BurstFactor", Config{Calls: 10, Rate: 1, BurstFactor: inf}},
		// 4*Holding + 256 wraps core.Time: every admission timer would fire
		// at once and drop every call.
		{"Holding", Config{Calls: 10, Rate: 1, Holding: 1 << 61, NCUCap: 4}},
		{"Holding", Config{Calls: 10, Rate: 1, Holding: maxHolding + 1}},
	} {
		s, err := Run(g, tc.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%+v: got stats %v, err %v; want a *ConfigError", tc.cfg, s, err)
		}
		if ce.Field != tc.field || ce.Reason == "" {
			t.Fatalf("%+v: error %q names field %q, want %q", tc.cfg, err, ce.Field, tc.field)
		}
	}
}

// TestEngineLongestHolding: the largest Holding validate admits runs clean,
// its admission timers waiting in the far heap.
func TestEngineLongestHolding(t *testing.T) {
	s, err := Run(graph.GNP(64, 5.0/64, 3), Config{Seed: 1, Calls: 2000, Rate: 1, Holding: maxHolding, NCUCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkLedger(t, s)
	if s.Dropped != 0 || s.Delivered == 0 {
		t.Fatalf("clean fabric at Holding 2^40: delivered=%d dropped=%d", s.Delivered, s.Dropped)
	}
}

// TestEngineRefusedSendFailsRun: a caller's sim.WithDmax shorter than the
// routes makes the runtime refuse the setup sends. That is an error of the
// run (the handler's core.HandlerError), naming the pair, not calls Dropped
// on a fault-free, uncapped fabric.
func TestEngineRefusedSendFailsRun(t *testing.T) {
	_, err := Run(graph.Path(16), Config{Seed: 1, Calls: 1000, Rate: 1}, sim.WithDmax(2))
	var he *core.HandlerError
	if !errors.As(err, &he) || !errors.Is(err, anr.ErrPathTooLong) || !strings.Contains(err.Error(), "call ") {
		t.Fatalf("routes past dmax: err %v; want a core.HandlerError wrapping anr.ErrPathTooLong, naming the call's pair", err)
	}
}

// openLoopRows are the benchmark's two open-loop workloads at seed 1 on a
// 1024-node degree-6 fabric: Poisson on the batch-256 admission path, and
// Zipf with NCU caps and token buckets on the batch-1 path.
func openLoopRows() (*graph.Graph, []Config) {
	return graph.GNP(1024, 6.0/1024, 1), []Config{
		{Seed: 1, Calls: 300_000, Rate: 4, Holding: 256},
		{Seed: 1, Calls: 240_000, Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
			Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8}},
	}
}

// TestOpenLoopAllocsPerRun pins what one whole open-loop run allocates,
// set-up and the call timers' high-water mark included, which
// TestOpenLoopAllocsPerCall's difference cancels. Measured 2,935 and 1,964
// with the pair table's routes and headers carved from shared arrays; 11,100
// and 10,129 with an array per route and per header (two per pair).
func TestOpenLoopAllocsPerRun(t *testing.T) {
	g, cfgs := openLoopRows()
	for _, cfg := range cfgs {
		allocs := testing.AllocsPerRun(1, func() {
			s, err := Run(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkLedger(t, s)
		})
		t.Logf("NCUCap %d: %.0f allocs per run", cfg.NCUCap, allocs)
		if allocs > 3_500 {
			t.Errorf("NCUCap %d: %.0f allocs per run, want <= 3,500", cfg.NCUCap, allocs)
		}
	}
}

// TestOpenLoopAllocsPerCall pins the load plane's marginal allocation cost:
// the heap objects 50k further calls add to a run (set-up — network, pair
// table, first pool chunks — cancels in the difference) stay at or below 0.1
// per call on both admission paths. What remains is amortised growth: hop
// arena chunks (one per 512 reverse-route hops), event-record and call-record
// chunks, the call timers' node slab reaching its high-water mark. CI runs it a
// second time outside the race job (scripts/ci-smokes.sh): without the race
// runtime's own allocations it is the number docs/PERF.md quotes.
func TestOpenLoopAllocsPerCall(t *testing.T) {
	g := graph.GNP(256, 6.0/256, 3)
	mallocs := func(cfg Config) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Run(g, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		checkLedger(t, s)
		return after.Mallocs - before.Mallocs
	}
	const base, extra = 20_000, 50_000
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"batch-256", Config{Seed: 1, Rate: 2, Holding: 256}},
		{"batch-1", Config{Seed: 1, Rate: 2, Holding: 256, Zipf: 1.2, NCUCap: 64,
			Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8}}},
	} {
		short, long := tc.cfg, tc.cfg
		short.Calls, long.Calls = base, base+extra
		a, b := mallocs(short), mallocs(long)
		perCall := (float64(b) - float64(a)) / extra
		t.Logf("%s: %d allocs at %d calls, %d at %d: %.4f allocs/call", tc.name, a, base, b, base+extra, perCall)
		if perCall > 0.1 {
			t.Errorf("%s: %.3f allocs per call, want <= 0.1", tc.name, perCall)
		}
	}
}
