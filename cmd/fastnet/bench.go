package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/experiments"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// benchRow is one benchmark's measurement in the BENCH_<date>.json artifact.
// EventsPerOp/EventsPerSec are reported only for the event-core micro
// benchmarks, where the discrete-event scheduler's dispatch count is
// observable (it is a deterministic per-iteration constant).
type benchRow struct {
	Name         string  `json:"name"`
	Iters        int     `json:"iters"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  int64   `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// CallsPerOp/CallsPerSec are reported by the open-loop load-plane rows:
	// calls generated per iteration and the sustained generation throughput.
	CallsPerOp  int64   `json:"calls_per_op,omitempty"`
	CallsPerSec float64 `json:"calls_per_sec,omitempty"`
	// MaxProcs is GOMAXPROCS at measurement time, per row: the sharded rows
	// raise it to use all cores, and a throughput number is meaningless
	// without knowing how many cores it was allowed to use.
	MaxProcs int `json:"maxprocs"`
	// Shards is the event-core count of the sharded scheduler rows (absent
	// for classic serial benchmarks).
	Shards int `json:"shards,omitempty"`
}

// benchFile is the BENCH_<date>.json schema: enough machine context to make
// two artifacts comparable, then one row per benchmark.
type benchFile struct {
	Date       string     `json:"date"`
	GoVersion  string     `json:"go"`
	MaxProcs   int        `json:"maxprocs"`
	Notes      []string   `json:"notes,omitempty"` // free-form context (e.g. baseline deltas), added by hand
	Benchmarks []benchRow `json:"benchmarks"`
}

// runBench runs the experiment suite plus the event-core micro benchmarks
// benchtime-style (each case is rerun until the measurement is stable, via
// testing.Benchmark) and writes the results as a BENCH_<date>.json artifact
// for trend tracking; compare two artifacts — or `go test -bench` output —
// with benchstat as described in docs/PERF.md, or in-process against a
// committed baseline with -compare.
func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	outPath := fs.String("o", "", "output path (default BENCH_<date>.json)")
	idList := fs.String("ids", "all", "comma-separated experiment IDs to benchmark, 'all', or 'none'")
	micro := fs.Bool("micro", true, "include the event-core micro benchmarks (events/sec)")
	runFilter := fs.String("run", "", "regexp selecting benchmark names (filters experiment IDs, micro cases, and -from rows)")
	list := fs.Bool("list", false, "print every benchmark name this machine would run, then exit")
	compare := fs.String("compare", "", "baseline BENCH_<date>.json to diff against (after writing the artifact)")
	threshold := fs.Float64("threshold", 10, "ns/op regression tolerance for -compare, in percent; exceeding it exits nonzero")
	requireAll := fs.Bool("require-all", false, "with -compare, fail when a baseline benchmark is missing from the new run")
	from := fs.String("from", "", "compare an existing BENCH_<date>.json instead of running benchmarks (requires -compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -run narrows every benchmark source by name: experiment IDs, micro
	// cases, and (in -from mode) the loaded artifact's rows. An unfiltered
	// run keeps the full set, so -compare -require-all still audits complete
	// coverage; with a filter, coverage is required only of the selection.
	match := func(string) bool { return true }
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			return fmt.Errorf("-run: %w", err)
		}
		match = re.MatchString
	}
	if *list {
		for _, s := range experiments.All() {
			if match(s.ID) {
				fmt.Println(s.ID)
			}
		}
		if *micro {
			for _, c := range microCases() {
				if match(c.name) {
					fmt.Println(c.name)
				}
			}
		}
		return nil
	}

	// Compare-only mode: load the fresh rows from an artifact written by an
	// earlier run, so CI can gate artifact generation and keep the (noisy)
	// comparison advisory without benchmarking twice.
	if *from != "" {
		if *compare == "" {
			return fmt.Errorf("-from requires -compare")
		}
		data, err := os.ReadFile(*from)
		if err != nil {
			return err
		}
		var fresh benchFile
		if err := json.Unmarshal(data, &fresh); err != nil {
			return fmt.Errorf("%s: %w", *from, err)
		}
		kept := fresh.Benchmarks[:0]
		for _, r := range fresh.Benchmarks {
			if match(r.Name) {
				kept = append(kept, r)
			}
		}
		return compareBaseline(kept, *compare, *threshold, *requireAll, match)
	}

	var ids []string
	switch strings.ToLower(*idList) {
	case "all":
		for _, s := range experiments.All() {
			ids = append(ids, s.ID)
		}
	case "none", "":
	default:
		for _, id := range strings.Split(*idList, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	var rows []benchRow
	for _, id := range ids {
		spec, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'fastnet list')", id)
		}
		if !match(spec.ID) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench %s...\n", spec.ID)
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Run(experiments.Env{Workers: 1}); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return fmt.Errorf("%s: %w", spec.ID, benchErr)
		}
		rows = append(rows, newRow(spec.ID, r, 0))
	}

	if *micro {
		for _, c := range microCases() {
			if !match(c.name) {
				continue
			}
			row, err := c.run()
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}

	out := benchFile{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		MaxProcs:   runtime.GOMAXPROCS(0),
		Benchmarks: rows,
	}
	path := *outPath
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", out.Date)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(rows), path)
	if *compare != "" {
		return compareBaseline(rows, *compare, *threshold, *requireAll, match)
	}
	return nil
}

// compareBaseline diffs the fresh rows against a committed BENCH artifact and
// prints one line per benchmark (ns/op and allocs/op movement). Benchmarks
// slower than the baseline by more than threshold percent are regressions:
// they are flagged in the table and make the command exit nonzero, so CI can
// run this as a gate (or, with continue-on-error, as an advisory signal on
// shared runners where timings are noisy). Benchmarks absent from the
// baseline are reported but never fail the comparison; baseline benchmarks
// absent from the NEW run are silent drift — a renamed or dropped benchmark
// would otherwise stop being tracked without anyone noticing — so requireAll
// turns them into an error. match narrows which baseline rows count as
// missing, so a -run-filtered comparison only demands coverage of the
// selection it actually ran.
func compareBaseline(rows []benchRow, path string, threshold float64, requireAll bool, match func(string) bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base benchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseBy := make(map[string]benchRow, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.Name] = r
	}
	newBy := make(map[string]bool, len(rows))
	for _, r := range rows {
		newBy[r.Name] = true
	}
	fmt.Printf("compare vs %s (%s, threshold +%.0f%%):\n", path, base.Date, threshold)
	var regressions []string
	for _, r := range rows {
		b, ok := baseBy[r.Name]
		if !ok || b.NsPerOp <= 0 {
			fmt.Printf("  %-22s %45d ns/op   (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := 100 * (float64(r.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if delta > threshold {
			mark = "   REGRESSION"
			regressions = append(regressions, fmt.Sprintf("%s (%+.1f%%)", r.Name, delta))
		}
		fmt.Printf("  %-22s %15d -> %15d ns/op  %+7.1f%%   allocs %d -> %d%s\n",
			r.Name, b.NsPerOp, r.NsPerOp, delta, b.AllocsPerOp, r.AllocsPerOp, mark)
	}
	var missing []string
	for _, b := range base.Benchmarks {
		if match(b.Name) && !newBy[b.Name] {
			missing = append(missing, b.Name)
			fmt.Printf("  %-22s %45s\n", b.Name, "(missing from new run)")
		}
	}
	if requireAll && len(missing) > 0 {
		return fmt.Errorf("%d baseline benchmark(s) missing from the new run: %s",
			len(missing), strings.Join(missing, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%% vs %s: %s",
			len(regressions), threshold, path, strings.Join(regressions, ", "))
	}
	return nil
}

func newRow(name string, r testing.BenchmarkResult, eventsPerOp int64) benchRow {
	row := benchRow{
		Name:        name,
		Iters:       r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MaxProcs:    runtime.GOMAXPROCS(0),
	}
	if eventsPerOp > 0 && r.NsPerOp() > 0 {
		row.EventsPerOp = eventsPerOp
		row.EventsPerSec = float64(eventsPerOp) / (float64(r.NsPerOp()) / 1e9)
	}
	return row
}

// microCase is one named event-core micro benchmark. The registry form
// exists so -run can select cases and -list can enumerate them, with every
// workload built lazily inside its run closure — a filtered invocation pays
// for nothing it skips.
type microCase struct {
	name string
	run  func() (benchRow, error)
}

// microCases enumerates the event-core micro benchmarks: the same
// hot-substrate scenarios as bench_test.go's micro benchmarks, plus the
// scheduler's dispatch count so the artifact records events/sec throughput.
// Names are stable artifact keys (compareBaseline matches on them), so
// renaming one is a tracked-history break, not a refactor.
func microCases() []microCase {
	cases := []microCase{
		{"SingleBroadcast4096", func() (benchRow, error) {
			return benchBroadcast("SingleBroadcast4096", graph.RandomTree(4096, 2), topology.ModeBranching, 4095)
		}},
		// wantCovered 0 skips the coverage assertion: sparse GNP graphs need
		// not be connected, and the flood's cost is what is being measured.
		{"Flood1024", func() (benchRow, error) {
			return benchBroadcast("Flood1024", graph.GNP(1024, 4.0/1024, 3), topology.ModeFlood, 0)
		}},
		{"Election1024", benchElection},
		{"GosimBroadcast1024", benchGosim},
		{"DBRouteWarm", func() (benchRow, error) { return benchRoute("DBRouteWarm", false) }},
		{"DBRouteCold", func() (benchRow, error) { return benchRoute("DBRouteCold", true) }},
		{"ReliableAdaptive", func() (benchRow, error) { return benchFunc("ReliableAdaptive", runReliableAdaptive) }},
		{"DetectorPhi", func() (benchRow, error) { return benchFunc("DetectorPhi", runDetectorPhi) }},
		{"JitterBroadcastC2", func() (benchRow, error) { return benchJitter("JitterBroadcastC2", 2, 0) }},
		{"JitterBroadcastC8", func() (benchRow, error) { return benchJitter("JitterBroadcastC8", 8, 0) }},
		{"JitterBroadcastC8Shard4", func() (benchRow, error) { return benchJitter("JitterBroadcastC8Shard4", 8, 4) }},
	}
	shardCounts := []int{1, 2, 4}
	if nc := runtime.NumCPU(); nc > 4 {
		shardCounts = append(shardCounts, nc)
	}
	for _, shards := range shardCounts {
		shards := shards
		cases = append(cases, microCase{fmt.Sprintf("ShardedBroadcast%d", shards),
			func() (benchRow, error) { return benchShard(shards) }})
	}
	// The open-loop load plane at a million calls per run: Poisson arrivals,
	// bursty MMPP arrivals, and a Zipf-skewed run with the capacity model on
	// (finite NCU queues, link buckets, per-endpoint admission) so the
	// artifact tracks the engine's full-featured cost, not just its fast
	// path. CallsPerOp/CallsPerSec land in the rows.
	cases = append(cases,
		microCase{"OpenLoopPoisson", func() (benchRow, error) {
			return benchOpenLoop("OpenLoopPoisson", load.Config{Seed: 1, Calls: 1_000_000, Rate: 4, Holding: 256})
		}},
		microCase{"OpenLoopBurst", func() (benchRow, error) {
			return benchOpenLoop("OpenLoopBurst", load.Config{Seed: 1, Calls: 1_000_000, Rate: 4, BurstFactor: 8, Holding: 256})
		}},
		microCase{"OpenLoopZipf", func() (benchRow, error) {
			return benchOpenLoop("OpenLoopZipf", load.Config{
				Seed: 1, Calls: 1_000_000, Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
				Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8},
			})
		}},
	)
	return cases
}

// benchBroadcast measures one warm-start broadcast scenario.
func benchBroadcast(name string, g *graph.Graph, mode topology.Mode, wantCovered int) (benchRow, error) {
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	var events int64
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := topology.SingleBroadcast(g, 0, mode)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			if wantCovered > 0 && res.Covered != wantCovered {
				benchErr = fmt.Errorf("covered %d of %d nodes", res.Covered, wantCovered)
				b.FailNow()
			}
			events = res.Events
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	return newRow(name, r, events), nil
}

// benchElection measures the §4 election with every node a starter.
func benchElection() (benchRow, error) {
	fmt.Fprintln(os.Stderr, "bench Election1024...")
	g := graph.GNP(1024, 4.0/1024, 3)
	starters := make([]core.NodeID, 1024)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := election.Run(g, election.AlgoToken, starters)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			if res.AlgorithmMessages > 6*1024 {
				benchErr = fmt.Errorf("6n bound violated: %d", res.AlgorithmMessages)
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("Election1024: %w", benchErr)
	}
	return newRow("Election1024", r, 0), nil
}

// benchJitter measures the fault-heavy C >= 1 regime the auto-sized
// calendar ring exists for: a dense GNP flood broadcast under hardware delay
// C where every hop is jittered up to 384 ticks — far beyond the historical
// 64-slot window — and NCU slowdowns stretch the activation backlog. On a
// ring pinned to 64 slots nearly every hop overflowed to the heap, which
// climbed past a million pending events (docs/PERF-LOG.md); the auto-sized
// ring keeps the same run at ~100% heap bypass. Rows at C = 2 and C = 8 plus a sharded
// C = 8 variant; mirrored in bench_test.go. Each row reports the fastest of
// three harness runs: these are multi-second single-iteration measurements,
// and the minimum is the standard way to strip scheduler noise on a shared
// runner from a deterministic workload.
func benchJitter(name string, c core.Time, shards int) (benchRow, error) {
	faults := core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512}
	g := graph.GNP(1024, 14.0/1024, 11)
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	procs := runtime.GOMAXPROCS(0)
	if shards > 0 {
		if nc := runtime.NumCPU(); nc > procs {
			procs = nc
		}
		if shards > procs {
			procs = shards
		}
	}
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	var best benchRow
	var events int64
	for attempt := 0; attempt < 3; attempt++ {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
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
					benchErr = err
					b.FailNow()
				}
				if m := net.Metrics(); m.Deliveries == 0 {
					benchErr = fmt.Errorf("flood delivered nothing")
					b.FailNow()
				}
				events = net.SchedStats().Events
			}
		})
		if benchErr != nil {
			return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
		}
		if row := newRow(name, r, events); attempt == 0 || row.NsPerOp < best.NsPerOp {
			best = row
		}
	}
	best.MaxProcs = procs
	best.Shards = shards
	return best, nil
}

// benchShard measures the sharded space-parallel scheduler: one flood
// broadcast over a large GNP graph at the given shard count, with
// GOMAXPROCS raised so every shard can have a core. The shards=1 row is the
// serial reference of the same stream contract, so events/sec ratios between
// rows are the parallel speedup. The run at >= 4 shards doubles as a smoke
// check that the partitioner actually engages the parallel path on GNP.
func benchShard(shards int) (benchRow, error) {
	const n = 8192
	g := graph.GNP(n, 6.0/n, 9)
	name := fmt.Sprintf("ShardedBroadcast%d", shards)
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	procs := runtime.NumCPU()
	if shards > procs {
		procs = shards
	}
	prev := runtime.GOMAXPROCS(procs)
	var events int64
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
				sim.WithDelays(2, 1), sim.WithSeed(7), sim.WithDmax(n), sim.WithShards(shards))
			if shards >= 4 && net.Shards() <= 1 {
				benchErr = fmt.Errorf("sharded engine not engaged on GNP: %+v", net.ShardInfo())
				b.FailNow()
			}
			net.Inject(0, 0, topology.Trigger{})
			if _, err := net.Run(); err != nil {
				benchErr = err
				b.FailNow()
			}
			if m := net.Metrics(); m.Deliveries == 0 {
				benchErr = fmt.Errorf("flood delivered nothing")
				b.FailNow()
			}
			events = net.SchedStats().Events
		}
	})
	runtime.GOMAXPROCS(prev)
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	row := newRow(name, r, events)
	row.MaxProcs = procs
	row.Shards = shards
	return row, nil
}

// benchOpenLoop measures the open-loop load plane end to end on GNP-1024: a
// million generated calls through the sampler, the timing wheel, the record
// pool, and the latency recorders, riding the event spine. The row carries
// both events/sec (spine throughput including the generator) and calls/sec
// (the load plane's own rate); allocs/op staying flat across rows with very
// different in-flight populations is the pooled-record evidence.
func benchOpenLoop(name string, cfg load.Config) (benchRow, error) {
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	g := graph.GNP(1024, 6.0/1024, 3)
	var events int64
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := load.Run(g, cfg)
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			if s.Generated != int64(cfg.Calls) {
				benchErr = fmt.Errorf("generated %d of %d calls", s.Generated, cfg.Calls)
				b.FailNow()
			}
			if s.Generated != s.Delivered+s.Blocked+s.Dropped {
				benchErr = fmt.Errorf("ledger leak: gen=%d del=%d blk=%d drp=%d",
					s.Generated, s.Delivered, s.Blocked, s.Dropped)
				b.FailNow()
			}
			if int64(s.PoolChunks*1024) > s.Generated/4 {
				benchErr = fmt.Errorf("record pool not engaged: %d records for %d calls", s.PoolChunks*1024, s.Generated)
				b.FailNow()
			}
			events = s.Sched.Events
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	row := newRow(name, r, events)
	if r.NsPerOp() > 0 {
		row.CallsPerOp = int64(cfg.Calls)
		row.CallsPerSec = float64(cfg.Calls) / (float64(r.NsPerOp()) / 1e9)
	}
	return row, nil
}

// benchGosim measures the goroutine runtime end to end: build a 1024-node
// network (one goroutine per NCU), warm-start the origin's database, run one
// full branching-paths broadcast to quiescence, and tear it down. The DES
// micro benchmarks cover the scheduler; this row tracks the runtime the DES
// results are cross-validated against, so a slowdown in channel routing,
// quiescence detection, or shutdown shows up in the artifact too. Mirrors
// bench_test.go's BenchmarkGosimBroadcast1024.
func benchGosim() (benchRow, error) {
	fmt.Fprintln(os.Stderr, "bench GosimBroadcast1024...")
	g := graph.RandomTree(1024, 2)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net := gosim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
				gosim.WithDmax(g.N()))
			net.Protocol(0).(topology.Maintainer).Preload(topology.RecordsForGraph(g, net.PortMap(), nil))
			net.Inject(0, topology.Trigger{})
			err := net.AwaitQuiescence(30 * time.Second)
			m := net.Metrics()
			net.Shutdown()
			if err == nil && m.Deliveries != 1023 {
				err = fmt.Errorf("covered %d of 1023 nodes", m.Deliveries)
			}
			if err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("GosimBroadcast1024: %w", benchErr)
	}
	return newRow("GosimBroadcast1024", r, 0), nil
}

// benchRoute measures the amortized routing plane: repeated routes between
// topology updates (warm caches, cold=false) against routes with a version
// bump before every query (cold=true — the full rebuild the pre-cache code
// paid each call). Mirrors bench_test.go's BenchmarkDBRoute* cases.
func benchRoute(name string, cold bool) (benchRow, error) {
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	g := graph.GNP(256, 8.0/256, 17)
	pm := core.NewPortMap(g)
	db := topology.NewDB()
	for _, r := range topology.RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	if _, err := db.Route(0, 255); err != nil {
		return benchRow{}, err
	}
	rec, _ := db.Record(0)
	// Detach from the stored record: the cold loop mutates the links.
	rec.Links = append([]topology.LinkInfo(nil), rec.Links...)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if cold {
				rec.Seq++
				rec.Links[0].Load++
				db.Update(rec)
			}
			src := core.NodeID(i * 31 % 256)
			dst := core.NodeID((i*97 + 13) % 256)
			if _, err := db.Route(src, dst); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	return newRow(name, r, 0), nil
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

// runReliableAdaptive is one ReliableAdaptive iteration: 64 frames through
// the Jacobson/Karn estimator on a two-node fabric, all acked.
func runReliableAdaptive() error {
	const msgs = 64
	g := graph.Path(2)
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
	for i := 0; i < msgs; i++ {
		net.Inject(core.Time(i*8), 0, relBenchSend{})
	}
	for t := core.Time(4); t <= horizon; t += 4 {
		net.Inject(t, 0, reliable.Tick{})
	}
	if _, err := net.Run(); err != nil {
		return err
	}
	if got := sender.E.Stats().Acked; got != msgs {
		return fmt.Errorf("acked %d of %d", got, msgs)
	}
	return nil
}

// runDetectorPhi is one DetectorPhi iteration: 64 probe periods of the
// phi-accrual detector against a live leader, no suspicion raised.
func runDetectorPhi() error {
	const (
		beats  = 64
		period = 16
	)
	g := graph.Path(2)
	dets := make([]*election.Detector, 2)
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		dets[id] = election.NewAdaptiveDetector(id, 3)
		return &election.DetectorNode{D: dets[id]}
	}, sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(1))
	links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1})
	if err != nil {
		return err
	}
	dets[0].SetLeader(1, anr.Direct(links))
	dets[1].SetLeader(1, nil)
	for i := 1; i <= beats; i++ {
		net.Inject(core.Time(i*period), 0, election.BeatTick{})
	}
	if _, err := net.Run(); err != nil {
		return err
	}
	st := dets[0].Stats()
	if st.Suspected || st.Probes == 0 || st.LastAckTick == 0 {
		return fmt.Errorf("detector state wrong: %s", st)
	}
	return nil
}

// benchFunc measures a plain run-one-iteration function (the gray-failure
// hot paths added with invariant I8: the adaptive Jacobson/Karn reliable
// endpoint and the phi-accrual failure detector). Mirrors bench_test.go's
// BenchmarkReliableAdaptive and BenchmarkDetectorPhi.
func benchFunc(name string, run func() error) (benchRow, error) {
	fmt.Fprintf(os.Stderr, "bench %s...\n", name)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				benchErr = err
				b.FailNow()
			}
		}
	})
	if benchErr != nil {
		return benchRow{}, fmt.Errorf("%s: %w", name, benchErr)
	}
	return newRow(name, r, 0), nil
}
