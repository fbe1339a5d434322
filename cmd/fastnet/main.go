// Command fastnet regenerates the paper's experiments and runs ad-hoc
// scenarios on the simulated high-speed network.
//
// Usage:
//
//	fastnet list                     list all experiments
//	fastnet exp [-csv] <id>...       run experiments (IDs or 'all')
//	fastnet sim [flags]              run one scenario (see 'fastnet sim -h')
//	fastnet soak [flags]             run the invariant-checked churn soak
//	fastnet bench [flags]            benchmark the suite, emit BENCH_<date>.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/experiments"
	"fastnet/internal/faults"
	"fastnet/internal/globalfn"
	"fastnet/internal/graph"
	"fastnet/internal/pif"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fastnet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	switch args[0] {
	case "list":
		for _, s := range experiments.All() {
			fmt.Printf("%-4s %s\n", s.ID, s.Title)
		}
		return nil
	case "exp":
		return runExp(args[1:])
	case "sim":
		return runSim(args[1:])
	case "soak":
		return runSoak(args[1:])
	case "bench":
		return runBench(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// startProfiles turns on CPU profiling and arranges a heap snapshot; the
// returned stop function must run after the measured work (empty paths are
// skipped). These are the standard runtime/pprof artifacts: inspect with
// `go tool pprof fastnet <file>`.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// checkShards rejects a negative -shards at the flag boundary.
func checkShards(n int) error {
	if n < 0 {
		return fmt.Errorf("-shards %d: must be >= 0 (0 = classic serial scheduler)", n)
	}
	return nil
}

func runExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	asCSV := fs.Bool("csv", false, "emit CSV instead of aligned text")
	parallel := fs.Int("parallel", 1, "worker pool for sweep rows (0 = one per CPU; output is identical to serial)")
	shards := fs.Int("shards", 0, "run every simulation on the sharded space-parallel scheduler with this many event cores (0 = classic serial)")
	verbose := fs.Bool("v", false, "print per-experiment scheduler counters (events, fused hops, heap bypass) to stderr")
	cpuProf := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProf := fs.String("memprofile", "", "write an allocation profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be >= 0 (0 = one worker per CPU)", *parallel)
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("exp needs at least one experiment ID (or 'all')")
	}
	if len(ids) == 1 && strings.EqualFold(ids[0], "all") {
		ids = nil
		for _, s := range experiments.All() {
			ids = append(ids, s.ID)
		}
	}
	for _, id := range ids {
		spec, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try 'fastnet list')", id)
		}
		// Experiments construct their networks internally; what the flags
		// ask of those networks rides down to them in the environment: the
		// shard count, and a sink that collects their scheduler counters.
		var totals sim.SchedTotals
		opts := []sim.Option{totals.Sink()}
		if *shards > 0 {
			opts = append(opts, sim.WithShards(*shards))
		}
		tbl, err := spec.Run(experiments.Env{Workers: *parallel, Opts: opts})
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		if *asCSV {
			if err := tbl.RenderCSV(os.Stdout); err != nil {
				return err
			}
		} else {
			tbl.Render(os.Stdout)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s sched: %s\n", spec.ID, totals.Stats())
		}
	}
	return stopProf()
}

func runSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	var (
		topoName = fs.String("topo", "gnp", "topology: ring|path|star|grid|complete|tree|gnp|arpanet|cbt")
		n        = fs.Int("n", 64, "number of nodes (topology-dependent)")
		gnpP     = fs.Float64("gnp-p", 0, "edge probability for gnp (default 4/n)")
		proto    = fs.String("proto", "broadcast", "protocol: broadcast|flood|layers|dfs|election|election-hs|election-naive|gsf|pif|pif-direct")
		c        = fs.Int64("c", 0, "hardware delay per hop (C)")
		p        = fs.Int64("p", 1, "software delay per NCU activation (P)")
		seed     = fs.Int64("seed", 1, "random seed")
		root     = fs.Int("root", 0, "broadcast origin / aggregation root")
		random   = fs.Bool("random-delays", false, "sample delays uniformly from [1,C]/[1,P]")
		shards   = fs.Int("shards", 0, "event cores for the sharded scheduler (0 = classic serial; needs -c >= 1 to engage)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *c < 0 {
		return fmt.Errorf("-c %d: the hardware delay must be >= 0", *c)
	}
	if *p < 0 {
		return fmt.Errorf("-p %d: the software delay must be >= 0", *p)
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	g, err := buildTopo(*topoName, *n, *gnpP, *seed)
	if err != nil {
		return err
	}
	if *root < 0 || *root >= g.N() {
		return fmt.Errorf("-root %d: the %s topology has nodes 0..%d", *root, *topoName, g.N()-1)
	}
	opts := []sim.Option{sim.WithDelays(core.Time(*c), core.Time(*p)), sim.WithSeed(*seed)}
	if *random {
		opts = append(opts, sim.WithRandomDelays())
	}
	if *shards > 0 {
		opts = append(opts, sim.WithShards(*shards))
	}
	fmt.Printf("topology %s: n=%d m=%d diameter=%d; C=%d P=%d seed=%d\n",
		*topoName, g.N(), g.M(), g.Diameter(), *c, *p, *seed)

	switch *proto {
	case "broadcast", "flood", "layers", "dfs":
		mode := map[string]topology.Mode{
			"broadcast": topology.ModeBranching,
			"flood":     topology.ModeFlood,
			"layers":    topology.ModeLayers,
			"dfs":       topology.ModeDFS,
		}[*proto]
		res, err := topology.SingleBroadcast(g, core.NodeID(*root), mode, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("%s broadcast from node %d:\n  covered %d/%d nodes\n  %s\n",
			mode, *root, res.Covered, g.N()-1, res.Metrics)
		return nil
	case "election", "election-hs", "election-naive":
		algo := map[string]election.Algorithm{
			"election":       election.AlgoToken,
			"election-hs":    election.AlgoHS,
			"election-naive": election.AlgoNaive,
		}[*proto]
		starters := make([]core.NodeID, g.N())
		for i := range starters {
			starters[i] = core.NodeID(i)
		}
		res, err := election.Run(g, algo, starters, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n  leader node %d\n  algorithm messages %d (6n = %d)\n  %s\n",
			algo, res.Leader, res.AlgorithmMessages, 6*g.N(), res.Metrics)
		return nil
	case "pif", "pif-direct":
		mode := pif.EchoOptimal
		if *proto == "pif-direct" {
			mode = pif.EchoDirect
		}
		res, err := pif.Run(g, core.NodeID(*root), mode, core.Time(*c), core.Time(*p))
		if err != nil {
			return err
		}
		fmt.Printf("PIF (%s echo) from node %d:\n  broadcast done by t=%d, feedback complete at t=%d\n  %s\n",
			mode, *root, res.BroadcastTime, res.Finish, res.Metrics)
		return nil
	case "gsf":
		params := globalfn.Params{C: globalfn.Time(*c), P: globalfn.Time(*p)}
		tstar, err := params.OptimalTime(int64(*n))
		if err != nil {
			return err
		}
		full, err := params.OptimalTree(tstar)
		if err != nil {
			return err
		}
		tree, err := full.PruneTo(*n)
		if err != nil {
			return err
		}
		inputs := make([]globalfn.Value, *n)
		for i := range inputs {
			inputs[i] = globalfn.Value(i)
		}
		res, err := globalfn.Execute(tree, params, inputs, globalfn.Sum, false)
		if err != nil {
			return err
		}
		fmt.Printf("globally sensitive function over %d nodes:\n"+
			"  optimal time t* = %d, simulated finish = %d\n"+
			"  tree depth %d, root degree %d, value %d\n  %s\n",
			*n, tstar, res.Finish, tree.Depth(), len(tree.Children[0]), res.Value, res.Metrics)
		return nil
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
}

// runSoak drives the seeded fault-injection soak (internal/faults). Flag
// names must stay in sync with faults.Config.Repro, which renders the
// one-line reproduction command printed on an invariant violation.
func runSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		runtimeName = fs.String("runtime", "des", "runtime: des|gosim")
		topoName    = fs.String("topo", "gnp", "topology: ring|path|star|grid|complete|tree|gnp|arpanet|cbt")
		n           = fs.Int("n", 64, "number of nodes (topology-dependent)")
		gnpP        = fs.Float64("gnp-p", 0, "edge probability for gnp (default 4/n)")
		seed        = fs.Int64("seed", 1, "seed for schedules, calls and elections")
		epochs      = fs.Int("epochs", 50, "churn epochs to run")
		modeName    = fs.String("mode", "branching-paths", "maintenance protocol: branching-paths|flooding")
		flaps       = fs.Int("flaps", 2, "link flaps per epoch")
		flapLen     = fs.Int("flaplen", 1, "steps a flapped link stays down")
		partEvery   = fs.Int("partition-every", 5, "epochs between correlated cuts (0 = off)")
		partHeal    = fs.Int("partition-heal", 1, "epochs until a cut heals")
		crashes     = fs.Int("crashes", 1, "node crashes per epoch")
		downtime    = fs.Int("downtime", 1, "epochs a crashed node stays down")
		callCount   = fs.Int("calls", 2, "calls set up and failure-checked per epoch")
		leaderCrash = fs.Float64("leader-crash", 0.25, "per-epoch probability of crashing the leader")
		loss        = fs.Float64("loss", 0, "per-traversal drop probability (lossy-link model)")
		dup         = fs.Float64("dup", 0, "per-traversal duplication probability")
		corrupt     = fs.Float64("corrupt", 0, "per-traversal corruption probability")
		jitter      = fs.Float64("jitter", 0, "per-traversal extra-delay probability")
		jitterMax   = fs.Int("jittermax", 0, "max extra per-hop delay (default 4)")
		reorder     = fs.Float64("reorder", 0, "per-traversal reorder probability (arms invariant I7)")
		reorderWin  = fs.Int("reorder-window", 0, "max reorder displacement in ticks (default 8)")
		slow        = fs.Float64("slow", 0, "per-traversal gray-slowdown probability (arms invariant I8)")
		slowFactor  = fs.Float64("slow-factor", 0, "slowdown multiplier on the per-hop delay (default 4)")
		slowMax     = fs.Int("slow-max", 0, "max additive slowdown in ticks (default 8)")
		stall       = fs.Int("stall", 0, "NCU-stall windows per epoch (arms invariant I8)")
		stallTicks  = fs.Int("stall-ticks", 0, "stall window length in ticks (default 8)")
		rate        = fs.Float64("rate", 0, "open-loop arrival rate in calls/tick (0 = classic churn soak; arms invariant I9)")
		holding     = fs.Int("holding", 0, "open-loop mean call-holding time in ticks (default 256)")
		zipfS       = fs.Float64("zipf", 0, "open-loop endpoint-popularity skew exponent (0 = uniform)")
		ncuCap      = fs.Int("ncu-cap", 0, "open-loop finite NCU service queue (0 = unlimited)")
		linkCap     = fs.Float64("link-cap", 0, "open-loop per-link token refill rate (0 = unlimited)")
		reliableN   = fs.Int("reliable", 0, "reliable ledger messages per epoch (invariant I6)")
		burstEvery  = fs.Int("burst-every", 0, "scale the fault profile up every k-th epoch (0 = off)")
		burstScale  = fs.Float64("burst-scale", 0, "burst multiplier (default 2)")
		adversary   = fs.Bool("adversary", false, "fail the link the last delivery was observed on")
		noElection  = fs.Bool("no-election", false, "skip the per-epoch re-election invariant")
		maxRounds   = fs.Int("max-rounds", 0, "convergence-round cap (default n+8)")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-quiescence bound (gosim runtime)")
		verbose     = fs.Bool("v", false, "print one line per epoch")
		shards      = fs.Int("shards", 0, "event cores for the sharded DES scheduler (0 = classic serial; implies unit hardware delay)")
		seedCount   = fs.Int("seeds", 1, "run a campaign of this many consecutive seeds starting at -seed")
		parallel    = fs.Int("parallel", 1, "workers for the multi-seed campaign (0 = one per CPU)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var mode topology.Mode
	switch *modeName {
	case "branching-paths", "branching", "broadcast":
		mode = topology.ModeBranching
	case "flooding", "flood":
		mode = topology.ModeFlood
	default:
		return fmt.Errorf("unknown mode %q (want branching-paths or flooding)", *modeName)
	}
	if err := checkShards(*shards); err != nil {
		return err
	}
	g, err := buildTopo(*topoName, *n, *gnpP, *seed)
	if err != nil {
		return err
	}
	cfg := faults.Config{
		Seed:           *seed,
		Epochs:         *epochs,
		Runtime:        *runtimeName,
		Mode:           mode,
		Flaps:          *flaps,
		FlapLen:        *flapLen,
		PartitionEvery: *partEvery,
		PartitionHeal:  *partHeal,
		Crashes:        *crashes,
		Downtime:       *downtime,
		Adversary:      *adversary,
		LeaderCrash:    *leaderCrash,
		Loss:           *loss,
		Dup:            *dup,
		Corrupt:        *corrupt,
		Jitter:         *jitter,
		JitterMax:      *jitterMax,
		Reorder:        *reorder,
		ReorderWindow:  *reorderWin,
		Slow:           *slow,
		SlowFactor:     *slowFactor,
		SlowMax:        *slowMax,
		Stall:          *stall,
		StallTicks:     *stallTicks,
		BurstEvery:     *burstEvery,
		BurstScale:     *burstScale,
		Reliable:       *reliableN,
		Rate:           *rate,
		Holding:        *holding,
		ZipfS:          *zipfS,
		NCUCap:         *ncuCap,
		LinkCap:        *linkCap,
		Calls:          *callCount,
		NoElection:     *noElection,
		MaxRounds:      *maxRounds,
		Timeout:        *timeout,
		Shards:         *shards,
	}
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}

	// Multi-seed campaign: fan independent soaks across the worker pool and
	// report one line per seed, in seed order regardless of worker count.
	if *seedCount > 1 {
		seeds := runner.Seeds(*seed, *seedCount)
		fmt.Printf("soak campaign %s on %s: n=%d m=%d seeds=%d..%d epochs=%d mode=%s workers=%d\n",
			cfg.Runtime, *topoName, g.N(), g.M(), seeds[0], seeds[len(seeds)-1],
			cfg.Epochs, mode, runner.Workers(*parallel))
		results, err := faults.SoakSeeds(g, cfg, seeds, *parallel)
		if err != nil {
			return err
		}
		bad := 0
		for i, res := range results {
			fmt.Printf("seed %d: %s\n", seeds[i], res.Line())
			if *verbose && res.Sched.Events > 0 {
				fmt.Printf("seed %d sched: %s\n", seeds[i], res.Sched)
			}
			if *verbose && res.Det.Probes > 0 {
				fmt.Printf("seed %d detector: %s\n", seeds[i], res.Det)
			}
			if !res.OK() {
				bad++
				for _, v := range res.Violations {
					fmt.Fprintln(os.Stderr, "violation:", v)
				}
				c := cfg
				c.Seed = seeds[i]
				fmt.Fprintln(os.Stderr, "repro:", c.Repro(*topoName, *n))
			}
		}
		if err := stopProf(); err != nil {
			return err
		}
		if bad > 0 {
			return fmt.Errorf("%d of %d seeds hit invariant violations", bad, len(seeds))
		}
		return nil
	}

	fmt.Printf("soak %s on %s: n=%d m=%d seed=%d epochs=%d mode=%s\n",
		cfg.Runtime, *topoName, g.N(), g.M(), cfg.Seed, cfg.Epochs, mode)
	res, err := faults.Soak(g, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Line())
	if *verbose && res.Sched.Events > 0 {
		fmt.Println("sched:", res.Sched)
	}
	if *verbose && res.Det.Probes > 0 {
		fmt.Println("detector:", res.Det)
	}
	if err := stopProf(); err != nil {
		return err
	}
	if !res.OK() {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		fmt.Fprintln(os.Stderr, "repro:", cfg.Repro(*topoName, *n))
		return fmt.Errorf("%d invariant violation(s) after %d clean epochs", len(res.Violations), res.Epochs)
	}
	return nil
}

func buildTopo(name string, n int, gnpP float64, seed int64) (*graph.Graph, error) {
	switch name {
	case "ring":
		return graph.Ring(n), nil
	case "path":
		return graph.Path(n), nil
	case "star":
		return graph.Star(n), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "complete":
		return graph.Complete(n), nil
	case "tree":
		return graph.RandomTree(n, seed), nil
	case "cbt":
		d := 0
		for (1<<(d+2))-1 <= n {
			d++
		}
		return graph.CompleteBinaryTree(d), nil
	case "gnp":
		if gnpP <= 0 {
			gnpP = 4.0 / float64(n)
		}
		return graph.GNP(n, gnpP, seed), nil
	case "arpanet":
		return graph.ARPANET(), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", name)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  fastnet list                 list all experiments
  fastnet exp [-csv] <id>...   run experiments by ID ('all' for everything)
  fastnet sim [flags]          run one ad-hoc scenario (see 'fastnet sim -h')
  fastnet soak [flags]         run the invariant-checked churn soak (see 'fastnet soak -h')
  fastnet bench [flags]        benchmark the suite and emit BENCH_<date>.json (see 'fastnet bench -h')`)
}
