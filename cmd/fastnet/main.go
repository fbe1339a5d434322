// Command fastnet regenerates the paper's experiments and runs ad-hoc
// scenarios on the simulated high-speed network.
//
// Usage:
//
//	fastnet list                     list all experiments
//	fastnet exp [-csv] <id>...       run experiments (IDs or 'all'); exits 1 if a claim fails
//	fastnet sim [flags]              run one scenario (see 'fastnet sim -h')
//	fastnet soak [flags]             run the invariant-checked churn soak
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"

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
		// What is left of `fastnet bench`, which bench/ replaced: the
		// bench/run.sh invocation for the form that was typed.
		form := "-workload all -o <dir>"
		for _, a := range args[1:] {
			switch name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "="); name {
			case "list":
				form = "-list"
			case "compare", "from":
				form = "-workload all -compare <dir>"
			}
		}
		return fmt.Errorf("`fastnet bench` is gone; the repository benchmark is: bash bench/run.sh %s", form)
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
	failed := 0
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
		// The verdict goes to stderr, so that -csv output stays CSV.
		if err := spec.Claim(tbl); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s claim fails: %v\n", spec.ID, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s claim holds\n", spec.ID)
		}
	}
	if err := stopProf(); err != nil || failed == 0 {
		return err
	}
	return fmt.Errorf("%d of %d experiment claims fail", failed, len(ids))
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
		res, err := pif.Run(g, core.NodeID(*root), mode, core.Time(*c), core.Time(*p), opts...)
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
		res, err := globalfn.Execute(tree, params, inputs, globalfn.Sum, false, opts...)
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

// runSoak drives the seeded fault-injection soak (internal/faults). The
// soak's own knobs are declared once, in faults.Config, which registers their
// flags here and renders the same names into the one-line reproduction
// command printed on an invariant violation; this function adds what is not a
// property of the soak: the topology, the campaign and profiling.
func runSoak(args []string) error {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	var (
		cfg       faults.Config
		topoName  = fs.String("topo", "gnp", "topology: ring|path|star|grid|complete|tree|gnp|arpanet|cbt")
		n         = fs.Int("n", 64, "number of nodes (topology-dependent)")
		gnpP      = fs.Float64("gnp-p", 0, "edge probability for gnp (default 4/n)")
		verbose   = fs.Bool("v", false, "print one line per epoch")
		seedCount = fs.Int("seeds", 1, "run a campaign of this many consecutive seeds starting at -seed")
		parallel  = fs.Int("parallel", 1, "workers for the multi-seed campaign (0 = one per CPU)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file")
	)
	parsed := cfg.Flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := parsed(); err != nil {
		return err
	}
	if *seedCount < 1 {
		return fmt.Errorf("-seeds %d: must be >= 1", *seedCount)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be >= 0 (0 = one worker per CPU)", *parallel)
	}
	g, err := buildTopo(*topoName, *n, *gnpP, cfg.Seed)
	if err != nil {
		return err
	}
	if *verbose {
		cfg.Verbose = os.Stdout
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	// report prints one finished soak, under its seed in a campaign, and says
	// whether every invariant held. The repro line of one that did not is the
	// soak's own plus the one topology parameter Repro's signature does not
	// carry.
	report := func(cfg faults.Config, res *faults.Result, campaign bool) bool {
		line, sub := "", ""
		if campaign {
			line, sub = fmt.Sprintf("seed %d: ", cfg.Seed), fmt.Sprintf("seed %d ", cfg.Seed)
		}
		fmt.Println(line + res.Line())
		if *verbose && res.Sched.Events > 0 {
			fmt.Printf("%ssched: %s\n", sub, res.Sched)
		}
		if *verbose && res.Det.Probes > 0 {
			fmt.Printf("%sdetector: %s\n", sub, res.Det)
		}
		if res.OK() {
			return true
		}
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		repro := cfg.Repro(*topoName, *n)
		if *gnpP > 0 {
			repro += fmt.Sprintf(" -gnp-p %g", *gnpP)
		}
		fmt.Fprintln(os.Stderr, "repro:", repro)
		return false
	}

	// Multi-seed campaign: fan independent soaks across the worker pool and
	// report one line per seed, in seed order regardless of worker count.
	if *seedCount > 1 {
		seeds := runner.Seeds(cfg.Seed, *seedCount)
		fmt.Printf("soak campaign %s on %s: n=%d m=%d seeds=%d..%d epochs=%d mode=%s workers=%d\n",
			cfg.Runtime, *topoName, g.N(), g.M(), seeds[0], seeds[len(seeds)-1],
			cfg.Epochs, cfg.Mode, runner.Workers(*parallel))
		results, err := faults.SoakSeeds(g, cfg, seeds, *parallel)
		if err != nil {
			return err
		}
		bad := 0
		for i, res := range results {
			c := cfg
			c.Seed = seeds[i]
			if !report(c, res, true) {
				bad++
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
		cfg.Runtime, *topoName, g.N(), g.M(), cfg.Seed, cfg.Epochs, cfg.Mode)
	res, err := faults.Soak(g, cfg)
	if err != nil {
		return err
	}
	ok := report(cfg, res, false)
	if err := stopProf(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%d invariant violation(s) after %d clean epochs", len(res.Violations), res.Epochs)
	}
	return nil
}

// maxNodes is the most nodes a core.NodeID, an int32, can name. A larger
// graph would wrap its IDs; one below the bound may still not fit in memory.
const maxNodes = math.MaxInt32

// buildTopo checks -n and -gnp-p first, for every command that takes them: the
// generators panic on a negative size and take any p (NaN fails the test too).
func buildTopo(name string, n int, gnpP float64, seed int64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("-n %d: must be >= 1", n)
	}
	if n > maxNodes {
		return nil, fmt.Errorf("-n %d: a node ID (int32) names at most %d nodes", n, maxNodes)
	}
	if !(gnpP >= 0 && gnpP <= 1) {
		return nil, fmt.Errorf("-gnp-p %g: must be in (0, 1] (0 = the default 4/n)", gnpP)
	}
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
		if side*side > maxNodes {
			return nil, fmt.Errorf("-n %d: the %d×%d grid exceeds the %d nodes a node ID (int32) names", n, side, side, maxNodes)
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
		if gnpP == 0 {
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
  fastnet exp [-csv] <id>...   run experiments by ID ('all' for everything); exit 1 if a claim fails
  fastnet sim [flags]          run one ad-hoc scenario (see 'fastnet sim -h')
  fastnet soak [flags]         run the invariant-checked churn soak (see 'fastnet soak -h')`)
}
