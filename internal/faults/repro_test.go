package faults

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/topology"
)

// GoldenConfigs are the soak configs whose result lines
// testdata/golden_soak_lines.json pins: plain churn, churn with elections and
// leader crashes, and a lossy fabric with the reliable-delivery ledger.
var GoldenConfigs = map[string]Config{
	"churn-flood": {
		Seed: 7, Epochs: 4, Mode: topology.ModeFlood,
		Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
	},
	"churn-elect": {
		Seed: 3, Epochs: 4, Flaps: 1, Crashes: 1, LeaderCrash: 0.5, Calls: 2,
	},
	"lossy-reliable": {
		Seed: 5, Epochs: 3, Mode: topology.ModeFlood, Flaps: 1, NoElection: true,
		Loss: 0.1, Dup: 0.05, Corrupt: 0.02, Jitter: 0.05, Reliable: 8,
	},
}

// parseSoak is `fastnet soak` as far as the soak's own knobs go: cmd's
// topology flags beside the declarations Config.Flags registers.
func parseSoak(t *testing.T, args []string) (cfg Config, topo string, n int) {
	t.Helper()
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.StringVar(&topo, "topo", "gnp", "")
	fs.IntVar(&n, "n", 64, "")
	parsed := cfg.Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	if err := parsed(); err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	if fs.NArg() != 0 {
		t.Fatalf("%q: stray arguments %q", args, fs.Args())
	}
	return cfg, topo, n
}

// roundTrip prints cfg's repro line, parses it back through the declarations
// the line was printed from, and requires the config the run would use.
func roundTrip(t *testing.T, cfg Config, topo string, n int) {
	t.Helper()
	line := cfg.Repro(topo, n)
	args, ok := strings.CutPrefix(line, "fastnet soak ")
	if !ok {
		t.Fatalf("repro %q does not start with the command", line)
	}
	got, gotTopo, gotN := parseSoak(t, strings.Fields(args))
	got.normalize()
	cfg.normalize()
	if gotTopo != topo || gotN != n || !reflect.DeepEqual(got, cfg) {
		t.Fatalf("repro line does not parse back to its config\nline %s\nwant %+v on %s/%d\n got %+v on %s/%d", line, cfg, topo, n, got, gotTopo, gotN)
	}
}

// canonicalConfig draws a config whose inert knobs are zero: a knob Repro
// leaves out because the dimension it tunes is off (a reorder window without
// reordering) cannot survive a round trip and does not need to.
func canonicalConfig(r *rand.Rand) Config {
	small := func() int { return max(0, r.Intn(12)-2) } // zero, "default", a quarter of the time
	cfg := Config{
		Seed: r.Int63() - 1<<62, Epochs: 1 + r.Intn(60),
		Runtime: []string{"", "des", "gosim"}[r.Intn(3)],
		Mode:    []topology.Mode{0, topology.ModeBranching, topology.ModeFlood}[r.Intn(3)],
		Flaps:   small(), FlapLen: small(), PartitionEvery: small(), PartitionHeal: small(),
		Crashes: small(), Downtime: small(), Calls: small(), LeaderCrash: r.Float64(),
		Adversary: r.Intn(2) == 0, NoElection: r.Intn(2) == 0,
		MaxRounds: r.Intn(3) * r.Intn(40), Shards: r.Intn(3) * r.Intn(5),
	}
	if r.Intn(2) == 0 {
		cfg.Loss, cfg.Dup, cfg.Corrupt, cfg.Jitter = 0.01+r.Float64()/2, r.Float64()/4, r.Float64()/4, r.Float64()/4
		cfg.JitterMax, cfg.Reliable = small(), small()
		if r.Intn(2) == 0 {
			cfg.BurstEvery, cfg.BurstScale = 1+r.Intn(4), float64(r.Intn(4))
		}
	}
	if r.Intn(2) == 0 {
		cfg.Reorder, cfg.ReorderWindow = 0.01+r.Float64()/2, small()
	}
	if r.Intn(2) == 0 {
		cfg.Slow, cfg.SlowFactor, cfg.SlowMax = 0.01+r.Float64()/2, float64(r.Intn(6)), small()
	}
	if r.Intn(2) == 0 {
		cfg.Stall, cfg.StallTicks = 1+r.Intn(3), small()
	}
	if r.Intn(3) == 0 {
		cfg.Rate, cfg.Holding, cfg.ZipfS = 0.01+r.Float64(), r.Intn(3)*100, r.Float64()*2
		cfg.NCUCap, cfg.LinkCap = r.Intn(3)*16, float64(r.Intn(3))/2
	}
	return cfg
}

// TestReproRoundTrips is the repro contract end to end: for the golden soak
// configs, the CI smoke command lines and a few hundred drawn configs, the
// line Repro prints, read by the flags `fastnet soak` registers, is the config
// that was run. Flags and Repro walk one list of declarations, so this holds
// by construction for names; the test is what holds it for values, order,
// grouping and defaults.
func TestReproRoundTrips(t *testing.T) {
	// The repro line for a lossy config carries every flag that shaped the run.
	cfg := lossyCfg(42, 5)
	repro := cfg.Repro("ring", 16)
	for _, want := range []string{
		"-seed 42", "-epochs 5", "-loss 0.25", "-dup 0.1", "-corrupt 0.1",
		"-jitter 0.1", "-jittermax 4", "-reliable 6", "-burst-every 2", "-burst-scale 2",
	} {
		if !strings.Contains(repro, want) {
			t.Fatalf("repro %q misses %q", repro, want)
		}
	}
	roundTrip(t, cfg, "ring", 16)
	for name, cfg := range GoldenConfigs {
		t.Run(name, func(t *testing.T) { roundTrip(t, cfg, "gnp", 20) })
	}
	for _, smoke := range []string{
		"-topo gnp -n 20 -seed 2 -epochs 3 -reorder 0.2 -reorder-window 12",
		"-topo gnp -n 16 -seed 2 -epochs 3 -reliable 4 -slow 0.2 -stall 1",
		"-topo gnp -n 32 -seed 3 -epochs 3 -calls 4000 -rate 0.2 -holding 200 -zipf 1.1 -ncu-cap 64 -link-cap 0.5 -loss 0.02",
		"-topo gnp -n 64 -seed 5 -epochs 4 -shards 4 -loss 0.02 -reliable 2",
		"-topo gnp -n 96 -seed 3 -epochs 6 -shards 8 -loss 0.02 -reliable 2",
		"-topo ring -n 16 -seed 1 -epochs 2 -flaps 3 -partition-every 0 -crashes 0 -calls 0 -leader-crash 0 -no-election -max-rounds 1",
		"-runtime gosim -topo ring -n 16 -epochs 4 -mode flooding -adversary -burst-every 2 -loss 0.05",
	} {
		t.Run(smoke, func(t *testing.T) {
			cfg, topo, n := parseSoak(t, strings.Fields(smoke))
			roundTrip(t, cfg, topo, n)
		})
	}
	draw := func(vals []reflect.Value, r *rand.Rand) { vals[0] = reflect.ValueOf(canonicalConfig(r)) }
	if err := quick.Check(func(cfg Config) bool {
		roundTrip(t, cfg, "gnp", 1+int(cfg.Seed&63))
		return true
	}, &quick.Config{MaxCount: 400, Values: draw}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultsResolvedOnce: a knob left zero and the same knob set to its
// documented default are one run — the same result line and the same repro
// line — because normalize is the only place a default is decided.
func TestDefaultsResolvedOnce(t *testing.T) {
	churn := Config{
		Seed: 6, Epochs: 2, Flaps: 2, PartitionEvery: 2, Crashes: 1, Calls: 1, LeaderCrash: 1,
		Loss: 0.05, Jitter: 0.2, Reliable: 2, BurstEvery: 2, Reorder: 0.1, Slow: 0.1, Stall: 1,
	}
	explicit := churn
	explicit.Runtime, explicit.Mode = "des", topology.ModeBranching
	explicit.FlapLen, explicit.PartitionHeal, explicit.Downtime = 1, 1, 1
	explicit.JitterMax, explicit.ReorderWindow, explicit.BurstScale = 4, 8, 2
	explicit.SlowFactor, explicit.SlowMax, explicit.StallTicks = 4, 8, 8
	openLoop := Config{Seed: 6, Epochs: 2, Calls: 400, Rate: 0.3}
	held := openLoop
	held.Holding = 256
	g := graph.GNP(12, 0.4, 5)
	for _, pair := range [][2]Config{{churn, explicit}, {openLoop, held}} {
		var lines [2]string
		for i, cfg := range pair {
			res, err := Soak(g, cfg)
			if err != nil || !res.OK() {
				t.Fatalf("%s: %v, violations %v", cfg.Repro("gnp", 12), err, res.Violations)
			}
			lines[i] = res.Line()
		}
		if lines[0] != lines[1] {
			t.Errorf("a zero knob and its explicit default ran differently\n zero     %s\n explicit %s", lines[0], lines[1])
		}
		if a, b := pair[0].Repro("gnp", 12), pair[1].Repro("gnp", 12); a != b {
			t.Errorf("a zero knob and its explicit default print different repro lines\n zero     %s\n explicit %s", a, b)
		}
	}
}

// TestElectionVerdictNamesFailingHandler: an election a handler failed
// (core.Env.Fail) prints a violation line naming the node by its soak ID, the
// time and the cause. The error is made up: no soak's election fails so.
func TestElectionVerdictNamesFailingHandler(t *testing.T) {
	ids := []core.NodeID{4, 9, 2, 7, 5}
	failed := fmt.Errorf("run: %w", &core.HandlerError{Node: 1, Time: 12, Cause: errors.New("election: unexpected comeback")})
	var res Result
	if err := res.settle(electionVerdict(3, 2, election.Result{}, failed, ids)); err != nil {
		t.Fatal(err)
	}
	want := "epoch 3: invariant I2 violated: re-election on the largest component (5 nodes): node 9 at t=12: election: unexpected comeback"
	if len(res.Violations) != 1 || res.Violations[0] != want {
		t.Errorf("verdict\n got %q\nwant %q", res.Violations, want)
	}
}

// TestElectionVerdictStrings reaches the three ways an election invariant
// fails — the run broke, the leader's domain falls short of the component,
// the tours cost more than Theorem 5 allows — for each of I2, I7 and I8, with
// fabricated results: no soak run produces them. The nine strings are pinned
// whole, because a violation line is output people and scripts read.
func TestElectionVerdictStrings(t *testing.T) {
	ids := []core.NodeID{4, 9, 2, 7, 5} // a five-node component; its node 1 is the soak graph's 9
	short := election.Result{Leader: 1, LeaderDomain: 4, AlgorithmMessages: 30}
	costly := election.Result{Leader: 1, LeaderDomain: 5, AlgorithmMessages: 31}
	for _, tc := range []struct {
		inv  int
		res  election.Result
		err  error
		want string
	}{
		{2, election.Result{}, errors.New("boom"), "epoch 3: invariant I2 violated: re-election on the largest component (5 nodes): boom"},
		{2, short, nil, "epoch 3: invariant I2 violated: leader 9 has domain 4, want the whole component (5)"},
		{2, costly, nil, "epoch 3: invariant I2 violated: election used 31 algorithm messages, above Theorem 5's bound 30"},
		{7, election.Result{}, errors.New("boom"), "epoch 3: invariant I7 violated: reordered re-election on the largest component (5 nodes): boom"},
		{7, short, nil, "epoch 3: invariant I7 violated: reordered election: leader 9 has domain 4, want the whole component (5)"},
		{7, costly, nil, "epoch 3: invariant I7 violated: reordered election used 31 algorithm messages, above Theorem 5's bound 30"},
		{8, election.Result{}, errors.New("boom"), "epoch 3: invariant I8 violated: gray re-election on the largest component (5 nodes): boom"},
		{8, short, nil, "epoch 3: invariant I8 violated: gray election: leader 9 has domain 4, want the whole component (5)"},
		{8, costly, nil, "epoch 3: invariant I8 violated: gray election used 31 algorithm messages, above Theorem 5's bound 30"},
	} {
		var res Result
		if err := res.settle(electionVerdict(3, tc.inv, tc.res, tc.err, ids)); err != nil {
			t.Fatalf("I%d: the verdict is a failure of the run, not a violation: %v", tc.inv, err)
		}
		if len(res.Violations) != 1 || res.Violations[0] != tc.want {
			t.Errorf("I%d verdict\n got %q\nwant %q", tc.inv, res.Violations, tc.want)
		}
	}
	// Exactly 6n messages over the whole component is a pass.
	atBound := election.Result{Leader: 1, LeaderDomain: 5, AlgorithmMessages: 30}
	for _, inv := range []int{2, 7, 8} {
		if err := electionVerdict(3, inv, atBound, nil, ids); err != nil {
			t.Errorf("I%d: a full domain at the bound is a violation: %v", inv, err)
		}
	}
}
