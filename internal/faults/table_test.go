package faults

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"fastnet/internal/graph"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// The soak table. Every soak scenario this package's tests play is a row: a
// `fastnet soak` command line and the graph it names. One check works out
// what a play must show from the config the line parses to, and a row names
// the tests that play it (each keeps the name of a hand-built test it
// replaced); a test plays its rows on its own columns:
//
//   - des: the line as written; a rerun from its repro line prints the same
//     line, another seed a different one;
//   - beside: the line again while the sharded-flood row runs beside it;
//   - shards: the line at -shards 1, 2 and 8, one line for all three;
//   - goroutines: the line on gosim, which refuses the open loop;
//   - refused: an open-loop line at -shards 2 and at -max-rounds 5, knobs
//     the open loop would ignore, which it refuses by name;
//   - repro (every row): see row.repro.
//
// The golden rows are those SoakCutThroughDifferential plays.

type column uint8

const (
	des column = 1 << iota
	beside
	shards
	goroutines
	refused
	repro
)

type row struct {
	name  string // the subtest and golden name; "" names the row by its line
	line  string // fastnet soak's arguments
	gseed int64  // the gnp graph's seed, where it is not the line's -seed
	tests string // the tests that play it, without their Test prefix
	fails int    // the invariant every play violates (0: none)

	cfg  Config // the line, parsed
	topo string // the topology it names, on n nodes
	n    int
	g    *graph.Graph // built as fastnet soak builds it
}

const (
	quiet        = "-partition-every 0 -calls 0 -leader-crash 0"
	reorderRow   = "-topo gnp -n 20 -gnp-p 0.3 -seed %d -epochs 3 -flaps 1 " + quiet + " -reorder 0.2 -reorder-window 12"
	grayRow      = "-topo gnp -n 16 -gnp-p 0.3 -seed %d -epochs 3 -flaps 1 " + quiet + " -reliable 4 -slow 0.2 -stall 1"
	churnTests   = "SoakFaultFreeLineUnchanged SoakDESDeterministic SoakGosim"
	lossyTests   = "SoakLossyDES SoakLossyDESDeterministic SoakLossyGosim"
	goldenTests  = "SoakCutThroughDifferential ReproRoundTrips"
	reorderTests = "ReorderSoakMultiSeed ReorderSoakGosim ReorderRepro"
	grayTests    = "GraySoakMultiSeed GraySoakDeterministic GraySoakGosim GrayRepro"
)

var rows = func() []row {
	rs := []row{
		// The lines testdata/golden_soak_lines.json pins.
		{name: "churn-flood", gseed: 2, tests: churnTests + " " + goldenTests, line: "-topo gnp -n 20 -gnp-p 0.3 -seed 7 -epochs 4 -mode flooding -partition-every 0 -downtime 2 -calls 0 -leader-crash 0 -no-election"},
		{name: "churn-elect", gseed: 2, tests: churnTests + " " + goldenTests, line: "-topo gnp -n 20 -gnp-p 0.3 -seed 3 -epochs 4 -flaps 1 -partition-every 0 -leader-crash 0.5"},
		{name: "lossy-reliable", gseed: 2, tests: "GrayOffDifferential SoakLossyDESDeterministic SoakLossyGosim " + goldenTests, line: "-topo gnp -n 20 -gnp-p 0.3 -seed 5 -epochs 3 -mode flooding -flaps 1 -crashes 0 " + quiet + " -no-election -loss 0.1 -dup 0.05 -corrupt 0.02 -jitter 0.05 -reliable 8"},
		// Link churn: every kind at once, without a partition, the adversary alone.
		{name: "all-kinds", gseed: 2, tests: "SoakDESAllFaultKinds SoakDESDeterministic SoakGosim ConfigRepro", line: "-topo gnp -n 12 -gnp-p 0.35 -seed 1 -epochs 5 -partition-every 3 -leader-crash 0.5"},
		{name: "churn", gseed: 4, tests: churnTests + " ConfigRepro", line: "-topo gnp -n 10 -gnp-p 0.4 -seed 7 -epochs 3 -partition-every 0 -calls 1 -leader-crash 1"},
		{name: "adversary", gseed: 9, tests: "SoakAdversary", line: "-topo gnp -n 10 -gnp-p 0.4 -seed 5 -epochs 3 -flaps 0 -crashes 0 -partition-every 0 -leader-crash 0 -calls 1 -adversary"},
		// Every message-fault kind in bursts, and the reliable ledger (I6).
		{name: "lossy", gseed: 3, tests: lossyTests + " ReproRoundTrips", line: "-topo gnp -n 14 -gnp-p 0.35 -seed 3 -epochs 4 -partition-every 0 -leader-crash 0.5 -loss 0.25 -dup 0.1 -corrupt 0.1 -jitter 0.1 -reliable 6 -burst-every 2"},
		// Gray NCUs without gray links (I8's detector half alone).
		{name: "stall-only", gseed: 7, tests: "GrayStallOnlySoak", line: "-topo gnp -n 12 -gnp-p 0.35 -seed 7 -epochs 3 -flaps 1 -crashes 0 " + quiet + " -reliable 3 -stall 2"},
		// The open loop (I9) on a clean fabric.
		{name: "openloop-clean", tests: "SoakOpenLoopCleanFabric SoakOpenLoopGosimRejected SoakOpenLoopIgnoredKnobsRejected ReproOpenLoop", line: "-topo gnp -n 24 -seed 5 -epochs 2 -calls 3000 -rate 0.5 -holding 100"},
		// The neighbour of the beside column: a flood soak on two event cores.
		{name: "sharded-flood", gseed: 5, tests: "SoakSchedStats SoakLossyDESDeterministic ReproRoundTrips", line: "-topo gnp -n 24 -gnp-p 0.25 -seed 11 -epochs 2 -mode flooding -flaps 1 " + quiet + " -no-election -shards 2 -loss 0.05 -jitter 0.1"},
		// The command lines CI ran as steps of their own, and two more whose
		// repro lines were already round-tripped: each row is named by its line.
		{tests: "ReorderSoakMultiSeed ReproRoundTrips", line: "-topo gnp -n 20 -seed 2 -epochs 3 -reorder 0.2 -reorder-window 12"},
		{tests: "GraySoakMultiSeed ReproRoundTrips", line: "-topo gnp -n 16 -seed 2 -epochs 3 -reliable 4 -slow 0.2 -stall 1"},
		{tests: "SoakOpenLoopSweep SoakOpenLoopGosimRejected ReproRoundTrips", line: "-topo gnp -n 32 -seed 3 -epochs 3 -calls 4000 -rate 0.2 -holding 200 -zipf 1.1 -ncu-cap 2 -link-cap 0.5 -loss 0.02"},
		{tests: "SoakGosim ReproRoundTrips", line: "-runtime gosim -topo gnp -n 24 -epochs 3 -seed 1"},
		{tests: "SoakGosim ReproRoundTrips", line: "-runtime gosim -topo gnp -n 24 -epochs 3 -seed 4"},
		{tests: "SoakLossyDES ReproRoundTrips", line: "-topo gnp -n 64 -seed 5 -epochs 4 -shards 4 -loss 0.02 -reliable 2"},
		{tests: "SoakLossyDESDeterministic ReproRoundTrips", line: "-topo gnp -n 96 -seed 3 -epochs 6 -shards 8 -loss 0.02 -reliable 2"},
		{tests: "SoakFaultFreeLineUnchanged ReproRoundTrips", fails: 1, line: "-topo gnp -n 16 -gnp-p 0.6 -seed 1 -epochs 2 -max-rounds 1"},
		{tests: "SoakFaultFreeLineUnchanged ReproRoundTrips", fails: 1, line: "-topo ring -n 16 -seed 1 -epochs 2 -flaps 3 -partition-every 0 -crashes 0 -calls 0 -leader-crash 0 -no-election -max-rounds 1"},
		{tests: "SoakLossyGosim ReproRoundTrips", line: "-runtime gosim -topo ring -n 16 -epochs 4 -mode flooding -adversary -burst-every 2 -loss 0.05"},
	}
	// Reordering (I7) and gray links and NCUs (I8), four seeds each.
	for _, s := range []int64{2, 5, 9, 13} {
		rs = append(rs, row{name: fmt.Sprint("reorder-", s), tests: reorderTests, line: fmt.Sprintf(reorderRow, s)},
			row{name: fmt.Sprint("gray-", s), tests: grayTests, line: fmt.Sprintf(grayRow, s)})
	}
	for i := range rs {
		rs[i] = rs[i].parsed()
	}
	return rs
}()

func (r row) in(test string) bool {
	return slices.Contains(strings.Fields(r.tests), test[len("Test"):])
}

func named(name string) row {
	return rows[slices.IndexFunc(rows, func(r row) bool { return r.name == name })]
}

// parsed reads r's line as fastnet soak does and builds the graph it names:
// gnp at -gnp-p (default 4/n) seeded by -seed, unless gseed is set, or a ring.
// A row's line is fixed in the source, so one that does not parse panics.
func (r row) parsed() row {
	var p float64
	var err error
	if r.cfg, r.topo, r.n, p, err = parseSoak(r.line); err != nil {
		panic(fmt.Sprintf("%q: %v", r.line, err))
	}
	switch r.topo {
	case "gnp":
		r.g = graph.GNP(r.n, cmp.Or(p, 4/float64(r.n)), cmp.Or(r.gseed, r.cfg.Seed))
	case "ring":
		r.g = graph.Ring(r.n)
	default:
		panic(fmt.Sprintf("%q: no row builds topology %q", r.line, r.topo))
	}
	return r
}

// table plays every row that names the calling test, as one subtest, on the
// test's columns.
func table(t *testing.T, cols column) {
	mine := slices.DeleteFunc(slices.Clone(rows), func(r row) bool { return !r.in(t.Name()) })
	if len(mine) == 0 {
		t.Fatal("no row")
	}
	for _, r := range mine {
		t.Run(cmp.Or(r.name, r.line), func(t *testing.T) { r.play(t, cols) })
	}
}

func (r row) play(t *testing.T, cols column) {
	if cols&repro != 0 {
		r.repro(t)
	}
	if cols&des != 0 {
		res := r.soak(t, nil)
		if again := r.soak(t, func(c *Config) { *c, _ = r.replayed(t) }); again.Line() != res.Line() || fmt.Sprint(again.Violations) != fmt.Sprint(res.Violations) {
			t.Errorf("the repro line replays another run\n%s %v\n%s %v", res.Line(), res.Violations, again.Line(), again.Violations)
		}
		if r.fails == 0 && r.soak(t, func(c *Config) { c.Seed++ }).Line() == res.Line() {
			t.Errorf("another seed, the same line: %s", res.Line())
		}
	}
	if cols&beside != 0 {
		r.beside(t)
	}
	if cols&shards != 0 {
		one := r.soak(t, func(c *Config) { c.Shards = 1 }).Line()
		for _, p := range []int{2, 8} {
			if got := r.soak(t, func(c *Config) { c.Shards = p }).Line(); got != one {
				t.Errorf("-shards %d moved the line\n  1 %s\n%3d %s", p, one, p, got)
			}
		}
	}
	if cfg := r.cfg; cols&goroutines != 0 {
		cfg.Runtime = "gosim" // which refuses the open loop, and only it
		if res, err := Soak(r.g, cfg); (err != nil) != (cfg.Rate > 0) {
			t.Errorf("%s: %v", cfg.Repro(r.topo, r.n), err)
		} else if err == nil {
			r.check(t, cfg, res)
		}
	}
	if cols&refused != 0 {
		for _, knob := range []struct {
			flag string
			set  func(*Config)
		}{{"-shards", func(c *Config) { c.Shards = 2 }}, {"-max-rounds", func(c *Config) { c.MaxRounds = 5 }}} {
			cfg := r.cfg
			knob.set(&cfg)
			if _, err := Soak(r.g, cfg); err == nil || !strings.Contains(err.Error(), knob.flag) {
				t.Errorf("%s: %v, want a refusal naming %s", cfg.Repro(r.topo, r.n), err, knob.flag)
			}
		}
	}
}

// soak plays r, its config edited, and checks the result.
func (r row) soak(t *testing.T, edit func(*Config)) *Result {
	t.Helper()
	cfg := r.cfg
	if edit != nil {
		edit(&cfg)
	}
	res, err := Soak(r.g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Repro(r.topo, r.n), err)
	}
	r.check(t, cfg, res)
	return res
}

// check holds one play to its config: the run held and completed its epochs
// (or stopped at the violation the row names); every dimension the config
// arms fired, its Line block shown; every dimension it leaves off stayed
// silent, with zero counters and no block.
func (r row) check(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	cfg.normalize()
	line, name := res.Line(), cfg.Repro(r.topo, r.n)
	if r.fails > 0 {
		if res.OK() || !strings.Contains(res.Violations[0], fmt.Sprintf("invariant I%d violated", r.fails)) {
			t.Fatalf("%s: want an I%d violation, got %v", name, r.fails, res.Violations)
		}
		return
	}
	if !res.OK() || res.Epochs != cfg.Epochs {
		t.Fatalf("%s: %d of %d epochs, violations %v", name, res.Epochs, cfg.Epochs, res.Violations)
	}
	// fired holds counters to their dimension's arming: all nonzero if it is
	// on, all zero if off. A what that ends in "(" names a Line block too,
	// shown exactly when on.
	fired := func(on bool, what string, counts ...int64) {
		t.Helper()
		if slices.ContainsFunc(counts, func(c int64) bool { return (c != 0) != on }) ||
			strings.HasSuffix(what, "(") && strings.Contains(line, " "+what) != on {
			t.Errorf("%s: %s %v, with the dimension armed=%v\n%s", name, what, counts, on, line)
		}
	}
	m, churn, ol := res.Metrics, cfg.Rate == 0, cfg.Rate > 0
	elect := churn && !cfg.NoElection
	crashedLeader := elect && cfg.LeaderCrash > 0 // flips and down links by chance
	lasting := churn && (cfg.PartitionEvery > 0 || cfg.Crashes > 0 || cfg.Adversary)
	if flips := lasting || churn && cfg.Flaps > 0; flips || !crashedLeader {
		fired(flips, "flips, link events", int64(res.FaultFlips), m.LinkEvents)
	}
	if lasting || !crashedLeader {
		fired(lasting, "down-link probes", int64(res.ProbesDown))
	}
	fired(churn, "probes", int64(res.ProbesSent))
	fired(churn && cfg.Calls > 0, "calls set up", int64(res.CallsSetUp))
	fired(elect, "elections, their messages", int64(res.Elections), res.ReelectMsgs)

	// I6: one ledger token per Reliable per epoch, retransmitted where the
	// loss should have taken two frames or more, and discarded at the
	// receiver where duplication and corruption should have.
	ledger, tokens := churn && cfg.Reliable > 0, float64(cfg.Epochs*cfg.Reliable)
	fired(ledger, "reliable(", res.RelSent)
	switch {
	case !ledger:
		fired(false, "ledger counters", res.RelRetrans, res.RelDupes, res.RelBadSum)
	case res.RelSent != int64(tokens):
		t.Errorf("%s: %d ledger tokens, want %v", name, res.RelSent, tokens)
	default:
		if cfg.Loss*tokens >= 2 {
			fired(true, "retransmissions", res.RelRetrans)
		}
		if (cfg.Dup+cfg.Corrupt)*tokens >= 2 {
			fired(true, "receiver discards", res.RelDupes+res.RelBadSum)
		}
	}

	// The fabric's fault counters, one per probability: zero where it is
	// off, and fired where it should have on 50 hops or more (40-75% of a
	// soak's hops cross the faulty fabric; the rest run on a healed one).
	likely := func(p float64) bool { return p*float64(m.Hops) >= 50 }
	rate := func(p float64, what string, count int64) {
		if p == 0 || likely(p) {
			fired(p > 0, what, count)
		}
	}
	rate(cfg.Loss, "fault drops", m.FaultDrops)
	rate(cfg.Dup, "fault duplicates", m.FaultDups)
	rate(cfg.Corrupt, "fault corruptions", m.FaultCorrupts)
	rate(cfg.Jitter, "fault jitters", m.FaultJitters)
	rate(cfg.Reorder, "fault reorders", m.FaultReorders)
	rate(cfg.Slow, "fault slowdowns", m.FaultSlowdowns)
	if some := likely(max(cfg.Loss, cfg.Dup, cfg.Corrupt, cfg.Jitter, cfg.Reorder, cfg.Slow)); some || !cfg.msgFaults().Enabled() {
		fired(some, "faults(")
	}

	// I7 and I8.
	fired(elect && cfg.Reorder > 0, "reorder(", int64(res.ReorderElections))
	fired(churn && cfg.Stall > 0 || elect && cfg.Slow > 0, "gray(")
	fired(churn && cfg.Stall > 0, "stalls, stall ticks", int64(res.GrayStalls), m.StallTicks)
	fired(elect && cfg.Slow > 0, "gray elections", int64(res.GrayElections))
	fired(elect && cfg.gray(), "detector probes", res.Det.Probes)

	// I9: every epoch offers Calls calls; only a declared overload refuses one.
	fired(ol, "openloop(", int64(res.OLRuns), res.OL.Generated)
	if ol {
		if res.OLRuns != cfg.Epochs || res.OL.Generated != int64(cfg.Epochs*cfg.Calls) {
			t.Errorf("%s: %d runs offered %d calls, want %d of %d", name, res.OLRuns, res.OL.Generated, cfg.Epochs, cfg.Calls)
		}
		fired(cfg.NCUCap > 0 || cfg.LinkCap > 0 || cfg.msgFaults().Enabled(), "refused calls", res.OL.Blocked+res.OL.Dropped)
	}
	fired(ol && cfg.LinkCap > 0, "link-bucket drops", m.CapLinkDrops)
	fired(ol && cfg.NCUCap > 0, "NCU-queue drops", m.CapQueueDrops)

	// The scheduler: a classic fabric at C = 0 cuts through and uses both
	// fast queues; a sharded one counts its events; gosim has none.
	switch s := res.Sched; {
	case ol || cfg.Runtime == "gosim":
		if s != (sim.SchedStats{}) {
			t.Errorf("%s: scheduler stats without a discrete-event fabric: %+v", name, s)
		}
	case cfg.Shards == 0:
		fired(true, "events, fused hops, lane and ring pushes", s.Events, s.FusedHops, s.LanePushes, s.RingPushes)
		if rate := s.LaneHitRate(); rate <= 0 || rate > 1 {
			t.Errorf("%s: lane hit rate %v outside (0, 1]", name, rate)
		}
	default:
		fired(true, "events", s.Events)
	}
}

// repro is the repro column: the row's repro line reads back as its config,
// and carries every flag the row's line sets, as set, and the flags of the
// dimensions its config arms, but of no other (an open loop's line, none of
// the churn loop's); an open-loop line, played back, prints the row's line.
func (r row) repro(t *testing.T) {
	line := r.cfg.Repro(r.topo, r.n) + " "
	cfg, same := r.replayed(t)
	if !same {
		t.Errorf("repro %q does not read back as its config %+v", line, r.cfg)
	}
	for _, arg := range strings.Split(" "+r.line, " -")[1:] {
		if arg = "-" + arg; !strings.HasPrefix(arg, "-gnp-p ") && !strings.Contains(line, " "+arg+" ") {
			t.Errorf("repro %q misses %q", line, arg)
		}
	}
	for flags, on := range map[string]bool{
		"-loss -dup -corrupt -jitter -jittermax -reliable": cfg.lossy(),
		"-burst-every -burst-scale":                        cfg.lossy() && cfg.BurstEvery > 0,
		"-reorder -reorder-window":                         cfg.Reorder > 0,
		"-slow -slow-factor -slow-max":                     cfg.Slow > 0,
		"-stall -stall-ticks":                              cfg.Stall > 0,
		"-rate -holding -zipf -ncu-cap -link-cap":          cfg.Rate > 0,
		"-mode -flaps -flaplen -partition-every -partition-heal -crashes -downtime -leader-crash": cfg.Rate == 0,
		"-max-rounds": cfg.MaxRounds > 0,
		"-shards":     cfg.Shards > 0,
	} {
		for _, f := range strings.Fields(flags) {
			if strings.Contains(line, " "+f+" ") != on {
				t.Errorf("repro %q: %s shown with the dimension armed=%v", line, f, on)
			}
		}
	}
	if cfg.Rate > 0 { // an open loop is cheap to play back
		if a, b := r.soak(t, nil).Line(), r.soak(t, func(c *Config) { *c = cfg }).Line(); a != b {
			t.Errorf("the repro line %q plays\n%s\nwhere the row plays\n%s", line, b, a)
		}
	}
}

// parseSoak is `fastnet soak` as far as a row goes: the soak's own knobs,
// which Config.Flags registers, beside cmd's topology flags.
func parseSoak(line string) (cfg Config, topo string, n int, gnpP float64, err error) {
	fs := flag.NewFlagSet("soak", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&topo, "topo", "gnp", "")
	fs.IntVar(&n, "n", 64, "")
	fs.Float64Var(&gnpP, "gnp-p", 0, "")
	parsed := cfg.Flags(fs)
	if err = fs.Parse(strings.Fields(line)); err == nil {
		err = parsed()
	}
	if err == nil && fs.NArg() != 0 {
		err = fmt.Errorf("stray arguments %q", fs.Args())
	}
	return cfg, topo, n, gnpP, err
}

// replayed is the config r's repro line reads as, through the flags fastnet
// soak registers, defaults resolved, and whether that is the config the run
// uses.
func (r row) replayed(t *testing.T) (Config, bool) {
	t.Helper()
	args, ok := strings.CutPrefix(r.cfg.Repro(r.topo, r.n), "fastnet soak ")
	got, topo, n, _, err := parseSoak(args)
	if !ok || err != nil || topo != r.topo || n != r.n {
		t.Fatalf("repro %q reads as -topo %s -n %d: %v", args, topo, n, err)
	}
	want := r.cfg
	got.normalize()
	want.normalize()
	return got, reflect.DeepEqual(got, want)
}

// canonicalConfig draws a config whose inert knobs are zero: a knob Repro
// leaves out because the dimension it tunes is off (a reorder window without
// reordering) cannot survive a round trip and does not need to. An open
// loop's churn knobs, which Repro leaves out too, hold their defaults.
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
		cfg.Mode, cfg.Flaps, cfg.FlapLen, cfg.PartitionEvery = 0, 2, 0, 5
		cfg.PartitionHeal, cfg.Crashes, cfg.Downtime, cfg.LeaderCrash = 0, 1, 0, 0.25
	}
	return cfg
}

// TestReproRoundTrips is the repro contract end to end: for every row of the
// soak table and a few hundred drawn configs, the line Repro prints, read by
// the flags `fastnet soak` registers, is the config that was run. Flags and
// Repro walk one list of declarations, so this holds by construction for
// names; the test is what holds it for values, order, grouping and defaults.
func TestReproRoundTrips(t *testing.T) {
	table(t, repro)
	draw := func(vals []reflect.Value, r *rand.Rand) { vals[0] = reflect.ValueOf(canonicalConfig(r)) }
	if err := quick.Check(func(cfg Config) bool {
		_, same := row{cfg: cfg, topo: "gnp", n: 1 + int(cfg.Seed&63)}.replayed(t)
		return same
	}, &quick.Config{MaxCount: 400, Values: draw}); err != nil {
		t.Fatal(err)
	}
}

// beside plays r again while the sharded-flood row runs on another goroutine,
// on two event cores for every network it builds: a soak builds dozens of
// networks three layers down, and configuration leaking between concurrent
// runs would move a line.
func (r row) beside(t *testing.T) {
	alone, nb := r.soak(t, nil).Line(), named("sharded-flood")
	var stop atomic.Bool // set once r has played beside, or failed
	defer stop.Store(true)
	lines := make(chan []string, 1)
	go func() {
		var got []string
		for more := true; more; more = !stop.Load() {
			if res, err := Soak(nb.g, nb.cfg, sim.WithShards(2)); err != nil {
				got = append(got, err.Error())
			} else {
				got = append(got, fmt.Sprint(res.Violations, " ", res.Line()))
			}
		}
		lines <- got
	}()
	with := r.soak(t, nil).Line()
	stop.Store(true)
	if got := slices.Compact(<-lines); with != alone || len(got) != 1 || !strings.HasPrefix(got[0], "[] epochs=2 violations=0 ") {
		t.Errorf("alone  %s\nbeside %s\nthe neighbour printed %q", alone, with, got)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden soak lines from the current implementation")

// TestGoldenSoakLines: the golden rows print the lines
// testdata/golden_soak_lines.json pins; -update-golden rewrites the file.
func TestGoldenSoakLines(t *testing.T) {
	const path = "testdata/golden_soak_lines.json"
	got, pinned := map[string]string{}, map[string]string{}
	for _, r := range rows {
		if r.in("TestSoakCutThroughDifferential") {
			got[r.name] = r.soak(t, nil).Line()
		}
	}
	var err error
	if data, _ := json.MarshalIndent(got, "", "  "); *updateGolden {
		pinned, err = got, os.WriteFile(path, append(data, '\n'), 0o644)
	} else if data, err = os.ReadFile(path); err == nil {
		err = json.Unmarshal(data, &pinned)
	}
	if err != nil || !maps.Equal(got, pinned) {
		t.Fatalf("%s: %v\n got %q\nwant %q", path, err, got, pinned)
	}
}

// TestSoakSeedsParallelMatchesSerial: a campaign over six seeds of a row
// prints the same lines on one worker as on four.
func TestSoakSeedsParallelMatchesSerial(t *testing.T) {
	r, lines := named("churn-flood"), [2][]string{}
	for i, workers := range []int{1, 4} {
		results, err := SoakSeeds(r.g, r.cfg, runner.Seeds(1, 6), workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			lines[i] = append(lines[i], res.Line())
		}
	}
	if !slices.Equal(lines[0], lines[1]) {
		t.Fatalf("a parallel campaign diverges from the serial one\n%q\n%q", lines[0], lines[1])
	}
}

// The tests each row names, by the names of the hand-built tests they replaced.
func TestSoakCutThroughDifferential(t *testing.T)       { table(t, beside) }
func TestSoakSchedStats(t *testing.T)                   { table(t, des) }
func TestSoakDESAllFaultKinds(t *testing.T)             { table(t, des) }
func TestSoakFaultFreeLineUnchanged(t *testing.T)       { table(t, des) }
func TestSoakDESDeterministic(t *testing.T)             { table(t, shards) }
func TestSoakGosim(t *testing.T)                        { table(t, goroutines) }
func TestConfigRepro(t *testing.T)                      { table(t, repro) }
func TestSoakAdversary(t *testing.T)                    { table(t, des|shards|goroutines|repro) }
func TestSoakLossyDES(t *testing.T)                     { table(t, des) }
func TestSoakLossyDESDeterministic(t *testing.T)        { table(t, shards) }
func TestSoakLossyGosim(t *testing.T)                   { table(t, goroutines) }
func TestReorderSoakMultiSeed(t *testing.T)             { table(t, des|shards) }
func TestReorderSoakGosim(t *testing.T)                 { table(t, goroutines) }
func TestReorderRepro(t *testing.T)                     { table(t, repro) }
func TestGraySoakMultiSeed(t *testing.T)                { table(t, des) }
func TestGraySoakDeterministic(t *testing.T)            { table(t, shards) }
func TestGraySoakGosim(t *testing.T)                    { table(t, goroutines) }
func TestGrayRepro(t *testing.T)                        { table(t, repro) }
func TestGrayOffDifferential(t *testing.T)              { table(t, des) }
func TestGrayStallOnlySoak(t *testing.T)                { table(t, des|shards|goroutines|repro) }
func TestSoakOpenLoopSweep(t *testing.T)                { table(t, des) }
func TestSoakOpenLoopCleanFabric(t *testing.T)          { table(t, des) }
func TestSoakOpenLoopGosimRejected(t *testing.T)        { table(t, goroutines) }
func TestSoakOpenLoopIgnoredKnobsRejected(t *testing.T) { table(t, refused) }
func TestReproOpenLoop(t *testing.T)                    { table(t, repro) }

// FuzzGrayFailure decodes one row and plays it through check: any (seed,
// slowdown, stall, loss) mix in the soak's supported envelope holds every
// invariant and fires what it arms, where its rates make firing likely. The
// inflation knobs stay inside what a phi=3 detector budget absorbs: extreme
// inflation is indistinguishable from death within 24 probe periods, a config
// error, not a robustness gap.
func FuzzGrayFailure(f *testing.F) {
	f.Add(int64(1), 0.2, 2.0, 4, 1, 0.0)
	f.Add(int64(7), 0.4, 4.0, 8, 2, 0.1)
	f.Add(int64(42), 0.05, 3.0, 1, 0, 0.25)
	f.Add(int64(99), 0.0, 0.0, 0, 3, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, slow, factor float64, slowMax, stall int, loss float64) {
		seed = max(seed, -seed)
		slow, factor, loss = within(slow, 0, 0.4, 0.3), within(factor, 1, 4, 4), within(loss, 0, 0.25, 0)
		slowMax, stall = within(slowMax, 0, 8, 8), within(stall, 0, 2, 1)
		if slow == 0 && stall == 0 {
			slow = 0.1
		}
		row{gseed: seed%8 + 1, line: fmt.Sprintf("-topo gnp -n 10 -gnp-p 0.4 -seed %d -epochs 2 -flaps 1 -crashes 0 %s -reliable 3 -loss %g -slow %g -slow-factor %g -slow-max %d -stall %d",
			seed, quiet, loss, slow, factor, slowMax, stall)}.parsed().soak(t, nil)
	})
}

// within is v if it lies in [lo, hi], or else (NaN too).
func within[T int | float64](v, lo, hi, or T) T {
	if v >= lo && v <= hi {
		return v
	}
	return or
}
