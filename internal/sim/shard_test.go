package sim_test

import (
	"strings"
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// The tests in this file are the determinism contract of the sharded
// space-parallel engine: a run under WithShards(p) must produce identical
// observables — trace stream, metrics, clock, errors, per-node delivery and
// busy vectors — for every p >= 1. WithShards(1) is the serial reference
// execution of the shard-mode stream contract; the shard side of the table
// holds it to two, three, four and eight shards (and to a 64-slot ring) on
// the golden rows, a driver-heavy epoch row, and a fuzzer.

// TestShardDifferential runs every golden row on the shard side of the table.
// (At C = 0 every p falls back to one serial shard — there is no lookahead to
// window by — so that row checks option composition rather than parallelism;
// the C >= 1 rows partition for real.)
func TestShardDifferential(t *testing.T) {
	for _, s := range goldenRows() {
		table(t, s, shardSide...)
	}
}

// shardFlood is the C >= 1 workhorse row: a flood over a GNP graph.
var shardFlood = scenario{name: "shard-flood", graph: graphSpec{n: 120, p: 0.06, seed: 17}, mode: topology.ModeFlood,
	c: 2, p: 1, seed: 29, dmax: 120, steps: script(injectEvery(120, 4, 3), runAll())}

// TestShardEngagement verifies the sharded path is actually selected on a
// C >= 1 GNP row — the partition statistics are sane, the run matches the
// serial reference, and the total event count is conserved (the table
// compares it: every event dispatches exactly once, on exactly one shard).
func TestShardEngagement(t *testing.T) {
	got := table(t, shardFlood, shardSide[0], shardSide[3])
	if info := got["shards-1"].info; info.Shards != 1 {
		t.Fatalf("serial reference reports %+v", info)
	}
	if info := got["shards-4"].info; info.Shards <= 1 || info.Lookahead != 2 || info.CutEdges == 0 {
		t.Fatalf("WithShards(4): %+v, want several shards, cut edges, and the exact hardware delay 2 as lookahead", info)
	}
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

// noCutEdge is the 4-cycle 0-1-3-4 with node 2 isolated beside it: GNP(5,
// 0.29, 126) with node 2's edges stripped. At seeds 1 and 126 the partitioner
// seeds on node 2, so two shards share no edge.
var noCutEdge = graphSpec{n: 5, p: 0.29, seed: 126, isolate: 1 << 2}

// TestShardPartitionWithoutCutEdge: a partition whose parts are exactly the
// graph's components cuts no edge, and the window is still the model's
// minimum hop delay. The run must end and match the serial reference on both
// sides of the table. It runs under a watchdog, so a zero-width window fails
// the test binary instead of spinning forever.
func TestShardPartitionWithoutCutEdge(t *testing.T) {
	s := scenario{name: "no-cut-edge", graph: noCutEdge, mode: topology.ModeFlood, c: 1, p: 1, seed: 1, dmax: 5,
		steps: script(injectEvery(5, 1, 1), runAll())}
	watchdog := time.AfterFunc(10*time.Second, func() { panic("TestShardPartitionWithoutCutEdge: the row had not returned after 10 s") })
	defer watchdog.Stop()
	table(t, s, classicSide...)
	if info, want := table(t, s, shardSide...)["shards-2"].info, (sim.ShardInfo{Shards: 2, CutEdges: 0, Lookahead: 1}); info != want {
		t.Errorf("ShardInfo = %+v, want %+v", info, want)
	}
}

// epochs drives the full mid-run driver surface the way soak campaigns do —
// RunUntil epochs with node 17 crashed and restored in turn, link flips,
// fault-profile swaps, and NCU stalls scripted in between — then the clock's edge cases: an injection at Now()
// after Run, a RunUntil past the last event, and a backward RunUntil (refused
// with ErrBackward) followed by injections in the past.
func epochs() scenario {
	s := scenario{name: "epochs", graph: graphSpec{n: 80, p: 0.08, seed: 23}, mode: topology.ModeFlood, full: true,
		c: 2, p: 1, seed: 31, dmax: 80, steps: injectEvery(80, 5, 4)}
	for epoch, deadline := 0, core.Time(12); epoch < 4; epoch, deadline = epoch+1, deadline+12 {
		flip := crash
		if epoch%2 == 1 {
			flip = restore
		}
		s.steps = script(s.steps, runTo(deadline), step{op: flip, rel: true, node: 17}, step{op: setLink, rel: true, edge: epoch * 7, up: epoch%2 == 1},
			step{op: setFaults, faults: core.MsgFaults{Drop: 0.02 * float64(epoch), Dup: 0.02, Jitter: 0.05, JitterMax: 3}},
			step{op: stall, node: core.NodeID(epoch * 13 % 80), window: 6, extra: 2}, injectAt(deadline, core.NodeID(epoch*11%80)))
	}
	s.steps = script(s.steps, runAll(), step{op: inject, rel: true, node: 7}, runAll(), step{op: runUntil, rel: true, at: 150},
		step{op: runUntil, rel: true, at: -20, want: sim.ErrBackward}, step{op: inject, rel: true, at: -25, node: 9},
		step{op: inject, rel: true, at: -21, node: 40}, runAll())
	return s
}

// TestShardEpochsAndDriverAPI plays the epoch row on both sides of the table:
// every engine agrees with its contract's first, Now() after every run step
// included.
func TestShardEpochsAndDriverAPI(t *testing.T) {
	both(t, epochs())
}

// TestSetDefaultShards: the shard count is a value in one driver's option
// list, not a process setting, so it reaches exactly the networks built from
// that list. Two parallel subtests play the train row at once, one with
// WithShards(4) and its own totals sink, one with neither: each play's
// counters are what its own sink collected, each network reports its own
// list's partition, and under -race nothing is shared. (The name dates from
// the package-wide default this replaced.)
func TestSetDefaultShards(t *testing.T) {
	s := trainRow(2, core.MsgFaults{})
	var sharded, classic sim.SchedTotals
	runs := []struct {
		totals *sim.SchedTotals
		e      engine
	}{{&sharded, shardSide[3]}, {&classic, classicSide[0]}}
	t.Run("drivers", func(t *testing.T) {
		for _, r := range runs {
			t.Run(r.e.name, func(t *testing.T) {
				t.Parallel()
				for rep := 0; rep < 4; rep++ {
					before := r.totals.Stats()
					got := play(t, s, r.e, r.totals.Sink())
					before.Events += got.sched.Events
					if now := r.totals.Stats(); got.sched.Events == 0 || now.Events != before.Events {
						t.Errorf("rep %d: the network counted %+v, its sink now holds %+v", rep, got.sched, now)
					}
					if info, want := got.info, r.e.p > 1; (info.Shards > 1) != want || (info.CutEdges > 0) != want || (info.Lookahead == 2) != want {
						t.Errorf("%s built %+v", r.e.name, info)
					}
				}
			})
		}
	})
	if sharded.Stats() == classic.Stats() || classic.Stats().Events == 0 {
		t.Errorf("the two drivers' totals are %+v and %+v", sharded.Stats(), classic.Stats())
	}
}

// TestFailureAgreesAcrossShardCounts: a run a handler fails returns the same
// core.HandlerError on every engine of both contracts. On an 8x8 grid flooded
// from corner 0, the opposite corners 7 and 56 both fail, 56 one activation
// sooner, inside one synchronous window (C = 4): each shard stops at its own
// failure, and the run reports the earlier one, not the lower node, with the
// clock at its instant at every p. Running the failed network again, backward
// or forward, dispatches nothing and returns the same error (play checks both).
func TestFailureAgreesAcrossShardCounts(t *testing.T) {
	got := both(t, scenario{name: "flood-fail", graph: graphSpec{family: grid, n: 8}, proto: floodFail, c: 4, p: 1, seed: 1,
		steps: script(injectAt(0, 0), step{op: run, want: errHandler}, step{op: runUntil, want: errHandler}, step{op: run, want: errHandler})})
	if err := got[0].steps[0].err; err != got[1].steps[0].err || !strings.HasPrefix(err, "node 56 at ") {
		t.Fatalf("classic failed with %q, one shard with %q, want node 56's failure on both", err, got[1].steps[0].err)
	}
}

// FuzzShardCount decodes random graphs, seeds, delay configs and fault
// profiles (with a link flip that may cut a shard boundary) into one row and
// checks the whole table on it. isolate strips every edge of node u < 8 when
// its bit u is set, so graphs with several components — and partitions that
// cut no edge — are reachable. Run as a CI fuzz smoke like FuzzCutThrough.
func FuzzShardCount(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(2), uint8(1), false, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(64), uint8(8), uint8(1), uint8(2), true, uint8(10), uint8(10), uint8(15), uint8(0))
	f.Add(int64(42), uint8(24), uint8(30), uint8(3), uint8(1), false, uint8(25), uint8(0), uint8(25), uint8(0x91))
	// noCutEdge's graph, where two shards cut no edge.
	f.Add(int64(126), uint8(3), uint8(25), uint8(1), uint8(0), false, uint8(0), uint8(0), uint8(0), uint8(1<<2))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct, c, sw uint8, randomize bool, drop, dup, jitter, isolate uint8) {
		nodes := 2 + int(n)%126
		s := scenario{name: "fuzz-shard-count", graph: graphSpec{n: nodes, p: 0.04 + float64(pPct%100)/100, seed: seed, isolate: isolate},
			mode: topology.ModeFlood, full: true, c: core.Time(c % 4), p: core.Time(1 + sw%3), random: randomize, seed: seed, dmax: 2 * nodes,
			faults: core.MsgFaults{Drop: float64(drop%40) / 200, Dup: float64(dup%40) / 200, Jitter: float64(jitter%40) / 200, JitterMax: 3,
				Reorder: float64(jitter%20) / 200}}
		if s.graph.build().M() > 0 {
			s.steps = script(link(2, 0, false), link(9, 0, true))
		}
		s.steps = script(s.steps, injectEvery(nodes, 3, 4), runAll())
		both(t, s)
	})
}
