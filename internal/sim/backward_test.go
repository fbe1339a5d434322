package sim_test

import (
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// RunUntil coverage: the simulated clock only moves forward, so a RunUntil
// whose deadline is behind the clock (any negative deadline included) is
// refused with sim.ErrBackward before either engine is entered. play checks
// that a refused call names the deadline and the clock and changes nothing a
// driver can see — clock, metrics, events, trace; the tests here hold the run
// that follows to one made without it, and a run chopped into epochs to one
// Run. (TestBackwardRunUntilSpill is named for the spill of lane and ring into
// the heap that such a deadline used to cause.)

// spill is the pipelined broadcast the backward tests drive: C = 3 with
// jitter keeps hop events parked in the ring across epoch boundaries. The
// steps follow the preamble.
func spill(steps ...any) scenario {
	return scenario{name: "spill", graph: graphSpec{n: 72, p: 0.07, seed: 11}, mode: topology.ModeBranching, preload: 6,
		c: 3, p: 1, seed: 5, faults: core.MsgFaults{Jitter: 0.2, JitterMax: 10}, steps: script(injectEvery(72, 6, 7), script(steps...))}
}

// sameRun holds b to a, all but the clock after each run step: the two
// scripts make different calls.
func sameRun(t *testing.T, a, b obs) {
	t.Helper()
	a.steps, b.steps = a.steps[len(a.steps)-1:], b.steps[len(b.steps)-1:]
	if d := diverge(a, b, false); d != "" {
		t.Errorf("diverged at %s", d)
	}
}

// TestBackwardRunUntilSpill runs into the thick of the broadcast — a
// non-empty same-time lane and a ring with several slots pending — then asks
// for deadlines behind the clock (one tick, down to 2, 0, -1 and -3) before
// it drains, under the classic scheduler, the shard-mode serial reference,
// two and eight shards, and non-default ring windows — tiny (4 slots, rounded
// up to the 64-slot minimum) and fixed historical 64 — against the same run
// with none.
func TestBackwardRunUntilSpill(t *testing.T) {
	refused := spill(runTo(9), step{op: inject, rel: true, node: 3}, step{op: runUntil, rel: true, at: -1, want: sim.ErrBackward},
		step{op: runUntil, at: 2, want: sim.ErrBackward}, step{op: runUntil, at: 0, want: sim.ErrBackward},
		step{op: runUntil, at: -1, want: sim.ErrBackward}, step{op: runUntil, at: -3, want: sim.ErrBackward}, runAll())
	straight := spill(runTo(9), step{op: inject, rel: true, node: 3}, runAll())
	for name, e := range map[string]engine{
		"classic":        classicSide[0],
		"classic-ring4":  {name: "ring-4", ring: 4},
		"classic-ring64": classicSide[1],
		"shard-serial":   shardSide[0],
		"shard-ring4":    {name: "shards-1-ring-4", p: 1, ring: 4},
		"shard-2":        shardSide[1],
		"shard-8":        shardSide[4],
	} {
		t.Run(name, func(t *testing.T) {
			sameRun(t, play(t, refused, e), play(t, straight, e))
		})
	}
	both(t, refused)
}

// TestRunUntilNegativeDeadlineRefused: a negative deadline is a deadline
// behind the clock, not "no deadline". Ten injections wait at t = 5..14; a
// RunUntil(-3) delivers none of them and leaves the clock at 0, and the Run
// after it delivers all ten.
func TestRunUntilNegativeDeadlineRefused(t *testing.T) {
	s := scenario{name: "negative-deadline", graph: graphSpec{family: ring, n: 8}, proto: backlog, c: 1, p: 1, seed: 1}
	for i := range 10 {
		s.steps = append(s.steps, injectAt(core.Time(5+i), core.NodeID(i%8)))
	}
	s.steps = script(s.steps, step{op: runUntil, at: -3, want: sim.ErrBackward}, runAll())
	got := table(t, s, classicSide...)
	for name, o := range table(t, s, shardSide...) {
		got[name] = o
	}
	for _, name := range []string{"classic", "shards-1", "shards-2"} {
		t.Run(name, func(t *testing.T) {
			if o := got[name]; o.steps[0].now != 0 || o.metrics.Injections != 10 || o.steps[1].now != 15 {
				t.Fatalf("clock %d after RunUntil(-3), %d injections at %d after Run; want 0, then 10 at 15", o.steps[0].now, o.metrics.Injections, o.steps[1].now)
			}
		})
	}
}

// TestRunUntil: an event past the deadline waits; the clock stops at the
// deadline, and the next Run dispatches it.
func TestRunUntil(t *testing.T) {
	for _, o := range both(t, scenario{name: "run-until", graph: graphSpec{family: path, n: 2}, proto: backlog, c: 1, p: 1, seed: 1,
		steps: script(injectAt(10, 0), runTo(5), runAll())}) {
		if o.steps[0].now != 5 || o.steps[0].events != 0 || o.steps[1].now != 11 || o.metrics.Injections != 1 {
			t.Fatalf("run steps %+v, %d injections: want the clock at 5 with nothing run, then the injection done at 11", o.steps, o.metrics.Injections)
		}
	}
}

// TestForwardCutKeepsRing pins the forward-RunUntil contract: stopping the
// clock at a deadline before pending ring instants must not disturb them (the
// next run promotes them from the ring), and chopping a run into 2-tick
// epochs, every one cut with hop events still parked in the ring (C = 3 >
// epoch width), must be observable-identical to one Run.
func TestForwardCutKeepsRing(t *testing.T) {
	straight := spill(runAll())
	var cuts []any
	for d := core.Time(0); d <= play(t, straight, classicSide[0]).finish(); d += 2 {
		cuts = append(cuts, runTo(d))
	}
	chopped := spill(append(cuts, runAll())...)
	for name, e := range map[string]engine{"classic": classicSide[0], "shard-serial": shardSide[0]} {
		t.Run(name, func(t *testing.T) {
			sameRun(t, play(t, chopped, e), play(t, straight, e))
		})
	}
	both(t, chopped)
}

// TestBackwardRunUntilHeapResidue: a far injection past the ring's window
// waits in the overflow heap when a backward deadline is refused, and
// dispatches at the instant it would have without the call.
func TestBackwardRunUntilHeapResidue(t *testing.T) {
	const far = 500
	residue := func(steps ...any) scenario {
		return scenario{name: "heap-residue", graph: graphSpec{family: tree, n: 16, seed: 3}, mode: topology.ModeFlood, c: 1, p: 1, seed: 1,
			steps: script(injectEvery(16, 1, 16), injectAt(far, 5), script(steps...))}
	}
	ring64 := classicSide[1]
	refused := play(t, residue(runTo(6), step{op: runUntil, at: 0, want: sim.ErrBackward}, runAll()), ring64)
	if refused.sched.HeapPushes != 1 {
		t.Fatalf("%d heap pushes, want 1: the far injection alone", refused.sched.HeapPushes)
	}
	sameRun(t, refused, play(t, residue(runAll()), ring64))
	// The injection arrives at far and its activation ends one P later.
	if !slices.ContainsFunc(refused.events, func(e trace.Event) bool { return e.Kind == trace.KindInject && e.Node == 5 && e.Time == far+1 }) {
		t.Errorf("no injection activation at node 5 at t = %d", far+1)
	}
}
