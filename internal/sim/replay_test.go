package sim_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/topology"
)

// A run is a pure function of its seed — the property that makes worst-case
// analyses reproducible — and the seed reaches every stream: the rows here
// replay their run and hold it to itself, and change the seed and see it
// move.

// replays checks s on both sides of the table, plays it again on classic and
// at the next seed, and returns the first play and the reseeded one.
func replays(t *testing.T, s scenario) (first, reseeded obs) {
	t.Helper()
	first = both(t, s)[0]
	if d := diverge(first, play(t, s, classicSide[0]), false); d != "" {
		t.Fatalf("%s: the same seed diverged at %s", s.name, d)
	}
	s.seed++
	return first, play(t, s, classicSide[0])
}

// ring8 floods a ring of eight from every node with randomized delays.
func ring8(name string, faults core.MsgFaults, steps ...any) scenario {
	return scenario{name: name, graph: graphSpec{family: ring, n: 8}, mode: topology.ModeFlood, c: 4, p: 6, random: true, seed: 7,
		faults: faults, steps: script(script(steps...), injectEvery(8, 1, 3), runAll())}
}

// TestDeterministicReplay: two runs of a multi-starter election with the
// same seed produce identical traces.
func TestDeterministicReplay(t *testing.T) {
	replays(t, scenario{name: "election", graph: graphSpec{n: 24, p: 0.15, seed: 3}, proto: elect, c: 2, p: 3, random: true, seed: 11,
		dmax: election.Dmax(24), steps: script(injectEvery(24, 1, 1), runAll())})
}

// TestDifferentSeedsDiverge: randomized delays must actually vary.
func TestDifferentSeedsDiverge(t *testing.T) {
	s := scenario{name: "flood-seeds", graph: graphSpec{n: 24, p: 0.15, seed: 3}, mode: topology.ModeFlood, c: 5, p: 7, random: true,
		seed: 1, dmax: 24, steps: script(injectAt(0, 0), runAll())}
	a := play(t, s, classicSide[0]).finish()
	for s.seed = 2; s.seed <= 6; s.seed++ {
		if play(t, s, classicSide[0]).finish() != a {
			return // diverged: good
		}
	}
	t.Fatal("five different seeds produced identical finish times")
}

func TestRandomDelaysDeterministicPerSeed(t *testing.T) {
	if a, c := replays(t, ring8("random-delays", core.MsgFaults{})); a.finish() == c.finish() {
		t.Log("different seeds produced equal finish times (possible but unusual)")
	}
}

// TestMsgFaultsDeterministicPerSeed is the acceptance check for the lossy-link
// model: with message faults enabled, the run remains a pure function of the
// seed, the fault events themselves included.
func TestMsgFaultsDeterministicPerSeed(t *testing.T) {
	a, c := replays(t, ring8("lossy", core.MsgFaults{Drop: 0.1, Dup: 0.1, Corrupt: 0.1, Jitter: 0.1, JitterMax: 9}))
	if m := a.metrics; m.FaultDrops+m.FaultDups+m.FaultCorrupts+m.FaultJitters == 0 {
		t.Fatal("fault profile never fired; test exercises nothing")
	}
	if diverge(a, c, false) == "" {
		t.Fatal("different seeds produced identical runs; fault stream not seeded")
	}
}

// TestGrayDeterministicPerSeed extends the lossy determinism contract to the
// gray dimensions: slowdown faults and node stalls are pure functions of the
// seed.
func TestGrayDeterministicPerSeed(t *testing.T) {
	a, c := replays(t, ring8("gray", core.MsgFaults{Drop: 0.05, Jitter: 0.1, JitterMax: 9, Slowdown: 0.3, SlowFactor: 3, SlowMax: 8},
		step{op: stall, node: 1, window: 200, extra: 5}))
	if a.metrics.FaultSlowdowns == 0 || a.metrics.StallTicks == 0 {
		t.Fatalf("gray dimensions never fired: %s", a.metrics)
	}
	if diverge(a, c, false) == "" {
		t.Fatal("different seeds produced identical gray runs")
	}
}
