// Package reseq_test holds no product code. The paper assumes FIFO links only
// for §5's pipelined protocols, and nothing in this repository runs those
// under reordering, so no protocol needs per-link order restored in software.
// What this directory checks instead is that §4's election needs no such
// layer: under reorder faults, on both runtimes, it elects one leader whose
// domain is the whole graph within Theorem 5's 6n algorithm messages,
// recovering from stale trees on its own (E22, invariant I7).
//
// Each test is one cell of a grid of reorder profile × delay regime ×
// runtime. internal/election/reorder_test.go holds the cells it does not
// repeat: the pinned random-delay repro and the 0.25/40 soaks.
package reseq_test

import (
	"testing"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// cell is one point of the grid: elections on GNP(n, p) samples under a
// fault profile, on the discrete-event runtime with the given delay options,
// or on the goroutine runtime (which has no clock) when async is set.
type cell struct {
	n        int
	p        float64
	seeds    []int64
	faults   core.MsgFaults
	delays   []sim.Option
	async    bool
	starters []core.NodeID // nil: every node starts
}

// elect runs one election of the cell on seed's sample and checks it: one
// leader, full domain, at most 6n algorithm messages. ok is false for a
// disconnected sample, which elects nothing.
func (c cell) elect(t *testing.T, seed int64) (res election.Result, ok bool) {
	t.Helper()
	g := graph.GNP(c.n, c.p, seed)
	if !g.Connected() {
		return res, false
	}
	starters := c.starters
	if starters == nil {
		starters = make([]core.NodeID, c.n)
		for i := range starters {
			starters[i] = core.NodeID(i)
		}
	}
	var err error
	if c.async {
		res, err = election.RunAsync(g, election.AlgoToken, starters, seed, 30*time.Second, gosim.WithMsgFaults(c.faults))
	} else {
		opts := append([]sim.Option{sim.WithSeed(seed), sim.WithMsgFaults(c.faults)}, c.delays...)
		res, err = election.Run(g, election.AlgoToken, starters, opts...)
	}
	switch {
	case err != nil:
		t.Fatalf("seed %d, faults %s: %v", seed, c.faults, err)
	case res.LeaderDomain != c.n:
		t.Fatalf("seed %d, faults %s: leader domain %d, want %d", seed, c.faults, res.LeaderDomain, c.n)
	case res.AlgorithmMessages > int64(6*c.n):
		t.Fatalf("seed %d, faults %s: %d algorithm messages > 6n = %d", seed, c.faults, res.AlgorithmMessages, 6*c.n)
	}
	return res, true
}

// run elects on every seed of the cell and returns the summed metrics and
// stale-tree recoveries. A cell whose profile reorders must have reordered.
func (c cell) run(t *testing.T) (m core.Metrics, recoveries int64) {
	t.Helper()
	runs := 0
	for _, seed := range c.seeds {
		if res, ok := c.elect(t, seed); ok {
			runs++
			m.Add(res.Metrics)
			recoveries += res.Stats.Recoveries.Load()
		}
	}
	if runs == 0 {
		t.Fatalf("no connected GNP(%d, %g) sample among seeds %v", c.n, c.p, c.seeds)
	}
	if c.faults.Reorder > 0 && m.FaultReorders == 0 {
		t.Fatalf("the reorder profile %s never fired", c.faults)
	}
	return m, recoveries
}

func seeds(k int) []int64 {
	s := make([]int64, k)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

// TestReorderBreaksFIFOWithoutResequencer pins the seed on which the reorder
// fault is load-bearing. In E22's heaviest cell (reorder 0.7, window 100,
// randomized C = 7, P = 8, GNP(24, 0.22)) seed 20 delivers a message behind a
// stale tree and the election recovers (Stats.Recoveries > 0); the same run
// without the fault needs no recovery. Nothing between the links and the
// election restores their order.
func TestReorderBreaksFIFOWithoutResequencer(t *testing.T) {
	plain := cell{n: 24, p: 0.22, seeds: []int64{20}, delays: []sim.Option{sim.WithDelays(7, 8), sim.WithRandomDelays()}}
	reordered := plain
	reordered.faults = core.MsgFaults{Reorder: 0.7, ReorderWindow: 100}
	if _, r := plain.run(t); r != 0 {
		t.Fatalf("%d recoveries without the reorder fault: the fault is not what this seed exercises", r)
	}
	if _, r := reordered.run(t); r == 0 {
		t.Fatal("no stale-tree recovery under the reorder fault; re-pin the seed")
	}
}

// TestResequencedMatchesFIFO: at C = 0, where the discrete-event runtime
// walks fault-free routes inline, a reorder fault (0.3, window 25) takes a
// hop out of the walk and delays it; the elections reach the outcome the
// FIFO runs of the same graphs reach.
func TestResequencedMatchesFIFO(t *testing.T) {
	fifo := cell{n: 16, p: 0.3, seeds: []int64{1, 7, 42}}
	reordered := fifo
	reordered.faults = core.MsgFaults{Reorder: 0.3, ReorderWindow: 25}
	fifo.run(t)
	reordered.run(t)
}

// TestResequenceAndStale: the same profile on the goroutine runtime, where a
// reordered delivery overtakes a random run of the receiver's inbox on top of
// the scheduler's own asynchrony.
func TestResequenceAndStale(t *testing.T) {
	cell{n: 16, p: 0.3, seeds: []int64{1, 7, 42}, faults: core.MsgFaults{Reorder: 0.3, ReorderWindow: 25}, async: true}.run(t)
}

// TestOverflowValve: the heaviest profile FuzzReorder draws (0.8 of all
// traversals reordered, window 40) under randomized C = 3, P = 1.
func TestOverflowValve(t *testing.T) {
	cell{n: 16, p: 0.3, seeds: seeds(6), faults: core.MsgFaults{Reorder: 0.8, ReorderWindow: 40},
		delays: []sim.Option{sim.WithDelays(3, 1), sim.WithRandomDelays()}}.run(t)
}

// TestAgeValve: reordering mixed with gray links, whose slowed packets arrive
// intact but late, under exact delays C = 1, P = 4, so only the faults
// reorder.
func TestAgeValve(t *testing.T) {
	faults := core.MsgFaults{Reorder: 0.3, ReorderWindow: 25, Slowdown: 0.2, SlowFactor: 4, SlowMax: 64}
	m, _ := cell{n: 20, p: 0.2, seeds: seeds(6), faults: faults, delays: []sim.Option{sim.WithDelays(1, 4)}}.run(t)
	if m.FaultSlowdowns == 0 {
		t.Fatal("the slowdown half of the profile never fired")
	}
}

// TestWrapFactory: two starters at opposite ends of the ID range, on the
// goroutine runtime, with 0.8 of all traversals reordered and a further 0.1
// jittered.
func TestWrapFactory(t *testing.T) {
	cell{n: 20, p: 0.2, seeds: []int64{3, 5}, async: true, starters: []core.NodeID{0, 19},
		faults: core.MsgFaults{Reorder: 0.8, ReorderWindow: 40, Jitter: 0.1, JitterMax: 8}}.run(t)
}
