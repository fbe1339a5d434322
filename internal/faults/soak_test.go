package faults

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fastnet/internal/calls"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// I1 recognises a stored link list it has already verified by identity: all
// converged databases share one array per node. A list in an array of its
// own must still get the full check — stale, it is the witness; equal, it
// passes.
func TestConvergedCatchesPrivateStaleList(t *testing.T) {
	g := graph.GNP(12, 0.35, 2)
	topo := topology.NewMaintainer(topology.ModeBranching, true, nil)
	r := &soakRun{g: g, st: newState(g)}
	r.h = simHarness{sim.New(g, func(id core.NodeID) core.Protocol {
		return &soakNode{
			topo: topo(id).(topology.Maintainer), mgr: calls.New(id),
			rel: reliable.NewEndpoint(id, reliable.Config{RTO: 1}), book: &probeBook{},
		}
	}, sim.WithDelays(0, 1), sim.WithDmax(g.N()))}
	if rounds, witness, err := r.convergeRounds(); err != nil || rounds < 0 {
		t.Fatalf("no convergence: %v %s", err, witness)
	}
	const w, equal, stale = 5, 3, 8
	shared, _ := r.node(0).topo.DB().Record(w)
	for u := 0; u < g.N(); u++ {
		if rec, _ := r.node(core.NodeID(u)).topo.DB().Record(w); &rec.Links[0] != &shared.Links[0] {
			t.Fatalf("node %d holds node %d's list in an array of its own after convergence", u, w)
		}
	}
	// install puts the given lists for w into u's database one after the
	// other. Update copies a list that differs from the stored one, so the
	// last of them ends up in an array of u's own.
	truth := shared.Links
	wrong := slices.Clone(truth)
	wrong[0].Up = !wrong[0].Up
	install := func(u core.NodeID, lists ...[]topology.LinkInfo) {
		db := r.node(u).topo.DB()
		for _, l := range lists {
			rec, _ := db.Record(w)
			db.Update(topology.Record{Node: w, Seq: rec.Seq + 1, Links: l})
		}
		if rec, _ := db.Record(w); &rec.Links[0] == &shared.Links[0] {
			t.Fatalf("node %d still shares node %d's list", u, w)
		}
	}
	install(equal, wrong, truth)
	install(stale, wrong)
	witness, ok := r.converged()
	if ok || !strings.HasPrefix(witness, "node 8 is stale about 5 ") {
		t.Fatalf("converged() = %q, %v; want node %d named as stale about %d", witness, ok, stale, w)
	}
	install(stale, truth)
	if witness, ok := r.converged(); !ok {
		t.Fatalf("equal lists in private arrays must pass: %s", witness)
	}
}

func TestSoakRejectsBadConfig(t *testing.T) {
	g := graph.Ring(4)
	// A library caller's knobs are range-checked like the command line's,
	// before normalize can take a negative for "default".
	for flag, cfg := range map[string]Config{
		"Epochs must be positive": {Epochs: 0},
		`unknown runtime "bogus"`: {Epochs: 1, Runtime: "bogus"},
		"-loss 2":                 {Epochs: 1, Loss: 2},
		"-slow NaN":               {Epochs: 1, Slow: math.NaN()},
		"-flaplen -1":             {Epochs: 1, FlapLen: -1},
		"-link-cap -1":            {Epochs: 1, LinkCap: -1},
		"-timeout -1ns":           {Epochs: 1, Timeout: -1},
	} {
		if _, err := Soak(g, cfg); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("Soak accepted %s: %v", flag, err)
		}
	}
	if _, err := Soak(g, Config{Epochs: 1, Seed: -4, LeaderCrash: 1, Loss: 0}); err != nil {
		t.Fatalf("bounds of the ranges, and any seed: %v", err)
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
		zero, def := row{cfg: pair[0], topo: "gnp", n: 12, g: g}, row{cfg: pair[1], topo: "gnp", n: 12, g: g}
		if a, b := zero.soak(t, nil).Line(), def.soak(t, nil).Line(); a != b {
			t.Errorf("a zero knob and its explicit default ran differently\n zero     %s\n explicit %s", a, b)
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
