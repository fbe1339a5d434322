package faults

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"fastnet/internal/calls"
	"fastnet/internal/core"
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

func TestSoakDESAllFaultKinds(t *testing.T) {
	g := graph.GNP(12, 0.35, 2)
	cfg := Config{
		Seed:           1,
		Epochs:         5,
		Flaps:          2,
		PartitionEvery: 3,
		Crashes:        1,
		Downtime:       1,
		Calls:          2,
		LeaderCrash:    0.5,
	}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Epochs != cfg.Epochs {
		t.Fatalf("completed %d epochs, want %d", res.Epochs, cfg.Epochs)
	}
	if res.FaultFlips == 0 || res.CallsSetUp == 0 || res.Elections == 0 || res.ProbesSent == 0 {
		t.Fatalf("soak exercised too little: %s", res.Line())
	}
	if res.ProbesDown == 0 {
		t.Fatal("no down-link probes were sent")
	}
}

func TestSoakDESDeterministic(t *testing.T) {
	g := graph.GNP(10, 0.4, 4)
	cfg := Config{
		Seed: 7, Epochs: 3, Flaps: 2, Crashes: 1, Calls: 1, LeaderCrash: 1,
	}
	a, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() != b.Line() {
		t.Fatalf("same seed, different runs:\n%s\n%s", a.Line(), b.Line())
	}
	c, err := Soak(g, Config{Seed: 8, Epochs: 3, Flaps: 2, Crashes: 1, Calls: 1, LeaderCrash: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Line() == c.Line() {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestSoakGosim(t *testing.T) {
	g := graph.GNP(10, 0.4, 1)
	cfg := Config{
		Seed:    3,
		Epochs:  3,
		Runtime: "gosim",
		Flaps:   1,
		Crashes: 1,
		Calls:   1,
		Timeout: 20 * time.Second,
	}
	res, err := Soak(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Epochs != cfg.Epochs {
		t.Fatalf("completed %d epochs, want %d", res.Epochs, cfg.Epochs)
	}
}

func TestSoakAdversary(t *testing.T) {
	g := graph.GNP(10, 0.4, 9)
	res, err := Soak(g, Config{Seed: 5, Epochs: 3, Adversary: true, Calls: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.FaultFlips == 0 {
		t.Fatal("adversary never failed a link")
	}
}

func TestSoakRejectsBadConfig(t *testing.T) {
	g := graph.Ring(4)
	if _, err := Soak(g, Config{Epochs: 0}); err == nil {
		t.Fatal("Epochs=0 must error")
	}
	if _, err := Soak(g, Config{Epochs: 1, Runtime: "bogus"}); err == nil {
		t.Fatal("unknown runtime must error")
	}
	// A library caller's knobs are range-checked like the command line's,
	// before normalize can take a negative for "default".
	for flag, cfg := range map[string]Config{
		"-loss 2":       {Epochs: 1, Loss: 2},
		"-slow NaN":     {Epochs: 1, Slow: math.NaN()},
		"-flaplen -1":   {Epochs: 1, FlapLen: -1},
		"-link-cap -1":  {Epochs: 1, LinkCap: -1},
		"-timeout -1ns": {Epochs: 1, Timeout: -1},
	} {
		if _, err := Soak(g, cfg); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("Soak accepted %s: %v", flag, err)
		}
	}
	if _, err := Soak(g, Config{Epochs: 1, Seed: -4, LeaderCrash: 1, Loss: 0}); err != nil {
		t.Fatalf("bounds of the ranges, and any seed: %v", err)
	}
}

func TestConfigRepro(t *testing.T) {
	cfg := Config{Seed: 9, Epochs: 50, Flaps: 3, Adversary: true, NoElection: true}
	line := cfg.Repro("gnp", 64)
	for _, want := range []string{"fastnet soak", "-seed 9", "-topo gnp", "-n 64", "-adversary", "-no-election"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro %q missing %q", line, want)
		}
	}
}
