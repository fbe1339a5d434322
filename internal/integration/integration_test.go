// Package integration_test exercises cross-module pipelines: topology
// discovery feeding route construction, election running on a post-fault
// network, and the full §3+§4+§5 stack sharing one simulated network model.
package integration_test

import (
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/globalfn"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// TestDiscoveryThenRouting runs the §3 maintenance protocol cold on a
// random network, then uses one node's converged database to source-route a
// packet across the network — the paper's intended division of labor
// (control software maintains the map, data rides the hardware).
func TestDiscoveryThenRouting(t *testing.T) {
	g := graph.GNP(48, 0.1, 17)
	res, err := topology.RunConvergence(g, topology.ConvOptions{
		Mode: topology.ModeBranching, MaxRounds: 40,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("discovery did not converge")
	}

	// Rebuild a converged database offline (RunConvergence owns its
	// network), then route with it on a fresh network.
	net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	db := topology.NewDB()
	for _, r := range recs {
		db.Update(r)
	}
	view := db.View()
	if !view.Equal(g) {
		t.Fatal("database view must equal the real topology")
	}
	src, dst := core.NodeID(0), core.NodeID(47)
	path := view.BFSTree(src).PathFromRoot(dst)
	if path == nil {
		t.Fatal("no path in the view")
	}
	links := make([]anr.ID, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		lid, ok := db.LinkID(path[i], path[i+1])
		if !ok {
			t.Fatalf("no link ID for %d-%d in the database", path[i], path[i+1])
		}
		links = append(links, lid)
	}
	tr, err := core.WalkRoute(net.PortMap(), src, anr.Direct(links))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Dropped) > 0 || len(tr.Deliveries) != 1 || tr.Deliveries[0].Node != dst {
		t.Fatalf("routing over the discovered map failed: %+v", tr)
	}
}

// TestFaultThenReelection is the paper's motivating sequence: faults occur,
// topology maintenance reconverges, and the survivors elect a leader on the
// new component.
func TestFaultThenReelection(t *testing.T) {
	g := graph.GNP(36, 0.12, 23)
	// Crash one node by failing all its links during maintenance.
	victim := core.NodeID(11)
	var changes []topology.Change
	for _, nb := range g.Neighbors(victim) {
		changes = append(changes, topology.Change{Round: 1, U: victim, V: nb, Up: false})
	}
	conv, err := topology.RunConvergence(g, topology.ConvOptions{
		Mode: topology.ModeBranching, Warm: true, MaxRounds: 40,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !conv.Converged {
		t.Fatal("maintenance did not converge after the crash")
	}

	// Election over the surviving component.
	live := g.Clone()
	for _, nb := range g.Neighbors(victim) {
		live.RemoveEdge(victim, nb)
	}
	var comp []core.NodeID
	for _, c := range live.Components() {
		if len(c) > len(comp) {
			comp = c
		}
	}
	idx := make(map[core.NodeID]core.NodeID, len(comp))
	for i, u := range comp {
		idx[u] = core.NodeID(i)
	}
	sub := graph.New(len(comp))
	for _, u := range comp {
		for _, v := range live.Neighbors(u) {
			if j, ok := idx[v]; ok && idx[u] < j {
				sub.MustAddEdge(idx[u], j)
			}
		}
	}
	starters := make([]core.NodeID, sub.N())
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	res, err := election.Run(sub, election.AlgoToken, starters)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlgorithmMessages > int64(6*sub.N()) {
		t.Fatalf("re-election cost %d > 6n", res.AlgorithmMessages)
	}
}

// TestLeaderThenAggregation chains §4 and §5: elect a coordinator, then
// aggregate a globally sensitive function over an optimal tree rooted at
// it.
func TestLeaderThenAggregation(t *testing.T) {
	n := 50
	g := graph.Complete(n)
	starters := make([]core.NodeID, n)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	res, err := election.Run(g, election.AlgoToken, starters)
	if err != nil {
		t.Fatal(err)
	}

	p := globalfn.Params{C: 1, P: 2}
	tstar, err := p.OptimalTime(int64(n))
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.OptimalTree(tstar)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := full.PruneTo(n)
	if err != nil {
		t.Fatal(err)
	}
	// Tree node 0 is the coordinator; map inputs so that the leader's input
	// is the maximum and check it wins the aggregate.
	inputs := make([]globalfn.Value, n)
	for i := range inputs {
		inputs[i] = globalfn.Value(i)
	}
	inputs[0] = globalfn.Value(1000 + int(res.Leader))
	agg, err := globalfn.Execute(tree, p, inputs, globalfn.Max, false)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Value != globalfn.Value(1000+int(res.Leader)) {
		t.Fatalf("aggregate = %d, want the leader-tagged maximum", agg.Value)
	}
	if globalfn.Time(agg.Finish) != tstar {
		t.Fatalf("aggregation finish = %d, want t* = %d", agg.Finish, tstar)
	}
}
