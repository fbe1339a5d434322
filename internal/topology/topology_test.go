package topology

import (
	"math/bits"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

func TestDBUpdateOrdering(t *testing.T) {
	db := NewDB()
	r1 := Record{Node: 3, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 4, Up: true}}}
	r2 := Record{Node: 3, Seq: 2, Links: []LinkInfo{{Local: 1, Neighbor: 4, Up: false}}}
	if !db.Update(r2) {
		t.Fatal("first update must apply")
	}
	if db.Update(r1) {
		t.Fatal("older record must be rejected")
	}
	if db.Update(r2) {
		t.Fatal("equal-seq record must be rejected")
	}
	got, ok := db.Record(3)
	if !ok || got.Links[0].Up {
		t.Fatalf("record = %+v, want seq-2 (down)", got)
	}
}

func TestDBUpdateCopies(t *testing.T) {
	db := NewDB()
	links := []LinkInfo{{Local: 1, Neighbor: 2, Up: true}}
	db.Update(Record{Node: 1, Seq: 1, Links: links})
	links[0].Up = false // caller mutates its slice
	got, _ := db.Record(1)
	if !got.Links[0].Up {
		t.Fatal("DB must store an independent copy of the record")
	}
}

// TestPreloadAdopts: a warm start stores the link lists it is handed, not
// copies of them (Record.Links is immutable once stored), for every node but
// the one preloaded, whose own record from Init is as new as the input's.
func TestPreloadAdopts(t *testing.T) {
	g := graph.RandomTree(64, 3)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil), sim.WithDmax(g.N()))
	recs := RecordsForGraph(g, net.PortMap(), nil)
	const root = 5
	net.Protocol(root).(Maintainer).Preload(recs)
	db := net.Protocol(root).(Maintainer).DB()
	for _, want := range recs {
		got, ok := db.Record(want.Node)
		if !ok || SameLinks(got.Links, want.Links) != (want.Node != root) {
			t.Fatalf("node %d: stored %v, list shared %v", want.Node, ok, SameLinks(got.Links, want.Links))
		}
	}
}

// A record taken from the database is what a local-topology broadcast puts
// in its Msg; at C > 0 or P > 0 the packet is still in flight when the next
// link change reaches the sender's database, and must keep saying what was
// sent.
func TestInFlightRecordNotRewritten(t *testing.T) {
	db := NewDB()
	db.Update(Record{Node: 1, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 2, Up: true}}})
	sent, _ := db.Record(1)
	db.Update(Record{Node: 1, Seq: 2, Links: []LinkInfo{{Local: 1, Neighbor: 2, Up: false}}})
	if !sent.Links[0].Up {
		t.Fatal("the seq-1 record in flight now carries seq 2's link state")
	}
}

func TestDBViewTwoSided(t *testing.T) {
	db := NewDB()
	db.Update(Record{Node: 0, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 1, Up: true}}})
	// Node 1's record missing: one-sided claim is accepted.
	if g := db.View(); !g.HasEdge(0, 1) {
		t.Fatal("one-sided up claim should appear in the view")
	}
	// Node 1 disagrees: edge disappears.
	db.Update(Record{Node: 1, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 0, Up: false}}})
	if g := db.View(); g.HasEdge(0, 1) {
		t.Fatal("two-sided disagreement must hide the edge")
	}
}

func TestDBKnowsNodes(t *testing.T) {
	g := graph.Path(3)
	pm := core.NewPortMap(g)
	db := NewDB()
	for _, r := range RecordsForGraph(g, pm, nil) {
		db.Update(r)
	}
	if !db.KnowsExactly(g, nil) {
		t.Fatal("preloaded DB must know the topology exactly")
	}
	down := map[graph.Edge]bool{{U: 0, V: 1}: true}
	if db.KnowsExactly(g, down) {
		t.Fatal("DB must not match once a link went down")
	}
}

func TestSingleBroadcastBranchingCost(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"path32", graph.Path(32)},
		{"star32", graph.Star(32)},
		{"cbt4", graph.CompleteBinaryTree(4)},
		{"randomtree100", graph.RandomTree(100, 5)},
		{"gnp64", graph.GNP(64, 0.08, 3)},
		{"grid6x6", graph.Grid(6, 6)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.g.N()
			res, err := SingleBroadcast(tt.g, 0, ModeBranching)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			// The paper's headline: exactly n-1 deliveries (n system calls
			// counting the origin's own activation, here the injection).
			if m.Deliveries != int64(n-1) {
				t.Fatalf("deliveries = %d, want %d", m.Deliveries, n-1)
			}
			if res.Covered != n-1 {
				t.Fatalf("covered = %d, want %d", res.Covered, n-1)
			}
			// Theorem 2: rounds <= floor(log2 n) + 1; with the injected
			// trigger costing one unit, finish <= floor(log2 n) + 2.
			bound := core.Time(bits.Len(uint(n)) + 1)
			if m.FinishTime > bound {
				t.Fatalf("finish = %d, want <= %d", m.FinishTime, bound)
			}
			if m.Drops != 0 {
				t.Fatalf("drops = %d, want 0", m.Drops)
			}
		})
	}
}

func TestSingleBroadcastPerNodeOnce(t *testing.T) {
	g := graph.RandomTree(60, 9)
	base := []sim.Option{sim.WithDelays(0, 1), sim.WithDmax(g.N())}
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil), base...)
	recs := RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
	}
	net.Inject(0, 7, Trigger{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	for u, d := range net.DeliveriesPerNode() {
		want := int64(1)
		if u == 7 {
			want = 0
		}
		if d != want {
			t.Fatalf("node %d deliveries = %d, want %d", u, d, want)
		}
	}
}

func TestSingleBroadcastFloodingCost(t *testing.T) {
	g := graph.GNP(64, 0.08, 3)
	n, m := g.N(), g.M()
	res, err := SingleBroadcast(g, 0, ModeFlood)
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics
	if res.Covered != n-1 {
		t.Fatalf("covered = %d, want %d", res.Covered, n-1)
	}
	// Flooding delivers one copy per directed edge into every non-origin
	// node at least once; total deliveries are Theta(m): more than m/2,
	// at most 2m.
	if met.Deliveries < int64(m)/2 || met.Deliveries > 2*int64(m) {
		t.Fatalf("deliveries = %d, want Theta(m) with m=%d", met.Deliveries, m)
	}
	// Branching must beat flooding on system calls on this graph.
	bres, err := SingleBroadcast(g, 0, ModeBranching)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Metrics.Deliveries >= met.Deliveries {
		t.Fatalf("branching %d >= flooding %d deliveries", bres.Metrics.Deliveries, met.Deliveries)
	}
}

func TestFloodingTimeLinearOnPath(t *testing.T) {
	// On a path, flooding pays one software delay per hop: Omega(n) time.
	// The branching broadcast covers the whole path in one unit.
	g := graph.Path(40)
	flood, err := SingleBroadcast(g, 0, ModeFlood)
	if err != nil {
		t.Fatal(err)
	}
	branch, err := SingleBroadcast(g, 0, ModeBranching)
	if err != nil {
		t.Fatal(err)
	}
	if flood.Metrics.FinishTime < 39 {
		t.Fatalf("flooding finish = %d, want Omega(n)", flood.Metrics.FinishTime)
	}
	if branch.Metrics.FinishTime > 3 {
		t.Fatalf("branching finish = %d, want O(1) on a path", branch.Metrics.FinishTime)
	}
}

func TestSingleBroadcastLayersOneUnit(t *testing.T) {
	// Footnote 1: the layered walk is a single message; every node receives
	// it one software delay after the origin sends: finish = 2 (1 for the
	// injected trigger, 1 for the parallel deliveries).
	for _, g := range []*graph.Graph{graph.Path(20), graph.RandomTree(50, 2), graph.CompleteBinaryTree(4)} {
		res, err := SingleBroadcast(g, 0, ModeLayers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Covered != g.N()-1 {
			t.Fatalf("covered = %d, want %d", res.Covered, g.N()-1)
		}
		if res.Metrics.Deliveries != int64(g.N()-1) {
			t.Fatalf("deliveries = %d, want %d", res.Metrics.Deliveries, g.N()-1)
		}
		if res.Metrics.FinishTime != 2 {
			t.Fatalf("finish = %d, want 2", res.Metrics.FinishTime)
		}
	}
}

func TestLayersRequireLongPaths(t *testing.T) {
	// With the standard dmax = n the layered walk must be rejected on a
	// deep tree (its header is Theta(n*d) hops) — the reason the paper
	// restricts path length.
	g := graph.Path(24)
	net := sim.New(g, NewMaintainer(ModeLayers, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	recs := RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
	}
	net.Inject(0, 0, Trigger{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	wb := net.Protocol(0).(*WalkBroadcast)
	if wb.SendErrors != 1 {
		t.Fatalf("SendErrors = %d, want 1 (dmax must reject the layered walk)", wb.SendErrors)
	}
}

func TestConvergenceColdStart(t *testing.T) {
	// With empty databases, knowledge expands at least one hop per round:
	// convergence within eccentricity+1 rounds (Theorem 1's comment).
	g := graph.Grid(5, 4)
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeBranching, MaxRounds: 20,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("cold-start convergence failed")
	}
	if res.Round > g.Diameter()+1 {
		t.Fatalf("converged in %d rounds, want <= diameter+1 = %d", res.Round, g.Diameter()+1)
	}
}

func TestConvergenceFullKnowledgeFaster(t *testing.T) {
	// Broadcasting everything known doubles the knowledge radius per round:
	// O(log d) rounds instead of O(d) (the paper's comment after Thm 1).
	g := graph.Path(33) // diameter 32
	plain, err := RunConvergence(g, ConvOptions{Mode: ModeBranching, MaxRounds: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunConvergence(g, ConvOptions{Mode: ModeBranching, Full: true, MaxRounds: 40}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !full.Converged {
		t.Fatalf("convergence failed: plain=%v full=%v", plain.Converged, full.Converged)
	}
	if full.Round > 8 { // ~log2(32)+2
		t.Fatalf("full-knowledge converged in %d rounds, want O(log d)", full.Round)
	}
	if plain.Round <= full.Round {
		t.Fatalf("plain (%d rounds) should be slower than full (%d rounds)", plain.Round, full.Round)
	}
}

func TestConvergenceWithFailures(t *testing.T) {
	g := graph.GNP(40, 0.1, 11)
	changes := []Change{
		{Round: 2, U: 0, V: g.Neighbors(0)[0], Up: false},
		{Round: 3, U: 5, V: g.Neighbors(5)[0], Up: false},
		{Round: 5, U: 0, V: g.Neighbors(0)[0], Up: true},
	}
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeBranching, MaxRounds: 30,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("branching-paths must converge after changes stop")
	}
}

// sixNode builds the paper's non-convergence example: a triangle u,v,w with
// one pendant each, and the three pendant links failing simultaneously.
func sixNode() (*graph.Graph, []Change) {
	g := graph.New(6)
	g.MustAddEdge(0, 1) // u-v
	g.MustAddEdge(1, 2) // v-w
	g.MustAddEdge(0, 2) // w-u
	g.MustAddEdge(0, 3) // u-u1
	g.MustAddEdge(1, 4) // v-v1
	g.MustAddEdge(2, 5) // w-w1
	changes := []Change{
		{Round: 1, U: 0, V: 3, Up: false},
		{Round: 1, U: 1, V: 4, Up: false},
		{Round: 1, U: 2, V: 5, Up: false},
	}
	return g, changes
}

// cyclicOrder prefers child (parent+1) mod 3 among the triangle nodes,
// reproducing the paper's adversarial DFS choice.
func cyclicOrder(parent core.NodeID, children []core.NodeID) []core.NodeID {
	if parent > 2 {
		return children
	}
	pref := (parent + 1) % 3
	out := make([]core.NodeID, 0, len(children))
	for _, c := range children {
		if c == pref {
			out = append(out, c)
		}
	}
	for _, c := range children {
		if c != pref {
			out = append(out, c)
		}
	}
	return out
}

func TestDFSDeadlockExample(t *testing.T) {
	// The paper's §3 example: one-shot DFS broadcast never converges.
	g, changes := sixNode()
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeDFS, Order: cyclicOrder, Warm: true, MaxRounds: 30,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatalf("DFS broadcast converged at round %d; the example must deadlock", res.Round)
	}
}

func TestBranchingPathsResolvesDeadlockExample(t *testing.T) {
	// Same scenario, branching-paths: converges within a few rounds.
	g, changes := sixNode()
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeBranching, Warm: true, MaxRounds: 30,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("branching-paths must converge on the six-node example")
	}
	if res.RoundsAfterChanges > 3 {
		t.Fatalf("converged %d rounds after changes, want <= 3", res.RoundsAfterChanges)
	}
}

func TestFloodConvergesOnDeadlockExample(t *testing.T) {
	// Flooding also survives the example (it is failure-oblivious), at a
	// higher system-call cost.
	g, changes := sixNode()
	res, err := RunConvergence(g, ConvOptions{
		Mode: ModeFlood, Warm: true, MaxRounds: 30,
	}, changes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("flooding must converge on the six-node example")
	}
}

func TestBroadcastSurvivesPathFailures(t *testing.T) {
	// Lemma 2: nodes on an all-active path from the origin still receive
	// the broadcast even when other parts of the tree are dark.
	g := graph.Path(10)
	net := sim.New(g, NewMaintainer(ModeBranching, false, nil),
		sim.WithDelays(0, 1), sim.WithDmax(g.N()))
	recs := RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(Maintainer).Preload(recs)
	}
	// Kill 6-7 at t=0; the origin 0 does not know.
	net.SetLink(0, 6, 7, false)
	net.Inject(0, 0, Trigger{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	per := net.DeliveriesPerNode()
	for u := 1; u <= 6; u++ {
		if per[u] == 0 {
			t.Fatalf("node %d on the live prefix missed the broadcast", u)
		}
	}
	for u := 7; u <= 9; u++ {
		if per[u] != 0 {
			t.Fatalf("node %d beyond the failure received the broadcast", u)
		}
	}
}

func TestWalkHeaderSingleDeliveryPerNode(t *testing.T) {
	// A DFS walk broadcast delivers exactly once per non-origin node.
	g := graph.RandomTree(40, 4)
	res, err := SingleBroadcast(g, 0, ModeDFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Deliveries != int64(g.N()-1) {
		t.Fatalf("deliveries = %d, want %d", res.Metrics.Deliveries, g.N()-1)
	}
	if res.Covered != g.N()-1 {
		t.Fatalf("covered = %d, want %d", res.Covered, g.N()-1)
	}
	// One time unit: a single walk message.
	if res.Metrics.FinishTime != 2 {
		t.Fatalf("finish = %d, want 2", res.Metrics.FinishTime)
	}
	if res.Metrics.Packets != 1 {
		t.Fatalf("packets = %d, want 1", res.Metrics.Packets)
	}
}

func TestEulerWalkShape(t *testing.T) {
	g := graph.CompleteBinaryTree(2)
	tr := g.BFSTree(0)
	walk := eulerWalk(tr, nil)
	if len(walk) != 2*7-1 {
		t.Fatalf("walk length = %d, want %d", len(walk), 2*7-1)
	}
	if walk[0] != 0 || walk[len(walk)-1] != 0 {
		t.Fatalf("walk must start and end at the root: %v", walk)
	}
}

func TestLayeredWalkCoversByLayers(t *testing.T) {
	g := graph.Path(4) // rooted at 0: layers 1,2,3
	tr := g.BFSTree(0)
	walk := layeredWalk(tr, nil)
	// Sub-walk k covers depth <= k (the shared root is not duplicated):
	// [0 1 0] [1 2 1 0] [1 2 3 2 1 0].
	want := []core.NodeID{0, 1, 0, 1, 2, 1, 0, 1, 2, 3, 2, 1, 0}
	if len(walk) != len(want) {
		t.Fatalf("walk = %v, want %v", walk, want)
	}
	for i := range want {
		if walk[i] != want[i] {
			t.Fatalf("walk = %v, want %v", walk, want)
		}
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeBranching: "branching-paths",
		ModeFlood:     "flooding",
		ModeDFS:       "dfs-walk",
		ModeLayers:    "bfs-layers",
		Mode(99):      "mode(99)",
	} {
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// KnowsExactly reports whether the database matches the whole actual
// topology (Theorem 1's condition restricted to a connected network).
func (db *DB) KnowsExactly(g *graph.Graph, down map[graph.Edge]bool) bool {
	all := make([]core.NodeID, g.N())
	for i := range all {
		all[i] = core.NodeID(i)
	}
	return db.KnowsNodes(all, g, down)
}
