package paths_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
	"fastnet/internal/topology"
)

// This file holds the oracle paths.Fanout is proved against: the wire form
// and relay loop topology, election and pif each ran before it — route specs
// (start node + per-hop link IDs) sorted by start, and at every receiver a
// binary search for its own run of specs and one anr.CopyPath per spec.

type routeSpec struct {
	start graph.NodeID
	links []anr.ID
}

type linkFunc = func(from, to graph.NodeID) (anr.ID, bool)

func routeSpecs(tree *graph.Tree, link linkFunc) ([]routeSpec, error) {
	d := paths.Decompose(tree, paths.Labels(tree))
	specs := make([]routeSpec, 0, len(d.Paths))
	err := paths.Routes(d, link, func(p paths.Path, links []anr.ID) {
		specs = append(specs, routeSpec{start: p.Start(), links: links})
	})
	return specs, err
}

func relayLoop(specs []routeSpec, id graph.NodeID) []anr.Header {
	lo := sort.Search(len(specs), func(j int) bool { return specs[j].start >= id })
	var hs []anr.Header
	for _, spec := range specs[lo:] {
		if spec.start != id {
			break
		}
		hs = append(hs, anr.CopyPath(spec.links))
	}
	return hs
}

// fanoutDiff reports how NewFanout(tree, link) differs from the oracle, for
// every node of the tree's ID range and two IDs either side of it; "" if it
// does not.
func fanoutDiff(tree *graph.Tree, link linkFunc) string {
	plan, err := paths.NewFanout(tree, link)
	return planDiff(plan, err, tree, link)
}

// planDiff is fanoutDiff for a plan already built.
func planDiff(plan *paths.Fanout, err error, tree *graph.Tree, link linkFunc) string {
	specs, werr := routeSpecs(tree, link)
	if err != nil || werr != nil {
		if err == nil || werr == nil || err.Error() != werr.Error() || plan != nil {
			return fmt.Sprintf("plan %v, error %v; oracle error %v", plan, err, werr)
		}
		return ""
	}
	routes := 0
	for id := graph.NodeID(-2); int(id) < len(tree.Parent)+2; id++ {
		got, want := plan.For(id), relayLoop(specs, id)
		if len(got) != len(want) {
			return fmt.Sprintf("node %d: routes %v, oracle %v", id, got, want)
		}
		for i, h := range got {
			if h.String() != want[i].String() || cap(h) != len(h) {
				return fmt.Sprintf("node %d route %d: %v (cap %d), oracle %v", id, i, h, cap(h), want[i])
			}
		}
		routes += len(got)
	}
	if routes != len(specs) {
		return fmt.Sprintf("%d routes over all nodes, oracle %d", routes, len(specs))
	}
	return ""
}

// syntheticLink names hop from->to deterministically; with holes set, a few
// hops are unknown, so both sides must fail alike.
func syntheticLink(holes bool) linkFunc {
	return func(from, to graph.NodeID) (anr.ID, bool) {
		if holes && (int(from)*7+int(to))%61 == 0 {
			return 0, false
		}
		return anr.ID(1 + (int(from)*31+int(to))%250), true
	}
}

func TestFanoutMatchesRelayLoop(t *testing.T) {
	// Hand-picked shapes: a single node, a chain, a star, a deep and a
	// bushy tree, a root in the middle, a forest the root does not span.
	for name, tree := range map[string]*graph.Tree{
		"single":  graph.New(1).BFSTree(0),
		"path":    graph.Path(9).BFSTree(0),
		"midpath": graph.Path(9).BFSTree(4),
		"star":    graph.Star(7).BFSTree(0),
		"leaf":    graph.Star(7).BFSTree(3),
		"binary":  graph.CompleteBinaryTree(5).BFSTree(0),
		"split":   split().BFSTree(1),
		"noroot":  graph.Path(4).BFSTree(9),
	} {
		if diff := fanoutDiff(tree, syntheticLink(false)); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	// Random trees, every root.
	for seed := int64(1); seed <= 12; seed++ {
		g := graph.RandomTree(int(20+seed*9), seed)
		for root := 0; root < g.N(); root += 1 + int(seed)%3 {
			for _, holes := range []bool{false, true} {
				if diff := fanoutDiff(g.BFSTree(graph.NodeID(root)), syntheticLink(holes)); diff != "" {
					t.Fatalf("random tree seed %d root %d holes %v: %s", seed, root, holes, diff)
				}
			}
		}
	}
	// A nil plan is a message nobody forwards.
	var none *paths.Fanout
	if hs := none.For(0); hs != nil {
		t.Errorf("nil plan: For(0) = %v", hs)
	}
}

// scratchTrees is a sequence of trees that grows from 1 to 300 nodes and
// shrinks back, mixing shapes, so that each NewFanout call meets a pooled
// scratch sized by a different tree: too small, too large, or filled by a
// tree whose stale contents must not leak into the next plan.
func scratchTrees(seed int64) []*graph.Tree {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{1, 2, 5, 9, 17, 40, 80, 150, 300, 300, 120, 60, 25, 7, 3, 1}
	var trees []*graph.Tree
	for i, n := range sizes {
		root := graph.NodeID(rng.Intn(n))
		switch i % 5 {
		case 0:
			trees = append(trees, graph.Path(n).BFSTree(root))
		case 1:
			trees = append(trees, graph.Star(n).BFSTree(root))
		case 2:
			trees = append(trees, graph.Complete(n).BFSTree(root))
		default:
			trees = append(trees, graph.RandomTree(n, seed+int64(i)).BFSTree(root))
		}
		if i%4 == 3 {
			// A forest the root does not span, and a root outside the ID range.
			g := graph.RandomTree(n, seed-int64(i))
			for _, e := range g.Edges()[:len(g.Edges())/3] {
				g.RemoveEdge(e.U, e.V)
			}
			trees = append(trees, g.BFSTree(root), g.BFSTree(graph.NodeID(n+rng.Intn(3))))
		}
	}
	return trees
}

// planHeaders copies out every header plan holds for the IDs of tree's
// range: a deep snapshot to compare the plan against after later builds.
func planHeaders(plan *paths.Fanout, tree *graph.Tree) [][]anr.Hop {
	var hs [][]anr.Hop
	for id := graph.NodeID(0); int(id) < len(tree.Parent); id++ {
		for _, h := range plan.For(id) {
			hs = append(hs, slices.Clone(h))
		}
	}
	return hs
}

// TestNewFanoutPooledScratch builds plans of trees that grow and shrink
// through NewFanout's pooled scratch: every plan must match the oracle, and
// every earlier plan must still hold what it held when built — nothing a
// plan keeps may be scratch a later build overwrites. Concurrent builders
// each take their own scratch (run under -race).
func TestNewFanoutPooledScratch(t *testing.T) {
	type built struct {
		tree *graph.Tree
		plan *paths.Fanout
		hdrs [][]anr.Hop
	}
	check := func(seed int64) error {
		link := syntheticLink(seed%2 == 0)
		var plans []built
		for i, tree := range scratchTrees(seed) {
			plan, err := paths.NewFanout(tree, link)
			if diff := planDiff(plan, err, tree, link); diff != "" {
				return fmt.Errorf("seed %d tree %d (%d nodes, root %d): %s", seed, i, len(tree.Parent), tree.Root, diff)
			}
			if plan != nil {
				plans = append(plans, built{tree, plan, planHeaders(plan, tree)})
			}
			for j, p := range plans {
				if got := planHeaders(p.plan, p.tree); !slices.EqualFunc(got, p.hdrs, slices.Equal) {
					return fmt.Errorf("seed %d: after building tree %d, plan %d reads %v, built as %v", seed, i, j, got, p.hdrs)
				}
			}
		}
		return nil
	}
	for seed := int64(1); seed <= 4; seed++ {
		if err := check(seed); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := int64(0); w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := check(10 + w); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	})
}

// split is two components; a tree rooted in one leaves the other unreached.
func split() *graph.Graph {
	g := graph.New(7)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {1, 3}, {4, 5}, {5, 6}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

func TestFanoutMatchesRelayLoopQuick(t *testing.T) {
	f := func(seed int64, szRaw, rootRaw uint16, holes bool) bool {
		n := int(szRaw%400) + 1
		tree := graph.RandomTree(n, seed).BFSTree(graph.NodeID(int(rootRaw) % n))
		if diff := fanoutDiff(tree, syntheticLink(holes)); diff != "" {
			t.Logf("seed %d n %d root %d holes %v: %s", seed, n, int(rootRaw)%n, holes, diff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The trees the topology broadcast actually decomposes: minimum-hop trees of
// a database's believed topology, link IDs from its records, after churn —
// links reported down by one end or both, nodes known only from their
// neighbours' records, a node whose stale record omits a neighbour.
func TestFanoutMatchesRelayLoopBelievedTopology(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(40, 0.12, seed)
		recs := topology.RecordsForGraph(g, core.NewPortMap(g), nil)
		db := topology.NewDB()
		for _, r := range recs {
			if rng.Intn(8) == 0 {
				continue // never heard from: known by its neighbours' claims only
			}
			db.Update(r)
		}
		for round := uint64(1); round <= 6; round++ {
			for i := 0; i < 5; i++ {
				r := recs[rng.Intn(len(recs))]
				r.Seq = round
				r.Links = append([]topology.LinkInfo(nil), r.Links...)
				switch k := rng.Intn(3); {
				case len(r.Links) == 0:
				case k == 0: // drop a link from the record
					r.Links = r.Links[:len(r.Links)-1]
				default: // report one down
					r.Links[rng.Intn(len(r.Links))].Up = false
				}
				db.Update(r)
			}
			for src := 0; src < g.N(); src += 3 {
				if diff := fanoutDiff(db.BFSTree(graph.NodeID(src)), db.LinkID); diff != "" {
					t.Fatalf("seed %d round %d source %d: %s", seed, round, src, diff)
				}
			}
		}
	}
}

// Decompose lists the paths by ascending top node, and StartingAt(u) is that
// list filtered by start — for every u, in or out of range.
func TestDecomposeOrderAndStartingAt(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		tree := graph.RandomTree(120, seed).BFSTree(graph.NodeID(seed))
		d := paths.Decompose(tree, paths.Labels(tree))
		for i := 1; i < len(d.Paths); i++ {
			if d.Paths[i-1][1] >= d.Paths[i][1] {
				t.Fatalf("seed %d: path %d tops %d, path %d tops %d", seed, i-1, d.Paths[i-1][1], i, d.Paths[i][1])
			}
		}
		for u := graph.NodeID(-1); int(u) <= len(tree.Parent); u++ {
			var want []paths.Path
			for _, p := range d.Paths {
				if p.Start() == u {
					want = append(want, p)
				}
			}
			got := d.StartingAt(u)
			if len(got) != len(want) {
				t.Fatalf("seed %d: StartingAt(%d) = %v, want %v", seed, u, got, want)
			}
			for i := range want {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("seed %d: StartingAt(%d)[%d] = %v, want %v", seed, u, i, got[i], want[i])
				}
			}
		}
	}
}

// refusingEnv refuses every multicast.
type refusingEnv struct{ err error }

func (e refusingEnv) Multicast([]anr.Header, any) error { return e.err }

func TestRelayNamesNodeAndLinks(t *testing.T) {
	plan, err := paths.NewFanout(graph.Star(4).BFSTree(0), syntheticLink(false))
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Relay(refusingEnv{core.ErrMulticastLinks}, 0, "payload")
	if n != 3 || err == nil {
		t.Fatalf("Relay = %d, %v; want 3 refused routes", n, err)
	}
	for _, want := range []string{"node 0", "first links [2 3 4]", core.ErrMulticastLinks.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if n, err := plan.Relay(refusingEnv{core.ErrMulticastLinks}, 2, "payload"); n != 0 || err != nil {
		t.Errorf("a node that starts no path: Relay = %d, %v", n, err)
	}
}
