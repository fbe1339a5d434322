package election

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// buildInOutFromGraph constructs an INOUT tree mirroring a BFS tree of a
// real graph, with the true link IDs from the port map.
func buildInOutFromGraph(g *graph.Graph, root core.NodeID) (*domain, *core.PortMap) {
	pm := core.NewPortMap(g)
	bfs := g.BFSTree(root)
	tr := newInOutTree(root)
	// Attach in BFS order (parents first).
	var order []core.NodeID
	queue := []core.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, c := range bfs.Children()[u] {
			order = append(order, c)
			queue = append(queue, c)
		}
	}
	for _, c := range order {
		p := bfs.Parent[c]
		down, _ := pm.Toward(p, c)
		up, _ := pm.Toward(c, p)
		if err := tr.attach(treeEntry{Node: c, Parent: p, Down: down, Up: up}); err != nil {
			panic(err)
		}
	}
	return tr, pm
}

// walkTo executes the tree's route on the real hardware and returns the
// terminal node.
func walkTo(pm *core.PortMap, from core.NodeID, h anr.Header) (core.NodeID, bool) {
	tr, err := core.WalkRoute(pm, from, h)
	if err != nil || len(tr.Dropped) > 0 || len(tr.Deliveries) != 1 {
		return 0, false
	}
	return tr.Deliveries[0].Node, true
}

// Property: every route of an INOUT tree built from a real graph is
// executable and terminates at the right node.
func TestInOutRoutesExecutableQuick(t *testing.T) {
	f := func(seed int64, rootRaw, dstRaw uint8) bool {
		const n = 24
		g := graph.RandomTree(n, seed)
		root := core.NodeID(rootRaw % n)
		dst := core.NodeID(dstRaw % n)
		tr, pm := buildInOutFromGraph(g, root)
		h, err := tr.route(dst)
		if err != nil {
			return false
		}
		got, ok := walkTo(pm, root, h)
		return ok && got == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: after rerooting at any node, every route is still executable
// from the new root — the Down/Up swap must be exactly right.
func TestInOutRerootRoutesQuick(t *testing.T) {
	f := func(seed int64, newRootRaw, dstRaw uint8) bool {
		const n = 20
		g := graph.RandomTree(n, seed)
		tr, pm := buildInOutFromGraph(g, 0)
		newRoot := core.NodeID(newRootRaw % n)
		dst := core.NodeID(dstRaw % n)
		re, err := tr.reroot(newRoot)
		if err != nil {
			return false
		}
		if re.size() != n {
			return false
		}
		h, err := re.route(dst)
		if err != nil {
			return false
		}
		got, ok := walkTo(pm, newRoot, h)
		return ok && got == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: reroot twice returns to an equivalent tree (same route
// behavior from the original root).
func TestInOutRerootInvolutionQuick(t *testing.T) {
	f := func(seed int64, viaRaw uint8) bool {
		const n = 16
		g := graph.RandomTree(n, seed)
		tr, pm := buildInOutFromGraph(g, 0)
		via := core.NodeID(viaRaw % n)
		re, err := tr.reroot(via)
		if err != nil {
			return false
		}
		back, err := re.reroot(0)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5; i++ {
			dst := core.NodeID(rng.Intn(n))
			h, err := back.route(dst)
			if err != nil {
				return false
			}
			got, ok := walkTo(pm, 0, h)
			if !ok || got != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: wire() always serializes parents before children, whatever the
// tree history.
func TestInOutWireOrderQuick(t *testing.T) {
	f := func(seed int64, rerootRaw uint8) bool {
		const n = 18
		g := graph.RandomTree(n, seed)
		tr, _ := buildInOutFromGraph(g, 0)
		re, err := tr.reroot(core.NodeID(rerootRaw % n))
		if err != nil {
			return false
		}
		seen := map[core.NodeID]bool{re.root(): true}
		for _, e := range re.wire() {
			if !seen[e.Parent] {
				return false
			}
			seen[e.Node] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
