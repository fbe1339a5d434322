package paths

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"
	"testing/quick"

	"fastnet/internal/graph"
)

func labelsOf(g *graph.Graph, root graph.NodeID) (*graph.Tree, []int) {
	t := g.BFSTree(root)
	return t, Labels(t)
}

func TestLabelsPath(t *testing.T) {
	// A path rooted at one end is a single chain: all labels 0.
	g := graph.Path(6)
	tr, labels := labelsOf(g, 0)
	for u := 0; u < 6; u++ {
		if labels[u] != 0 {
			t.Fatalf("label[%d] = %d, want 0", u, labels[u])
		}
	}
	_ = tr
}

func TestLabelsCompleteBinaryTree(t *testing.T) {
	// The complete binary tree of depth d has root label d.
	for d := 0; d <= 6; d++ {
		g := graph.CompleteBinaryTree(d)
		_, labels := labelsOf(g, 0)
		if labels[0] != d {
			t.Fatalf("depth %d: root label = %d, want %d", d, labels[0], d)
		}
	}
}

func TestLabelsStar(t *testing.T) {
	// A star's leaves are 0; the center has >= 2 children labelled 0, so 1.
	g := graph.Star(5)
	_, labels := labelsOf(g, 0)
	if labels[0] != 1 {
		t.Fatalf("center label = %d, want 1", labels[0])
	}
	for u := 1; u < 5; u++ {
		if labels[u] != 0 {
			t.Fatalf("leaf label = %d, want 0", labels[u])
		}
	}
}

func TestLabelsSingleNode(t *testing.T) {
	g := graph.New(1)
	_, labels := labelsOf(g, 0)
	if labels[0] != 0 {
		t.Fatalf("singleton label = %d, want 0", labels[0])
	}
}

func TestLemma1AtMostOneEqualChild(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := graph.RandomTree(200, seed)
		tr, labels := labelsOf(g, 0)
		children := tr.Children()
		for u := range children {
			count := 0
			for _, c := range children[u] {
				if labels[c] == labels[u] {
					count++
				}
			}
			if count > 1 {
				t.Fatalf("seed %d: node %d (label %d) has %d equal-label children",
					seed, u, labels[u], count)
			}
		}
	}
}

func TestSubtreeSizeLowerBound(t *testing.T) {
	// A node with label l roots a subtree with at least 2^l nodes
	// (Theorem 2's counting argument).
	for seed := int64(0); seed < 10; seed++ {
		g := graph.RandomTree(300, seed)
		tr, labels := labelsOf(g, 0)
		sizes := subtreeSizes(tr)
		for u, l := range labels {
			if l < 0 {
				continue
			}
			if sizes[u] < 1<<l {
				t.Fatalf("seed %d: node %d label %d but subtree size %d < %d",
					seed, u, l, sizes[u], 1<<l)
			}
		}
	}
}

func subtreeSizes(t *graph.Tree) []int {
	sizes := make([]int, len(t.Parent))
	// Process nodes in decreasing depth order.
	order := make([]graph.NodeID, 0, len(t.Parent))
	for u := range t.Parent {
		if t.Reached(graph.NodeID(u)) {
			order = append(order, graph.NodeID(u))
		}
	}
	// Simple selection: repeatedly take max depth. O(n^2) acceptable in tests.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if t.Depth[order[j]] > t.Depth[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, u := range order {
		sizes[u]++
		if p := t.Parent[u]; p != graph.None {
			sizes[p] += sizes[u]
		}
	}
	return sizes
}

func TestMaxLabelLogBound(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, n := range []int{2, 5, 17, 64, 200} {
			g := graph.RandomTree(n, seed)
			_, labels := labelsOf(g, 0)
			bound := bits.Len(uint(n)) - 1 // floor(log2 n)
			if got := MaxLabel(labels); got > bound {
				t.Fatalf("n=%d seed=%d: max label %d > floor(log2 n) = %d",
					n, seed, got, bound)
			}
		}
	}
}

func TestDecomposePathGraph(t *testing.T) {
	g := graph.Path(5)
	tr, labels := labelsOf(g, 0)
	d := Decompose(tr, labels)
	if err := d.Check(tr); err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 1 {
		t.Fatalf("%d paths, want 1 (a path graph is one chain)", len(d.Paths))
	}
	if got := d.Paths[0]; len(got) != 5 || got[0] != 0 {
		t.Fatalf("path = %v", got)
	}
	_, max := d.Rounds(0)
	if max != 1 {
		t.Fatalf("rounds = %d, want 1", max)
	}
}

func TestDecomposeStar(t *testing.T) {
	g := graph.Star(6)
	tr, labels := labelsOf(g, 0)
	d := Decompose(tr, labels)
	if err := d.Check(tr); err != nil {
		t.Fatal(err)
	}
	if len(d.Paths) != 5 {
		t.Fatalf("%d paths, want 5", len(d.Paths))
	}
	for _, p := range d.Paths {
		if p.Start() != 0 || len(p) != 2 {
			t.Fatalf("path = %v, want a single-leaf path from the center", p)
		}
	}
	_, max := d.Rounds(0)
	if max != 1 {
		t.Fatalf("rounds = %d, want 1 (all paths start at the root)", max)
	}
}

func TestDecomposeCompleteBinaryTree(t *testing.T) {
	g := graph.CompleteBinaryTree(4) // 31 nodes, root label 4
	tr, labels := labelsOf(g, 0)
	d := Decompose(tr, labels)
	if err := d.Check(tr); err != nil {
		t.Fatal(err)
	}
	_, max := d.Rounds(0)
	// Theorem 2: at most 1 + (maxLabel - minChainLabel) <= 1 + log2 n rounds.
	if max > 5 {
		t.Fatalf("rounds = %d, want <= 5", max)
	}
	if max < 4 {
		t.Fatalf("rounds = %d suspiciously small for depth-4 CBT", max)
	}
}

func TestRoundsBoundQuick(t *testing.T) {
	// Theorem 2 as a property: broadcast rounds <= floor(log2 n) + 1 on
	// random trees of many shapes and roots.
	f := func(seed int64, szRaw uint16, rootRaw uint16) bool {
		n := int(szRaw%500) + 2
		g := graph.RandomTree(n, seed)
		root := graph.NodeID(int(rootRaw) % n)
		tr := g.BFSTree(root)
		labels := Labels(tr)
		d := Decompose(tr, labels)
		if err := d.Check(tr); err != nil {
			return false
		}
		_, max := d.Rounds(root)
		bound := bits.Len(uint(n)) // floor(log2 n) + 1
		return max <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposePartitionQuick(t *testing.T) {
	f := func(seed int64, szRaw uint16) bool {
		n := int(szRaw%300) + 1
		g := graph.RandomTree(n, seed)
		tr := g.BFSTree(0)
		d := Decompose(tr, Labels(tr))
		if err := d.Check(tr); err != nil {
			return false
		}
		// Total chain length must be exactly n-1 (each non-root node once).
		total := 0
		for _, p := range d.Paths {
			total += len(p.chain())
		}
		return total == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestStartingAt(t *testing.T) {
	g := graph.Star(4)
	tr, labels := labelsOf(g, 0)
	d := Decompose(tr, labels)
	if got := d.StartingAt(0); len(got) != 3 {
		t.Fatalf("StartingAt(0) = %v, want 3 paths", got)
	}
	if got := d.StartingAt(1); len(got) != 0 {
		t.Fatalf("StartingAt(1) = %v, want none", got)
	}
}

func TestDecomposeSubtreeOfGraph(t *testing.T) {
	// Decomposition must work on BFS trees of general graphs, not only on
	// trees (the broadcast uses minimum-hop trees of the known topology).
	g := graph.GNP(60, 0.1, 3)
	tr := g.BFSTree(7)
	d := Decompose(tr, Labels(tr))
	if err := d.Check(tr); err != nil {
		t.Fatal(err)
	}
	_, max := d.Rounds(7)
	if max < 1 || max > 7 {
		t.Fatalf("rounds = %d out of plausible range", max)
	}
}

// Routes must hand the paths out exactly as a stable sort by start node
// would order them, each with its own hops' links in a slice nothing can
// grow into its neighbor.
func TestRoutesOrderAndLinks(t *testing.T) {
	type hop struct{ from, to graph.NodeID }
	for seed := int64(1); seed <= 20; seed++ {
		tr := graph.RandomTree(80, seed).BFSTree(graph.NodeID(seed % 80))
		d := Decompose(tr, Labels(tr))
		want := append([]Path(nil), d.Paths...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Start() < want[j].Start() })

		var got []Path
		err := Routes(d, func(from, to graph.NodeID) (hop, bool) { return hop{from, to}, true },
			func(p Path, links []hop) {
				got = append(got, p)
				if len(links) != len(p.chain()) || cap(links) != len(links) {
					t.Fatalf("seed %d: path %v got %d links (cap %d)", seed, p, len(links), cap(links))
				}
				for i, l := range links {
					if l != (hop{p[i], p[i+1]}) {
						t.Fatalf("seed %d: path %v link %d = %v", seed, p, i, l)
					}
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d routes, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("seed %d: route %d is %v, want %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestRoutesUnknownLink(t *testing.T) {
	tr, labels := labelsOf(graph.Path(4), 0)
	d := Decompose(tr, labels)
	emitted := 0
	err := Routes(d, func(from, to graph.NodeID) (int, bool) { return 0, to != 2 },
		func(Path, []int) { emitted++ })
	if err == nil || emitted != 0 {
		t.Fatalf("err = %v after %d routes, want an error naming hop 1->2 and no route", err, emitted)
	}
}

// MaxLabel returns the largest label (the root's label for a connected
// tree); by Theorem 2 it is at most floor(log2 n).
func MaxLabel(labels []int) int {
	max := 0
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max
}

// Check verifies the decomposition invariants against its tree: chains
// partition the non-root reached nodes, every chain is a same-label
// parent-to-child path, and every start node is the root or a chain member.
// It returns the first violation found.
func (d *Decomposition) Check(t *graph.Tree) error {
	seen := make(map[graph.NodeID]bool)
	inSomeChain := make(map[graph.NodeID]bool)
	for i, p := range d.Paths {
		if len(p) < 2 {
			return fmt.Errorf("paths: path %d too short: %v", i, p)
		}
		l := p.label(d.Labels)
		for j := 1; j < len(p); j++ {
			v := p[j]
			if seen[v] {
				return fmt.Errorf("paths: node %d appears in two chains", v)
			}
			seen[v] = true
			inSomeChain[v] = true
			if d.Labels[v] != l {
				return fmt.Errorf("paths: path %d mixes labels %d and %d", i, l, d.Labels[v])
			}
			if t.Parent[v] != p[j-1] {
				return fmt.Errorf("paths: path %d edge %d->%d is not a tree edge", i, p[j-1], v)
			}
		}
	}
	for u := range t.Parent {
		v := graph.NodeID(u)
		if !t.Reached(v) || v == t.Root {
			continue
		}
		if !seen[v] {
			return fmt.Errorf("paths: node %d not covered by any chain", v)
		}
	}
	for i, p := range d.Paths {
		if s := p.Start(); s != t.Root && !inSomeChain[s] {
			return fmt.Errorf("paths: path %d starts at uncovered node %d", i, s)
		}
	}
	return nil
}

// StartingAt returns the paths whose start node is u.
func (d *Decomposition) StartingAt(u graph.NodeID) []Path {
	if u < 0 || int(u)+1 >= len(d.off) {
		return nil
	}
	idx := d.order[d.off[u]:d.off[u+1]]
	out := make([]Path, len(idx))
	for i, j := range idx {
		out[i] = d.Paths[j]
	}
	return out
}
