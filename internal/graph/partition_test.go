package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

func TestPartitionKBasic(t *testing.T) {
	g := graph.Grid(8, 8)
	p := graph.PartitionK(g, 4, 1)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	if p.K != 4 {
		t.Fatalf("K = %d, want 4", p.K)
	}
	for c, s := range p.Sizes {
		if s < 8 || s > 24 {
			t.Errorf("part %d badly balanced: %d nodes of 64", c, s)
		}
	}
	if p.CutEdges == 0 {
		t.Fatal("connected graph split into 4 parts must cut edges")
	}
}

// A 2-way split of an r x r grid has an ideal cut of about r edges. The
// BFS-grow + refine partitioner won't hit the optimum, but it must beat a
// striped (round-robin) assignment by a wide margin — that is the "quality"
// bar: locality, not just balance.
func TestPartitionKCutQuality(t *testing.T) {
	const r = 16
	g := graph.Grid(r, r)
	p := graph.PartitionK(g, 2, 3)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	striped := make([]int32, g.N())
	for u := range striped {
		striped[u] = int32(u % 2)
	}
	stripedCut := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v && striped[u] != striped[v] {
				stripedCut++
			}
		}
	}
	if p.CutEdges*4 > stripedCut {
		t.Fatalf("grid cut %d not clearly better than striped cut %d", p.CutEdges, stripedCut)
	}
	if p.CutEdges > 3*r {
		t.Fatalf("grid cut %d, want within 3x of ideal %d", p.CutEdges, r)
	}
}

// shardInfo builds a shard-mode flood network over g and reports the
// partition it runs on.
func shardInfo(g *graph.Graph, opts ...sim.Option) sim.ShardInfo {
	return sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil), opts...).ShardInfo()
}

// A model whose hardware delay is 0 has no lookahead, so the simulator never
// partitions it (and the partitioner needs no zero-delay contraction): any
// shard request runs on one serial shard, exact or randomized.
func TestPartitionKZeroDelayContraction(t *testing.T) {
	g := graph.Path(6)
	for _, random := range []bool{false, true} {
		opts := []sim.Option{sim.WithDelays(0, 5), sim.WithSeed(7), sim.WithShards(3)}
		if random {
			opts = append(opts, sim.WithRandomDelays())
		}
		if info := shardInfo(g, opts...); info != (sim.ShardInfo{Shards: 1}) {
			t.Errorf("randomized=%v: zero-delay path runs on %+v, want one serial shard", random, info)
		}
	}
}

func TestPartitionKAllZeroDelayFallsBackToOnePart(t *testing.T) {
	g := graph.GNP(32, 0.2, 5)
	for _, random := range []bool{false, true} {
		for _, k := range []int{2, 4, 8} {
			opts := []sim.Option{sim.WithDelays(0, 1), sim.WithShards(k)}
			if random {
				opts = append(opts, sim.WithRandomDelays())
			}
			if info := shardInfo(g, opts...); info.Shards != 1 {
				t.Errorf("randomized=%v k=%d: zero-delay graph runs on %d shards, want 1", random, k, info.Shards)
			}
		}
	}
}

func TestPartitionKDeterministic(t *testing.T) {
	g := graph.GNP(100, 0.08, 11)
	a := graph.PartitionK(g, 4, 9)
	b := graph.PartitionK(g, 4, 9)
	if len(a.Assign) != len(b.Assign) {
		t.Fatal("assign length mismatch")
	}
	for u := range a.Assign {
		if a.Assign[u] != b.Assign[u] {
			t.Fatalf("node %d: %d vs %d across identical runs", u, a.Assign[u], b.Assign[u])
		}
	}
}

func TestPartitionKSmallGraphs(t *testing.T) {
	for n := 0; n <= 5; n++ {
		g := graph.New(n)
		for u := 1; u < n; u++ {
			g.AddEdge(0, graph.NodeID(u))
		}
		p := graph.PartitionK(g, 8, 2)
		if n > 0 {
			if err := p.Validate(g); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		if want := max(min(n, 8), 1); p.K != want {
			t.Fatalf("n=%d: K = %d, want %d (the request capped at the node count)", n, p.K, want)
		}
	}
}

// The shard window is the model's minimum hop delay whatever the partition
// cuts: C under exact delays, 1 under randomized ones, both for two cliques
// split at their bridge and for a partition that cuts no edge at all.
func TestPartitionKMinCrossDelayReflectsEdges(t *testing.T) {
	cliques := graph.New(12)
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			cliques.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
			cliques.MustAddEdge(graph.NodeID(u+6), graph.NodeID(v+6))
		}
	}
	cliques.MustAddEdge(2, 8)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		seed int64
		cut  int
	}{
		{"bridged cliques", cliques, 4, 1},
		{"cycle beside isolated node", cycleAndIsolated(), 1, 0},
	} {
		for _, random := range []bool{false, true} {
			opts := []sim.Option{sim.WithDelays(7, 3), sim.WithSeed(c.seed), sim.WithShards(2)}
			want := sim.ShardInfo{Shards: 2, CutEdges: c.cut, Lookahead: 7}
			if random {
				opts = append(opts, sim.WithRandomDelays())
				want.Lookahead = 1
			}
			if info := shardInfo(c.g, opts...); info != want {
				t.Errorf("%s, randomized=%v: %+v, want %+v", c.name, random, info, want)
			}
		}
	}
}

// fabricLike is the benchmark harness's random fabric (bench/adapter.go): a
// random spanning tree, then uniform random edges up to the target degree.
func fabricLike(n int, degree float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]))
	}
	for m := int(float64(n) * degree / 2); g.M() < m; {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// disjoint returns the disjoint union of a and b, b's nodes renumbered after
// a's.
func disjoint(a, b *graph.Graph) *graph.Graph {
	g := graph.New(a.N() + b.N())
	for _, e := range a.Edges() {
		g.MustAddEdge(e.U, e.V)
	}
	for _, e := range b.Edges() {
		g.MustAddEdge(e.U+graph.NodeID(a.N()), e.V+graph.NodeID(a.N()))
	}
	return g
}

// isolated returns g with every edge at the nodes u with u%every == 0 removed.
func isolated(g *graph.Graph, every int) *graph.Graph {
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		if int(e.U)%every != 0 && int(e.V)%every != 0 {
			h.MustAddEdge(e.U, e.V)
		}
	}
	return h
}

// cycleAndIsolated is the 4-cycle 0-1-3-4 beside the isolated node 2: at
// seed 1 the partitioner seeds on node 2, so a 2-way split cuts no edge.
func cycleAndIsolated() *graph.Graph {
	g := graph.New(5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 3}, {3, 4}, {4, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// TestPartitionPinned hashes the partitions of grids, rings, stars, the
// benchmark-scale fabrics and disconnected graphs at k = 2, 4, 8 and three
// seeds. The pins were taken from the partitioner that contracted zero-delay
// edges; they show that every node being its own unit changed no partition
// the simulator can ask for.
func TestPartitionPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"grid8x8", graph.Grid(8, 8), "0022ba499a05eeb9"},
		{"grid16x16", graph.Grid(16, 16), "bdc4d97b4641377f"},
		{"grid5x13", graph.Grid(5, 13), "33b1a8f860974121"},
		{"ring7", graph.Ring(7), "181e45203ac5d0a0"},
		{"ring50", graph.Ring(50), "ab680de40fbb5b1e"},
		{"star33", graph.Star(33), "024d49e8acb63303"},
		{"gnp208", graph.GNP(208, 14.0/207, 1), "7c8b3a8889f7bee6"},
		{"fabric208-1", fabricLike(208, 14, 1), "0f99ae45d03bcc5d"},
		{"fabric208-2", fabricLike(208, 14, 2), "3a93326850e242b0"},
		{"fabric208-7", fabricLike(208, 14, 7), "48c61fe6004be16c"},
		{"two-grids", disjoint(graph.Grid(6, 6), graph.Grid(4, 5)), "be59d7cde72e0682"},
		{"ring-and-star", disjoint(graph.Ring(9), graph.Star(12)), "c32d8ee9b0ff23bb"},
		{"gnp-every5th-isolated", isolated(graph.GNP(60, 0.08, 3), 5), "f2c93531e2d3cee3"},
		{"edgeless9", graph.New(9), "f12f614c8123362a"},
		{"cycle-and-isolated", cycleAndIsolated(), "3f99d7e248e78e46"},
	}
	for _, c := range graphs {
		h := sha256.New()
		for _, k := range []int{2, 4, 8} {
			for _, seed := range []int64{1, 7, 42} {
				p := graph.PartitionK(c.g, k, seed)
				if err := p.Validate(c.g); err != nil {
					t.Fatalf("%s k=%d seed=%d: %v", c.name, k, seed, err)
				}
				fmt.Fprintln(h, p.K, p.Assign, p.Sizes, p.CutEdges)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
			t.Errorf("%s: partitions hash %s, pinned %s", c.name, got, c.want)
		}
	}
}
