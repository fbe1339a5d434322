package load

import (
	"math/rand"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// referencePairs is the pair table's original construction, kept as the
// oracle: one allocating g.BFSTree per distinct source held in a map, each
// pair routed with PathFromRoot the moment it is drawn, unreachable pairs
// discovered by the nil path.
func referencePairs(t *testing.T, g *graph.Graph, pm *core.PortMap, count int, seed int64) []pairEntry {
	t.Helper()
	n := g.N()
	maxPairs := n * (n - 1)
	if count <= 0 {
		count = defaultPairs
	}
	if count > maxPairs {
		count = maxPairs
	}
	rng := rand.New(rand.NewSource(seed))
	trees := make(map[core.NodeID]*graph.Tree)
	var entries []pairEntry
	appendPair := func(src, dst core.NodeID) {
		if trees[src] == nil {
			trees[src] = g.BFSTree(src)
		}
		path := trees[src].PathFromRoot(dst)
		if path == nil {
			return
		}
		links, err := pm.RouteLinks(path)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, pairEntry{src: src, dst: dst, hdr: anr.Direct(links)})
	}
	if count >= maxPairs/2 || maxPairs <= 4*count {
		all := make([][2]core.NodeID, 0, maxPairs)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v {
					all = append(all, [2]core.NodeID{core.NodeID(u), core.NodeID(v)})
				}
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, p := range all {
			if len(entries) == count {
				break
			}
			appendPair(p[0], p[1])
		}
	} else {
		seen := make(map[int64]struct{}, count)
		for attempts := 0; len(entries) < count && attempts < 64*count+1024; attempts++ {
			src := core.NodeID(rng.Intn(n))
			dst := core.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			key := int64(src)*int64(n) + int64(dst)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			appendPair(src, dst)
		}
	}
	return entries
}

// TestPairTableMatchesPerSourceTrees: drawing the pairs first (reachability
// by component label) and batch-routing them through RoutePairs must
// reproduce the original table entry for entry — same pairs in the same
// popularity order, headers equal hop for hop — on both the dense and the
// sparse branch, and on a disconnected graph where unreachable draws are
// skipped mid-sequence.
func TestPairTableMatchesPerSourceTrees(t *testing.T) {
	split := graph.New(40) // two rings, a path, and isolated nodes 36..39
	for u := 0; u < 15; u++ {
		split.MustAddEdge(core.NodeID(u), core.NodeID((u+1)%15))
	}
	for u := 15; u < 30; u++ {
		split.MustAddEdge(core.NodeID(u), core.NodeID(15+(u-14)%15))
	}
	for u := 30; u < 35; u++ {
		split.MustAddEdge(core.NodeID(u), core.NodeID(u+1))
	}
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		count int
	}{
		{"dense/all-pairs", graph.GNP(24, 0.2, 5), 24 * 23},
		{"dense/quarter", graph.GNP(24, 0.2, 6), 24 * 23 / 4},
		{"sparse/default-count", graph.GNP(200, 5.0/200, 7), 0},
		{"sparse/small", graph.GNP(200, 5.0/200, 8), 300},
		{"disconnected/dense", split, 40 * 39 / 2},
		{"disconnected/sparse", split, 200},
	} {
		pm := core.NewPortMap(tc.g)
		for seed := int64(1); seed <= 3; seed++ {
			want := referencePairs(t, tc.g, pm, tc.count, seed)
			got, err := NewPairTable(tc.g, pm, tc.count, 1.1, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			if got.Len() != len(want) {
				t.Fatalf("%s seed %d: %d entries, reference %d", tc.name, seed, got.Len(), len(want))
			}
			maxHops := 0
			for i, w := range want {
				e := got.entries[i]
				if e.src != w.src || e.dst != w.dst || !slices.Equal(e.hdr, w.hdr) {
					t.Fatalf("%s seed %d entry %d: %d->%d %v, reference %d->%d %v",
						tc.name, seed, i, e.src, e.dst, e.hdr, w.src, w.dst, w.hdr)
				}
				maxHops = max(maxHops, w.hdr.HopCount())
			}
			if got.maxHops != maxHops {
				t.Fatalf("%s seed %d: MaxHops %d, reference %d", tc.name, seed, got.maxHops, maxHops)
			}
		}
	}
}
