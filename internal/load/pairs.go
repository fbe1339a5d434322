package load

import (
	"fmt"
	"math"
	"math/rand"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// defaultPairs bounds the endpoint popularity table when Config.Pairs is 0:
// min(defaultPairs, n*(n-1)) distinct (src,dst) pairs.
const defaultPairs = 4096

// pairEntry is one precomputed (src,dst) endpoint pair with its ANR route,
// so the per-call hot path does no graph work at all.
type pairEntry struct {
	src, dst core.NodeID
	hdr      anr.Header
}

// PairTable is the Zipf-skewed endpoint popularity table: a fixed set of
// distinct (src,dst) pairs, pair i carrying weight 1/(i+1)^skew (uniform at
// skew 0), sampled in O(1) with the alias method. Routes are shortest paths
// precomputed at build time by core.PortMap.RoutePairs; the headers share one
// hop array.
type PairTable struct {
	entries []pairEntry
	alias   aliasTable
	maxHops int
}

// NewPairTable builds a table of count distinct connected pairs over g
// (count <= 0 uses the defaultPairs rule; the table may come up shorter
// than count on sparse or disconnected graphs, but never empty unless no
// connected ordered pair exists). The choice of pairs and their popularity
// ranking derive from seed alone.
func NewPairTable(g *graph.Graph, pm *core.PortMap, count int, skew float64, seed int64) (*PairTable, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("load: pair table needs >= 2 nodes, have %d", n)
	}
	maxPairs := n * (n - 1)
	if count <= 0 {
		count = defaultPairs
	}
	if count > maxPairs {
		count = maxPairs
	}
	// Draw the pairs first — reachability, which decides how many draws the
	// rng sequence takes, is a component-label comparison — and route the
	// whole batch afterwards, each pair searched from both ends.
	comp := make([]int32, n)
	for c, nodes := range g.Components() {
		for _, u := range nodes {
			comp[u] = int32(c)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var chosen [][2]core.NodeID
	if count >= maxPairs/2 || maxPairs <= 4*count {
		// Dense request: enumerate every ordered pair, shuffle for the
		// popularity ranking, keep the first count connected ones.
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
			if len(chosen) == count {
				break
			}
			if comp[p[0]] == comp[p[1]] {
				chosen = append(chosen, p)
			}
		}
	} else {
		// Sparse request: rejection-sample distinct pairs.
		seen := make(map[int64]struct{}, count)
		for attempts := 0; len(chosen) < count && attempts < 64*count+1024; attempts++ {
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
			if comp[src] == comp[dst] {
				chosen = append(chosen, [2]core.NodeID{src, dst})
			}
		}
	}
	routes, err := pm.RoutePairs(g, chosen)
	if err != nil {
		return nil, err
	}
	// Every header is a capped window of one hop array.
	total := 0
	for _, r := range routes {
		total += len(r) + 1
	}
	hops := make(anr.Header, 0, total)
	t := &PairTable{entries: make([]pairEntry, len(chosen))}
	for i, p := range chosen {
		start := len(hops)
		hops = anr.AppendDirect(hops, routes[i])
		t.entries[i] = pairEntry{src: p[0], dst: p[1], hdr: hops[start:len(hops):len(hops)]}
		t.maxHops = max(t.maxHops, len(routes[i]))
	}
	if len(t.entries) == 0 {
		return nil, fmt.Errorf("load: no connected (src,dst) pair found")
	}
	weights := make([]float64, len(t.entries))
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -max(skew, 0)) // uniform at skew <= 0
	}
	t.alias = newAlias(weights)
	return t, nil
}

// Len returns the number of pairs in the table.
func (t *PairTable) Len() int { return len(t.entries) }

// Sample draws one pair index in O(1).
func (t *PairTable) Sample(rng *rand.Rand) int { return t.alias.sample(rng) }

// Pair returns pair i's endpoints.
func (t *PairTable) Pair(i int) (src, dst core.NodeID) {
	return t.entries[i].src, t.entries[i].dst
}
