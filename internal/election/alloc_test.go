package election

import (
	"math/rand"
	"runtime"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// degree4 is the benchmark's election fabric: a random spanning tree plus
// uniformly random extra edges up to exactly 2n (average degree 4).
func degree4(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]))
	}
	for g.M() < 2*n {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestElectionAllocsPerNode pins what one election allocates: per node the
// member list and OUT heap (regrown by merges at the few origins that keep
// capturing), and per message the message and its header, around the
// simulator's own per-network state; the protocol structs come in slabs.
// Measured 12.0; 13.0 with a protocol struct per node, 15.1 when the test was
// added; the map-based bookkeeping before it — IN, OUT and the tree as three
// maps, copied into slices at every capture and rebuilt into two more maps at
// every merge — made it 59.2.
func TestElectionAllocsPerNode(t *testing.T) {
	const n = 1024
	g := degree4(n, 3)
	starters := allNodes(n)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(g, AlgoToken, starters); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocs per node for one %d-node all-starters election", allocs/n, n)
	if allocs/n > 13 {
		t.Errorf("%.1f allocs per node, want <= 13", allocs/n)
	}
}

// TestElectionMemoryLinear pins the memory a finished election holds: every
// captured origin keeps its domain (return routes are derived from it), so
// the total is the sum of all domain sizes, and each domain must cost what
// it holds. Measured 1.47 KB per node when the test was added, 1.72 with
// the maps. Indexing a domain by node ID instead of by hash — a slot table
// sized by the largest ID seen — is faster at n = 1024 and reads 4.6 KB per
// node here, 14.4 at n = 16384: O(n) per origin that outgrows the scan.
func TestElectionMemoryLinear(t *testing.T) {
	const n = 4096
	g := degree4(n, 1)
	stats := &Stats{}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	net := sim.New(g, factory(AlgoToken, stats), sim.WithDelays(0, 1), sim.WithDmax(Dmax(n)))
	for u := 0; u < n; u++ {
		net.Inject(0, core.NodeID(u), Start{})
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	perNode := float64(live()-before) / 1024 / n
	runtime.KeepAlive(net)
	t.Logf("%.2f KB per node live after a %d-node all-starters election", perNode, n)
	if perNode > 1.5*1.75 {
		t.Errorf("%.2f KB per node, want <= %.2f (1.5x the map-based bookkeeping)", perNode, 1.5*1.75)
	}
}

// TestDomainIndexBytes pins what the domains' node indexes hold after the
// 4096-node all-starters election of TestElectionMemoryLinear: a
// core.NodeIndex slot is one int32 position, the key read from the member
// list. The packed 8-byte slots it replaced (node and position in one
// uint64) read 115.9 B per node here, 474,624 B over 468 tables.
func TestDomainIndexBytes(t *testing.T) {
	const n = 4096
	g := degree4(n, 1)
	net := sim.New(g, factory(AlgoToken, &Stats{}), sim.WithDelays(0, 1), sim.WithDmax(Dmax(n)))
	for u := 0; u < n; u++ {
		net.Inject(0, core.NodeID(u), Start{})
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	bytes, tables := 0, 0
	for u := 0; u < n; u++ {
		if slots := net.Protocol(core.NodeID(u)).(*Protocol).dom.idx.Slots(); slots > 0 {
			bytes += 4 * slots
			tables++
		}
	}
	perNode := float64(bytes) / n
	t.Logf("%d B over %d domain indexes: %.1f B per node", bytes, tables, perNode)
	if perNode > 64 {
		t.Errorf("%.1f B of domain index per node, want <= 64", perNode)
	}
}
