package topology

import (
	"runtime"
	"slices"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// TestQuietRoundAllocs pins what a broadcast costs once the network has
// converged: its Msg and record slice, the local record's new snapshot, and
// the spine's packets. The plan is the origin's cached one, every path start
// sends the plan's headers as they stand, and a receiver turns the batch
// away on its screen — nothing per branching path, nothing per delivery. In
// full-knowledge mode the Msg carries the sender's whole database on top, and
// that must cost O(1) more objects — the stored link lists are shared, not
// copied once per known record.
func TestQuietRoundAllocs(t *testing.T) {
	const n = 64
	g := graph.GNP(n, 8.0/n, 5)
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	perBroadcast := func(full bool) float64 {
		net := sim.New(g, NewMaintainer(ModeBranching, full, nil),
			sim.WithDelays(0, 1), sim.WithDmax(DefaultDmax(ModeBranching, n)))
		round := func() {
			for u := 0; u < n; u++ {
				net.Inject(net.Now(), core.NodeID(u), Trigger{})
			}
			if _, err := net.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; !converged(net, g, nil); r++ {
			if r == n {
				t.Fatalf("full=%v: no convergence within %d rounds", full, n)
			}
			round()
		}
		return testing.AllocsPerRun(5, round) / n
	}
	local, full := perBroadcast(false), perBroadcast(true)
	t.Logf("allocs per broadcast in a quiet round: %.1f local-topology, %.1f full-knowledge", local, full)
	// Measured 8.3 and 8.3; 9.3 while a quiet refresh built its own record's
	// list anew, 103.4 while every path start built its headers from route
	// specs, one more per known record when link lists were copied.
	if full > 20 {
		t.Errorf("%.1f allocs per full-knowledge broadcast, want <= 20", full)
	}
	if full-local > 2 {
		t.Errorf("carrying the whole database costs %.1f more allocs per broadcast, want <= 2", full-local)
	}
}

// TestPlanRebuildAllocs pins what a full-knowledge origin pays to rebuild its
// plan after a version bump: the plan's own storage (the Fanout, its offsets,
// its header list and its hop slab) and nothing else. The view is patched in
// place, the tree refilled in place, the planCache updated in place, and the
// child lists, labels and chains come from pooled scratch. Rebuilds
// are counted one by one and the fewest objects is the figure: a GC empties
// the pool and the race runtime drops pool puts on purpose, so some rebuilds
// make their scratch anew, but one that finds it warm must cost the plan
// alone. Measured 4; 15 with the scratch made afresh and a new planCache per
// rebuild.
func TestPlanRebuildAllocs(t *testing.T) {
	const n = 96
	g := graph.GNP(n, 8.0/n, 3)
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	recs := RecordsForGraph(g, core.NewPortMap(g), nil)
	b := &broadcast{localTopo: localTopo{id: 0}, full: true}
	b.Preload(recs)
	// A far node's record alternates between its links as they are and with
	// its first link down, each install a newer sequence number.
	far := recs[n-1]
	down := slices.Clone(far.Links)
	down[0].Up = false
	lists := [2][]LinkInfo{far.Links, down}
	seq := far.Seq
	rebuild := func() {
		seq++
		if !b.db.install(Record{Node: far.Node, Seq: seq, Links: lists[seq%2]}) {
			t.Fatal("install refused a newer record")
		}
		if b.cachedPlan() == nil || b.plan.at != b.db.version {
			t.Fatal("no plan for the new version")
		}
	}
	rebuild()
	counts := make([]uint64, 21)
	var ms runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		rebuild()
		runtime.ReadMemStats(&ms)
		counts[i] = ms.Mallocs - before
	}
	allocs := slices.Min(counts)
	t.Logf("%d allocs to rebuild a %d-node plan (fewest of %v)", allocs, n, counts)
	if allocs > 6 {
		t.Errorf("%d allocs per plan rebuild, want <= 6", allocs)
	}
}

// TestQuietFloodAllocs pins what flooding costs once the network has
// converged: each broadcast allocates its message and the one-record slice
// inside it, and nothing per forwarded copy — a relay sends the shared
// one-hop headers (anr.OneHop) through one reused route list, and the C >= 1
// spine keeps the hops in pooled chunks.
func TestQuietFloodAllocs(t *testing.T) {
	const n = 64
	g := graph.GNP(n, 8.0/n, 5)
	if !g.Connected() {
		t.Fatal("test graph must be connected")
	}
	net := sim.New(g, NewMaintainer(ModeFlood, false, nil), sim.WithDelays(8, 1))
	round := func() {
		for u := 0; u < n; u++ {
			net.Inject(net.Now(), core.NodeID(u), Trigger{})
		}
		if _, err := net.Run(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if !converged(net, g, nil) {
		t.Fatal("one flooding round did not converge the network")
	}
	before := net.Metrics().Deliveries
	allocs := testing.AllocsPerRun(5, round)
	perRound := float64(net.Metrics().Deliveries-before) / 6 // AllocsPerRun warms up with one extra run
	t.Logf("%.0f allocs for %.0f deliveries in a quiet flooding round: %.3f per delivery", allocs, perRound, allocs/perRound)
	// Measured 0.009 when the test was added; a header per forwarded copy
	// and a map per relay made it 1.69.
	if allocs/perRound > 0.1 {
		t.Errorf("%.3f allocs per delivery, want <= 0.1", allocs/perRound)
	}
}

// TestSingleBroadcastAllocsPerNode pins what one broadcast network costs to
// build and run once, per node: the local record, which goes into one of the
// two store entries the protocol holds inline. The simulator's node state and
// the protocol structs come in slabs; the origin's preloaded topology is
// carved from one array, adopted rather than copied, into a store grown once,
// and the tree, decomposition and plan made from it are per network. A relay
// allocates nothing to forward (its headers are the plan's), to store the
// origin's record (the link list is adopted from the message), index it
// (built on first lookup) or watermark it (in the origin's store entry).
// Measured 1.4; 6.7 with a protocol struct, a store and a copied preload list
// per node; 8.9 with a header and a route list per branching path; 15.9 with
// a separately allocated database, two eager maps, a copy and an index per
// received record. In bytes a relay pays for its protocol struct, 224 bytes
// with the database's store inline and its routing plane behind a pointer
// nobody makes: measured 868 bytes per node (976 under -race), where a
// 360-byte struct, the plane inline and each store entry 72 bytes, read
// 1,094 (1,168).
func TestSingleBroadcastAllocsPerNode(t *testing.T) {
	const n = 4096
	g := graph.RandomTree(n, 2)
	run := func() {
		res, err := SingleBroadcast(g, 0, ModeBranching)
		if err != nil || res.Covered != n-1 {
			t.Fatalf("covered %d of %d, err %v", res.Covered, n-1, err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	bytes := float64(allocBytes(run)) / n
	t.Logf("%.1f allocs and %.0f bytes per node for one %d-node branching-paths broadcast", allocs/n, bytes, n)
	if allocs/n > 2 {
		t.Errorf("%.1f allocs per node, want <= 2", allocs/n)
	}
	if bytes > 1024 {
		t.Errorf("%.0f bytes per node, want <= 1,024", bytes)
	}
}
