package topology

import (
	"math/rand"
	"runtime"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// allocBytes returns the heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDBHostileIDCostsRecords: one record for a huge node ID, then a
// full-knowledge batch carrying it, cost a database what they bring — not a
// table reaching up to that ID.
func TestDBHostileIDCostsRecords(t *testing.T) {
	const n = core.ScanMax + 1 // past the scanned store
	db := NewDB()
	batch := make([]Record, 0, n+1)
	for u := 0; u < n; u++ {
		r := Record{Node: core.NodeID(u), Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: core.NodeID((u + 1) % n), Up: true}}}
		db.install(r)
		r.Seq = 2
		batch = append(batch, r)
	}
	hostile := Record{Node: 1 << 28, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 0, Up: true}}}
	bytes := allocBytes(func() {
		db.install(hostile)
		hostile.Seq = 2
		db.installAll(append(batch, hostile))
	})
	if r, ok := db.Record(1 << 28); !ok || r.Seq != 2 || len(db.ents) != n+1 {
		t.Fatalf("hostile record %+v (held: %v), %d records", r, ok, len(db.ents))
	}
	t.Logf("%d bytes for node 1<<28 beside %d records", bytes, n)
	if bytes > 64<<10 {
		t.Errorf("%d bytes, want <= 64 KB", bytes)
	}
}

// TestDBBytesIndependentOfIDRange: a database of 26 records — what a flooding
// node hears from 26 origins, one message each, then one full-knowledge
// batch — costs the same whether their IDs lie below 4,096 or below 16,384.
func TestDBBytesIndependentOfIDRange(t *testing.T) {
	cost := func(span int) uint64 {
		ids := rand.New(rand.NewSource(1)).Perm(span)[:26]
		recs := make([]Record, len(ids))
		for i, u := range ids {
			recs[i] = Record{Node: core.NodeID(u), Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: core.NodeID(ids[(i+1)%len(ids)]), Up: true}}}
		}
		var db *DB
		bytes := allocBytes(func() {
			db = NewDB()
			for i := range recs {
				db.installAll(recs[i : i+1])
			}
			db.installAll(recs)
		})
		if len(db.ents) != len(recs) {
			t.Fatalf("span %d: %d records, want %d", span, len(db.ents), len(recs))
		}
		return bytes
	}
	small, large := cost(4096), cost(16384)
	t.Logf("26 records: %d bytes with IDs below 4096, %d below 16384", small, large)
	if small != large {
		t.Errorf("the ID range moved the database's bytes: %d vs %d", small, large)
	}
}

// liveHeap returns the bytes the heap holds live after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDBRoutingRetainsOneTree: a database that has answered Route and
// RouteMinLoad for every ordered pair of a 256-node graph holds no more than
// after one query of each — one min-hop tree and one load-weighted tree, not
// a tree per source and a header per pair. Per-source trees and per-pair
// headers kept 20.6 MB alive here.
func TestDBRoutingRetainsOneTree(t *testing.T) {
	g := graph.GNP(256, 8.0/256, 17)
	db := NewDB()
	for _, r := range RecordsForGraph(g, core.NewPortMap(g), nil) {
		db.Update(r)
	}
	route := func(src, dst core.NodeID) {
		if _, err := db.Route(src, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RouteMinLoad(src, dst); err != nil {
			t.Fatal(err)
		}
	}
	route(0, 255)
	before := liveHeap()
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			route(core.NodeID(u), core.NodeID(v))
		}
	}
	after := liveHeap()
	runtime.KeepAlive(db)
	grew := int64(after) - int64(before)
	t.Logf("live heap grew by %d bytes over %d ordered pairs", grew, g.N()*g.N())
	if grew > 64<<10 {
		t.Errorf("live heap grew by %d bytes, want <= 64 KB", grew)
	}
}

// TestFloodBytesPerNodeFlat runs the benchmark's flood — C = 8, every hop
// jittered, a degree-14 fabric, 26 warm-started origins — at 1,024 and 4,096
// nodes: what it allocates per node per origin must not grow with n, and at
// 4,096 nodes it stays within 1,450 bytes. Measured 1,358 and 1,322 (1,430
// and 1,394 under -race). Most of it is event storage: 80-byte records in
// chunks that fill their size class. With 112-byte records in chunks that
// left an eighth of their class unused it read 1,784 and 1,731 bytes, and
// 2,130 and 3,137 (1.47×) when every database that heard 17 origins kept a
// table indexed by node ID.
func TestFloodBytesPerNodeFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("floods a 4,096-node network")
	}
	small, _ := floodCost(t, 1024)
	large, _ := floodCost(t, 4096)
	t.Logf("bytes per node per origin: %.0f at 1,024 nodes, %.0f at 4,096 (%.2fx)", small, large, large/small)
	if large > 1.3*small {
		t.Errorf("%.0f bytes per node per origin at 4,096 nodes, %.0f at 1,024: want within 1.3x", large, small)
	}
	if large > 1450 {
		t.Errorf("%.0f bytes per node per origin at 4,096 nodes, want <= 1,450", large)
	}
}

// BenchmarkFloodShardCost is the gauge of what the shard-mode contract costs
// at p = 1 (ROADMAP direction 5(a)): TestFloodBytesPerNodeFlat's 4,096-node
// flood on the classic scheduler, WithShards(1) and WithShards(2). It reports
// the bytes allocated per node per origin for each and the deliveries, which
// must be equal; p = 1 must stay within 1,300 B and p = 2 within 1,420 B
// (classic reads about 1,230 B, p = 1 about 1,270 B with 16-byte PCG streams).
func BenchmarkFloodShardCost(b *testing.B) {
	if testing.Short() {
		b.Skip("floods a 4,096-node network three times")
	}
	for i := 0; i < b.N; i++ {
		classic, want := floodCost(b, 4096)
		b.ReportMetric(classic, "classic-B/node/origin")
		b.ReportMetric(float64(want), "deliveries")
		for _, c := range []struct {
			name   string
			shards int
			bound  float64
		}{{"p1", 1, 1300}, {"p2", 2, 1420}} {
			perNode, got := floodCost(b, 4096, sim.WithShards(c.shards))
			b.ReportMetric(perNode, c.name+"-B/node/origin")
			if got != want || perNode > c.bound {
				b.Fatalf("%s: %d deliveries (classic %d), %.0f B per node per origin (bound %.0f)", c.name, got, want, perNode, c.bound)
			}
		}
	}
}

// floodCost runs the benchmark's flood on an n-node fabric — C = 8, every hop
// jittered up to 384 ticks and a tenth slowed, 26 warm-started origins — with
// opts added, checks that every node heard every origin, and returns the
// bytes allocated per node per origin and the deliveries.
func floodCost(tb testing.TB, n int, opts ...sim.Option) (perNodeOrigin float64, deliveries int64) {
	const origins = 26
	g := fabric(n, 14, int64(n))
	bytes := allocBytes(func() {
		net := sim.New(g, NewMaintainer(ModeFlood, false, nil), append([]sim.Option{
			sim.WithDelays(8, 1), sim.WithSeed(int64(n)),
			sim.WithMsgFaults(core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512})}, opts...)...)
		recs := RecordsForGraph(g, net.PortMap(), nil)
		for k := 0; k < origins; k++ {
			u := core.NodeID(k * n / origins)
			net.Protocol(u).(Maintainer).Preload(recs)
			net.Inject(0, u, Trigger{})
		}
		if _, err := net.Run(); err != nil {
			tb.Fatal(err)
		}
		for u := 0; u < n; u++ {
			db := net.Protocol(core.NodeID(u)).(Maintainer).DB()
			for k := 0; k < origins; k++ {
				if _, ok := db.Record(core.NodeID(k * n / origins)); !ok {
					tb.Fatalf("n=%d: node %d never heard origin %d", n, u, k*n/origins)
				}
			}
		}
		deliveries = net.Metrics().Deliveries
	})
	return float64(bytes) / float64(n*origins), deliveries
}

// fabric is the benchmark's random fabric: a random spanning tree plus
// uniformly random extra edges up to n*degree/2 in all.
func fabric(n int, degree float64, seed int64) *graph.Graph {
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
