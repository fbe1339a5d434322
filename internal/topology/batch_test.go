package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// batchModel feeds one stream of record batches to two databases: got takes
// every batch whole through installAll — slot-table early-out, screen,
// identity shortcut — and want takes its records one by one through Update,
// which knows none of them. After every batch the two must agree on records,
// version, view and routes.
//
// The batches are what messages carry in a network: every node has one
// current link list, an array that travels in batch after batch until the
// node changes it, so a database that adopted it meets the very same array
// again under a higher sequence number. Batches are delivered late, out of
// order and twice.
type batchModel struct {
	t       *testing.T
	rng     *rand.Rand
	n       int
	got     *DB
	want    *DB
	cur     [][]LinkInfo // each node's current list; nil until its first record
	seq     []uint64
	pending [][]Record
	old     [][]Record // delivered batches, for replay
}

func newBatchModel(t *testing.T, n int, seed int64) *batchModel {
	return &batchModel{
		t: t, rng: rand.New(rand.NewSource(seed)), n: n,
		got: NewDB(), want: NewDB(),
		cur: make([][]LinkInfo, n), seq: make([]uint64, n),
	}
}

// freshLinks draws a new link list for u: a handful of neighbours, now and
// then none at all.
func (m *batchModel) freshLinks(u int) []LinkInfo {
	links := []LinkInfo{}
	for d := m.rng.Intn(5) * m.rng.Intn(4); len(links) < d; {
		if v := m.rng.Intn(m.n); v != u {
			links = append(links, LinkInfo{
				Local: anr.ID(1 + len(links)), Remote: anr.ID(1 + m.rng.Intn(8)),
				Neighbor: core.NodeID(v), Up: m.rng.Intn(4) > 0, Load: uint32(m.rng.Intn(3)),
			})
		}
	}
	return links
}

// touch moves node u on as a network would between two broadcasts.
func (m *batchModel) touch(u int) {
	first := m.cur[u] == nil
	switch k := m.rng.Intn(10); {
	case first:
		m.cur[u] = m.freshLinks(u)
		if m.rng.Intn(3) > 0 {
			return // a first record with sequence number 0
		}
	case k < 5: // quiet round: the same array under the next number
	case k < 7: // an equal list in an array of its own (a restarted node's rebuild)
		m.cur[u] = slices.Clone(m.cur[u])
	case k < 9 && len(m.cur[u]) > 0: // same length, one link flipped
		m.cur[u] = slices.Clone(m.cur[u])
		i := m.rng.Intn(len(m.cur[u]))
		m.cur[u][i].Up = !m.cur[u][i].Up
	default: // a different list altogether
		m.cur[u] = m.freshLinks(u)
	}
	m.seq[u]++
}

// generate queues one batch: a full-knowledge broadcast (every node known so
// far, a few of them touched), a bring-up batch naming all n nodes, a
// one-record message, or records no table has a place for.
func (m *batchModel) generate() {
	var batch []Record
	rec := func(u int) Record { return Record{Node: core.NodeID(u), Seq: m.seq[u], Links: m.cur[u]} }
	switch k := m.rng.Intn(12); {
	case k < 7:
		for u := 0; u < m.n; u++ {
			if m.cur[u] == nil && m.rng.Intn(4) > 0 {
				continue
			}
			if m.cur[u] == nil || m.rng.Intn(6) == 0 {
				m.touch(u)
			}
			batch = append(batch, rec(u))
		}
	case k < 8:
		for u := 0; u < m.n; u++ {
			m.touch(u)
			batch = append(batch, rec(u))
		}
	case k < 10:
		u := m.rng.Intn(m.n)
		m.touch(u)
		batch = append(batch, rec(u))
	default:
		far := core.NodeID(m.n + m.rng.Intn(3*m.n))
		batch = append(batch,
			Record{Node: far, Seq: uint64(m.rng.Intn(3)), Links: []LinkInfo{{Local: 1, Remote: 1, Neighbor: 0, Up: true}}},
			Record{Node: -1 - core.NodeID(m.rng.Intn(3)), Seq: 9, Links: []LinkInfo{{Local: 1, Neighbor: 0, Up: true}}},
			Record{Node: core.NodeID(m.rng.Intn(m.n)), Seq: 1 << 40, Links: []LinkInfo{{Local: 1, Neighbor: -2, Up: true}}},
			Record{Node: far + 1, Seq: ^uint64(0), Links: nil}, // the largest number there is
			Record{Node: far + 1, Seq: ^uint64(0), Links: []LinkInfo{{Local: 2, Neighbor: far, Up: true}}},
		)
	}
	if m.rng.Intn(4) == 0 { // any order, some records twice
		m.rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		batch = append(batch, batch[:m.rng.Intn(len(batch)+1)]...)
	}
	m.pending = append(m.pending, batch)
}

// deliver applies one queued batch — not necessarily the oldest — or
// replays one delivered before, and compares the databases.
func (m *batchModel) deliver() {
	var batch []Record
	if len(m.pending) == 0 || len(m.old) > 0 && m.rng.Intn(5) == 0 {
		if len(m.old) == 0 {
			return
		}
		batch = m.old[m.rng.Intn(len(m.old))]
	} else {
		i := m.rng.Intn(len(m.pending))
		batch = m.pending[i]
		m.pending = slices.Delete(m.pending, i, i+1)
		m.old = append(m.old, batch)
	}
	m.got.installAll(batch)
	for _, r := range batch {
		m.want.Update(r)
	}
	m.compare(fmt.Sprintf("after a batch of %d", len(batch)))
}

func (m *batchModel) compare(when string) {
	t := m.t
	t.Helper()
	g, w := m.got.records(), m.want.records()
	for i := 0; i < len(g) && i < len(w); i++ {
		if !sameRecords(g[i:i+1], w[i:i+1]) {
			t.Fatalf("%s: record %d is %+v, want %+v", when, i, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: %d records, want %d", when, len(g), len(w))
	}
	if g, w := m.got.version, m.want.version; g != w {
		t.Fatalf("%s: version %d, want %d", when, g, w)
	}
	if g, w := m.got.View(), m.want.View(); !g.Equal(w) {
		t.Fatalf("%s: view has %d nodes, %d edges; want %d, %d", when, g.N(), g.M(), w.N(), w.M())
	}
	if seen := m.got.seen; seen != nil {
		if len(seen) != len(m.got.slot) {
			t.Fatalf("%s: screen spans %d IDs, slot table %d", when, len(seen), len(m.got.slot))
		}
		for u, s := range m.got.slot {
			want := uint64(0)
			if s >= 0 {
				want = m.got.ents[s].rec.Seq + 1
			}
			if seen[u] != want {
				t.Fatalf("%s: screen reads %d for node %d, want %d", when, seen[u], u, want)
			}
		}
	}
	for i := 0; i < 12; i++ {
		u, v := m.rng.Intn(m.n), m.rng.Intn(m.n)
		src, dst := core.NodeID(u), core.NodeID(v)
		gh, gerr := m.got.Route(src, dst)
		wh, werr := m.want.Route(src, dst)
		sameRoute(t, "Route", u, v, gh, gerr, wh, werr)
		gh, gerr = m.got.RouteMinLoad(src, dst)
		wh, werr = m.want.RouteMinLoad(src, dst)
		sameRoute(t, "RouteMinLoad", u, v, gh, gerr, wh, werr)
	}
}

func TestBatchInstallMatchesUpdate(t *testing.T) {
	// 10 nodes stay on the scanned store until enough strays have joined them;
	// 24 and 96 cross slotThreshold at once, so the screen is built and every
	// later batch runs on it.
	for _, n := range []int{10, 24, 96} {
		for seed := int64(1); seed <= 6; seed++ {
			m := newBatchModel(t, n, seed*int64(n))
			for step := 0; step < 220; step++ {
				if m.rng.Intn(2) == 0 {
					m.generate()
				} else {
					m.deliver()
				}
			}
			for len(m.pending) > 0 {
				m.deliver()
			}
			if n > slotThreshold && m.got.seen == nil {
				t.Fatalf("n=%d seed %d: the screen was never built", n, seed)
			}
			if m.want.seen != nil {
				t.Fatalf("n=%d seed %d: a screen on a database that never saw a batch", n, seed)
			}
		}
	}
}

// The four ways one list can come back under a higher number, and the late
// batch that tells a stale screen from a current one.
func TestBatchInstallListIdentity(t *testing.T) {
	const n = slotThreshold + 4
	bringUp := func(seq uint64) []Record {
		recs := make([]Record, n)
		for u := range recs {
			recs[u] = Record{Node: core.NodeID(u), Seq: seq, Links: []LinkInfo{
				{Local: 1, Remote: 2, Neighbor: core.NodeID((u + 1) % n), Up: true},
				{Local: 2, Remote: 1, Neighbor: core.NodeID((u + n - 1) % n), Up: true},
			}}
		}
		return recs
	}
	db := NewDB()
	base := bringUp(1)
	db.installAll(base) // builds the slot table
	db.installAll(base) // all stale: builds the screen
	if db.seen == nil {
		t.Fatal("no screen after two multi-record batches")
	}
	v := db.version
	stored := func(u core.NodeID) Record { r, _ := db.Record(u); return r }

	// The stored array itself, an equal copy, both under a higher number:
	// sequence refreshes, the stored array stays, no version bump.
	same, equal := base[3], base[4]
	same.Seq, equal.Seq = 5, 5
	equal.Links = slices.Clone(equal.Links)
	db.installAll([]Record{same, equal})
	for _, u := range []core.NodeID{3, 4} {
		if r := stored(u); r.Seq != 5 || &r.Links[0] != &base[u].Links[0] || db.version != v {
			t.Fatalf("node %d: seq %d, version %d -> %d, list replaced: %v", u, r.Seq, v, db.version, &r.Links[0] != &base[u].Links[0])
		}
	}
	// A different list of the same length: installed, adopted, version bump.
	diff := base[5]
	diff.Seq = 5
	diff.Links = slices.Clone(diff.Links)
	diff.Links[1].Up = false
	db.installAll([]Record{diff, base[6]})
	if r := stored(5); r.Seq != 5 || &r.Links[0] != &diff.Links[0] || db.version != v+1 {
		t.Fatalf("node 5: seq %d, version %d -> %d, adopted: %v", r.Seq, v, db.version, &r.Links[0] == &diff.Links[0])
	}
	// An empty list replaces a non-empty one, and is then its own refresh.
	db.installAll([]Record{{Node: 7, Seq: 5}, base[6]})
	db.installAll([]Record{{Node: 7, Seq: 6, Links: []LinkInfo{}}, base[6]})
	if r := stored(7); r.Seq != 6 || len(r.Links) != 0 || db.version != v+2 {
		t.Fatalf("node 7: %+v, version %d -> %d", r, v, db.version)
	}
	// Node 3 is at 5 by an identity refresh, node 4 by update's comparison.
	// A late batch carrying the stored arrays under 4 must be turned away by
	// both: a screen either path forgot to advance would let it through, and
	// the identity shortcut would then wind the number back.
	late3, late4 := base[3], base[4]
	late3.Seq, late4.Seq = 4, 4
	db.installAll([]Record{late3, late4})
	if a, b := stored(3).Seq, stored(4).Seq; a != 5 || b != 5 {
		t.Fatalf("a late batch wound nodes 3 and 4 back to %d and %d", a, b)
	}
}

func TestDBRejectsNegativeIDs(t *testing.T) {
	hostile := []Record{
		{Node: -1, Seq: 1},
		{Node: -7, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: 2, Up: true}}},
		{Node: 2, Seq: 1 << 50, Links: []LinkInfo{{Local: 1, Neighbor: 1, Up: true}, {Local: 2, Neighbor: -1, Up: true}}},
		{Node: 1 << 20, Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: core.None}}},
	}
	// The scanned store, the slot table, and the slot table with its screen.
	for _, n := range []int{3, slotThreshold + 8, slotThreshold + 9} {
		db := NewDB()
		recs := make([]Record, n)
		for u := range recs {
			recs[u] = Record{Node: core.NodeID(u), Seq: 1, Links: []LinkInfo{{Local: 1, Neighbor: core.NodeID((u + 1) % n), Up: true}}}
		}
		db.installAll(recs)
		if n%2 == 1 {
			db.installAll(recs)
		}
		if (db.slot != nil) != (n > slotThreshold) || (db.seen != nil) != (n > slotThreshold && n%2 == 1) {
			t.Fatalf("n=%d: slot table %v, screen %v", n, db.slot != nil, db.seen != nil)
		}
		version, nodes, edges := db.version, db.View().N(), db.View().M()
		for _, r := range hostile {
			if db.Update(r) {
				t.Errorf("n=%d: Update accepted %+v", n, r)
			}
		}
		db.updateAll(hostile)
		db.installAll(hostile)
		// Enough good records behind them to cross slotThreshold: at the
		// parent commit the slot table's first build indexed it by -1.
		for u := n; u < n+slotThreshold; u++ {
			if !db.Update(Record{Node: core.NodeID(u), Seq: 1}) {
				t.Fatalf("n=%d: good record %d refused", n, u)
			}
		}
		if len(db.ents) != n+slotThreshold || db.version != version+slotThreshold {
			t.Errorf("n=%d: %d records, version %d -> %d", n, len(db.ents), version, db.version)
		}
		if g := db.View(); g.N() != n+slotThreshold || g.M() != edges || nodes != n {
			t.Errorf("n=%d: view %d nodes, %d edges; before %d, %d", n, g.N(), g.M(), nodes, edges)
		}
		if _, ok := db.Record(-1); ok {
			t.Errorf("n=%d: a record for node -1", n)
		}
	}
}
