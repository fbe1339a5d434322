package topology

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// diffModel drives one long-lived cached DB and a shadow copy of the ground
// truth. After every mutation a brand-new DB is rebuilt from the shadow
// records, so each query is answered twice — once by the warm caches, once
// by a cold database that cannot possibly hold stale state — and the two
// answers must agree exactly. Any cache-invalidation bug in the routing
// plane shows up as a divergence. Checks may be several mutations apart, so
// the cached view is both patched repeatedly while current and rebuilt after
// a patch was declined.
type diffModel struct {
	n      int
	cached *DB
	links  [][]LinkInfo // shadow: current link list per node
	seq    []uint64
	steps  int

	// Every record installed, in order: replayed through an Update loop and
	// through updateAll, which must build the same database.
	history []Record
	// The last check's Records() result and a deep copy taken then: stored
	// links are immutable, so later Updates must not show through.
	snap, snapWant []Record
}

func newDiffModel(n int) *diffModel {
	return &diffModel{
		n:      n,
		cached: NewDB(),
		links:  make([][]LinkInfo, n),
		seq:    make([]uint64, n),
	}
}

// install pushes node u's shadow links into the cached DB with a fresh seq.
func (m *diffModel) install(u int) {
	m.seq[u]++
	rec := Record{
		Node:  core.NodeID(u),
		Seq:   m.seq[u],
		Links: append([]LinkInfo(nil), m.links[u]...),
	}
	m.history = append(m.history, rec)
	m.cached.Update(rec)
}

// fresh rebuilds an uncached DB from the shadow state.
func (m *diffModel) fresh() *DB {
	db := NewDB()
	for u := 0; u < m.n; u++ {
		if m.seq[u] == 0 {
			continue
		}
		db.Update(Record{
			Node:  core.NodeID(u),
			Seq:   m.seq[u],
			Links: append([]LinkInfo(nil), m.links[u]...),
		})
	}
	return db
}

// addLink appends a link u→v to u's shadow record and announces it.
func (m *diffModel) addLink(u, v int, up bool, c byte) {
	m.links[u] = append(m.links[u], LinkInfo{
		Local:    anr.ID(1 + u*8 + len(m.links[u])),
		Remote:   anr.ID(1 + v*8 + int(c)%4),
		Neighbor: core.NodeID(v),
		Up:       up,
		Load:     uint32(c) % 7,
	})
	if len(m.links[u]) > indexThreshold+1 { // long enough to cross into the indexed lookups
		m.links[u] = m.links[u][1:]
	}
	m.install(u)
}

// step applies one byte-coded mutation. Neighbors are always distinct from
// the owner: records come from real ports, which never report self-loops
// (the view graph rejects them). The ID range opens up as the script runs,
// so records keep naming nodes beyond the current view, and links get
// dropped again, so the view's node range shrinks as well as grows.
func (m *diffModel) step(op, a, b, c byte) {
	span := min(m.n, 3+m.steps/4)
	m.steps++
	u := int(a) % span
	v := int(b) % span
	if v == u {
		v = (v + 1) % span
	}
	switch op % 10 {
	case 4: // name the first node beyond the view: the patch must decline and the view grow
		top := m.cached.View().N()
		if top >= m.n {
			return
		}
		if c%2 == 1 || top == 0 {
			u = top // its own record arrives
		} else {
			u, v = u%top, top // a known-range node lists it as a neighbor
		}
		if v == u {
			v = (v + 1) % m.n
		}
		fallthrough
	case 0: // append a link toward v (duplicates toward one neighbor allowed)
		m.addLink(u, v, c%2 == 0, c)
		if c&4 != 0 { // v lists u back, as the two ends of a real link do
			m.addLink(v, u, c&8 == 0, c)
		}
	case 1: // flip one of u's links
		if len(m.links[u]) > 0 {
			i := int(c) % len(m.links[u])
			m.links[u][i].Up = !m.links[u][i].Up
			m.install(u)
		}
	case 2: // set a load
		if len(m.links[u]) > 0 {
			i := int(c) % len(m.links[u])
			m.links[u][i].Load = uint32(c)
			m.install(u)
		}
	case 3: // re-announce unchanged (seq-only refresh: must not stale anything)
		if m.seq[u] > 0 {
			m.install(u)
		}
	case 6: // drop u's newest link (c even) or any one: the view's node range may shrink
		if len(m.links[u]) > 0 {
			i := len(m.links[u]) - 1
			if c%2 == 1 {
				i = int(c) % len(m.links[u])
			}
			m.links[u] = slices.Delete(m.links[u], i, i+1)
			m.install(u)
		}
	case 7: // re-point one of u's links at v, state and position kept
		if len(m.links[u]) > 0 {
			m.links[u][int(c)%len(m.links[u])].Neighbor = core.NodeID(v)
			m.install(u)
		}
	case 8: // a record no node sent: a negative ID (c even) or neighbour; the shadow does not move
		rec := Record{Node: core.NodeID(u), Seq: m.seq[u] + 1, Links: []LinkInfo{{Local: 1, Neighbor: core.NodeID(v), Up: true}}}
		if c%2 == 0 {
			rec.Node = -1 - core.NodeID(a%3)
		} else {
			rec.Links[0].Neighbor = -1 - core.NodeID(b%3)
		}
		m.history = append(m.history, rec)
		m.cached.Update(rec)
	case 9: // a full-knowledge message through installAll: every node's record (the first
		// one brings the whole ID range up at once), under a fresh number where b and c
		// say so and as stored elsewhere, carrying the stored array itself (a even) or a copy
		batch := make([]Record, 0, m.n)
		for x := 0; x < m.n; x++ {
			if m.seq[x] == 0 || (uint(b)|uint(c)<<8)>>(x%16)&1 == 1 {
				m.seq[x]++
			}
			rec := Record{Node: core.NodeID(x), Seq: m.seq[x], Links: slices.Clone(m.links[x])}
			if stored, ok := m.cached.Record(rec.Node); ok && a%2 == 0 && linksEqual(stored.Links, rec.Links) {
				rec.Links = stored.Links
			}
			batch = append(batch, rec)
		}
		m.history = append(m.history, batch...)
		m.cached.installAll(batch)
	case 5: // a first record that denies (c even) or omits (c odd) an edge claimed one-sidedly
		for w := range m.links {
			for _, l := range m.links[w] {
				x := int(l.Neighbor)
				if !l.Up || m.seq[x] > 0 {
					continue
				}
				if c%2 == 0 {
					m.links[x] = []LinkInfo{{Local: anr.ID(1 + x*8), Remote: l.Local, Neighbor: core.NodeID(w)}}
				}
				m.install(x)
				return
			}
		}
	}
}

// sameRoute compares one (header, error) pair from the cached DB against the
// cold recomputation.
func sameRoute(t *testing.T, name string, u, v int, gh anr.Header, gerr error, wh anr.Header, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s(%d,%d) error = %v, want %v", name, u, v, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s(%d,%d) error = %q, want %q", name, u, v, gerr, werr)
		}
		return
	}
	if len(gh) != len(wh) {
		t.Fatalf("%s(%d,%d) = %v, want %v", name, u, v, gh, wh)
	}
	for i := range wh {
		if gh[i] != wh[i] {
			t.Fatalf("%s(%d,%d) hop %d = %+v, want %+v", name, u, v, i, gh[i], wh[i])
		}
	}
}

// check compares every pairwise query between the cached and a fresh DB.
func (m *diffModel) check(t *testing.T) {
	t.Helper()
	cold := m.fresh()
	if got, want := m.cached.View(), cold.View(); !got.Equal(want) {
		t.Fatalf("cached view diverged: %d nodes/%d edges, want %d/%d",
			got.N(), got.M(), want.N(), want.M())
	}
	if len(m.cached.ents) != len(cold.ents) {
		t.Fatalf("Len = %d, want %d", len(m.cached.ents), len(cold.ents))
	}
	m.checkRecords(t)
	for u := 0; u < m.n; u++ {
		for v := 0; v < m.n; v++ {
			src, dst := core.NodeID(u), core.NodeID(v)
			gl, gok := m.cached.LinkID(src, dst)
			wl, wok := cold.LinkID(src, dst)
			if gl != wl || gok != wok {
				t.Fatalf("LinkID(%d,%d) = (%d,%v), want (%d,%v)", u, v, gl, gok, wl, wok)
			}
			if gd, wd := m.cached.loadOf(src, dst), cold.loadOf(src, dst); gd != wd {
				t.Fatalf("loadOf(%d,%d) = %d, want %d", u, v, gd, wd)
			}
			gh, gerr := m.cached.Route(src, dst)
			wh, werr := cold.Route(src, dst)
			sameRoute(t, "Route", u, v, gh, gerr, wh, werr)
			gh, gerr = m.cached.RouteMinLoad(src, dst)
			wh, werr = cold.RouteMinLoad(src, dst)
			sameRoute(t, "RouteMinLoad", u, v, gh, gerr, wh, werr)
		}
	}
}

// sameRecords reports whether two record lists are equal, links included.
func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Node == y.Node && x.Seq == y.Seq && linksEqual(x.Links, y.Links)
	})
}

// checkRecords verifies the record-immutability contract and the batch
// apply: the previous Records() result still reads as it did when taken, and
// the history replayed through updateAll, and as five-record messages through
// installAll — twice, so the second pass is all stale records — builds the
// database the Update loop builds.
func (m *diffModel) checkRecords(t *testing.T) {
	t.Helper()
	if !sameRecords(m.snap, m.snapWant) {
		t.Fatalf("an earlier Records() result was rewritten by later Updates:\n got %+v\nwant %+v", m.snap, m.snapWant)
	}
	m.snap = m.cached.records()
	m.snapWant = make([]Record, len(m.snap))
	for i, r := range m.snap {
		r.Links = slices.Clone(r.Links)
		m.snapWant[i] = r
	}

	loop, batch, msgs := NewDB(), NewDB(), NewDB()
	for pass := 0; pass < 2; pass++ {
		for _, r := range m.history {
			loop.Update(r)
		}
		batch.updateAll(m.history)
		for i := 0; i < len(m.history); i += 5 {
			msgs.installAll(m.history[i:min(i+5, len(m.history))])
		}
	}
	for name, db := range map[string]*DB{"updateAll": batch, "installAll": msgs} {
		if db.version != loop.version || len(db.ents) != len(loop.ents) {
			t.Fatalf("%s: version %d, %d records; Update loop: version %d, %d records",
				name, db.version, len(db.ents), loop.version, len(loop.ents))
		}
		if got, want := db.records(), loop.records(); !sameRecords(got, want) || !sameRecords(got, m.snap) {
			t.Fatalf("%s records diverged:\n got %+v\nloop %+v\nlive %+v", name, got, want, m.snap)
		}
	}
}

// runDiff drives the model with the given byte script, comparing against
// the cold database after every k-th mutation and after the last.
func runDiff(t *testing.T, data []byte, n, k int) {
	t.Helper()
	m := newDiffModel(n)
	steps := len(data) / 4
	for i := 0; i < steps; i++ {
		m.step(data[4*i], data[4*i+1], data[4*i+2], data[4*i+3])
		if (i+1)%k == 0 || i == steps-1 {
			m.check(t)
		}
	}
}

// rangeScript walks the view's node range up and back down: node 0 lists
// node 1, then lists the unknown node 2 (neighbor growth), drops that link
// again (the range shrinks to 2), and node 2 announces itself (node growth).
var rangeScript = []byte{0, 0, 1, 0, 4, 0, 0, 0, 6, 0, 0, 0, 4, 0, 0, 1}

// shapeScript rewrites one record's link list in place while the view holds
// one-sided edges for it, so every kind of position change moves an edge.
var shapeScript = append(bytes.Repeat([]byte{3, 0, 0, 0}, 8), // idle steps: the ID range opens to 0..4
	0, 4, 1, 1, // node 4 announces itself, so the view spans 0..4 from here on
	0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, // node 0 claims 1, 2 and 3, all unknown: three one-sided edges
	6, 0, 0, 1, // it drops the middle link: the tail shifts down, edge 0-2 goes
	7, 0, 2, 1, // it re-points its last link from 3 to 2: edge 0-3 goes, 0-2 returns
)

func TestRoutingPlaneDifferential(t *testing.T) {
	runDiff(t, rangeScript, 9, 1)
	runDiff(t, shapeScript, 9, 1)
	// A deterministic pseudo-random script, long enough to cycle through
	// many cache generations, seq-only refreshes and link flips.
	data := make([]byte, 4*400)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i+8 <= len(data); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(data[i:], x)
	}
	// 9 nodes stay on the linear-scan store; 24 cross slotThreshold, so
	// updateAll's early-out against the slot table and, from the second
	// multi-record message on, the screen run too.
	for _, n := range []int{9, 24} {
		for _, k := range []int{1, 2, 3, 7} {
			runDiff(t, data, n, k)
		}
	}
}

func FuzzRoutingPlane(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 0, 2, 1, 1, 1, 1, 2, 0, 3, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 2, 0, 1, 0, 2, 1, 0, 1, 1, 2, 0, 1, 5, 3, 0, 0, 0})
	f.Add(rangeScript)
	f.Add(shapeScript)
	// Hostile records: node -1 and a neighbour -2 between good ones.
	f.Add([]byte{0, 0, 1, 0, 8, 0, 1, 0, 8, 1, 0, 1, 0, 1, 2, 0})
	// Batches on the 18-node model (bit 2 of the first byte): a bring-up that
	// builds the slot table, a change, the batch that builds the screen, a
	// hostile record, then batches of stored arrays and of copies.
	f.Add([]byte{29, 0, 0xff, 0xff, 0, 0, 1, 0, 9, 1, 0x0f, 0, 8, 0, 1, 0, 9, 0, 0xf0, 0x0f, 1, 0, 0, 0, 9, 2, 0, 0, 9, 3, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*64 {
			data = data[:4*64]
		}
		if len(data) == 0 {
			return
		}
		// Most scripts run on 7 nodes, where a check is cheap; the others on
		// 18, which a single batch takes past slotThreshold.
		n := 7
		if data[0]&4 != 0 {
			n = slotThreshold + 2
		}
		runDiff(t, data, n, 1+int(data[0])%4)
	})
}
