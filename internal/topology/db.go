// Package topology implements the paper's topology-maintenance protocols
// (§3): the branching-paths broadcast (n system calls, O(log n) time per
// broadcast), the ARPANET flooding baseline (O(m) system calls, O(n) time),
// the broken one-shot DFS broadcast used in the paper's non-convergence
// example, and the BFS-layers variant from footnote 1 (one time unit per
// broadcast, requires dmax = O(n^2)).
package topology

import (
	"fmt"
	"slices"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
)

// LinkInfo is one adjacent link as reported in a node's local topology.
// Remote is the neighbor's local ID for the same link, known from the
// data-link initialization handshake ([BS84]); carrying it makes every
// reported edge routable in both directions. Load is the link's reported
// load condition — the paper's broadcasts carry "the adjacent links' states
// and loads".
type LinkInfo struct {
	Local    anr.ID
	Remote   anr.ID
	Neighbor core.NodeID
	Up       bool
	Load     uint32
}

// Record is a sequence-numbered snapshot of one node's local topology. Links
// is immutable once the record is stored or sent: databases hand their
// stored link lists out by reference (Record, records) and packets in flight
// carry them, so nobody — the database included — writes one after install.
type Record struct {
	Node  core.NodeID
	Seq   uint64
	Links []LinkInfo
}

// recordFromPorts snapshots a node's current ports as a Record. loads may
// be nil.
func recordFromPorts(id core.NodeID, seq uint64, ports []core.Port, loads map[anr.ID]uint32) Record {
	rec := Record{Node: id, Seq: seq, Links: make([]LinkInfo, 0, len(ports))}
	for _, p := range ports {
		rec.Links = append(rec.Links, LinkInfo{
			Local:    p.Local,
			Remote:   p.RemoteID,
			Neighbor: p.Remote,
			Up:       p.Up,
			Load:     loads[p.Local],
		})
	}
	return rec
}

// localTopo is the per-node state shared by all maintenance protocols: the
// topology database, the local record's sequence number, and the reported
// link loads. Most databases end with two records, the node's own and the one
// a broadcast brought, so the store's first two entries live here.
type localTopo struct {
	id    core.NodeID
	db    DB
	seq   uint64
	loads map[anr.ID]uint32 // nil until the first SetLoad
	ents  [2]entry
}

// DB exposes the node's topology database for driver checks.
func (l *localTopo) DB() *DB { return &l.db }

// Preload installs records (warm start for single-broadcast experiments),
// growing the store once to hold them all. It adopts the records' link lists
// under install's ownership rule: nobody may write them afterwards.
func (l *localTopo) Preload(recs []Record) {
	l.db.ents = slices.Grow(l.db.ents, max(len(recs)-len(l.db.ents), 0))
	l.db.installAll(recs)
}

// SetLoad records the load condition of a local link; the next broadcast
// carries it.
func (l *localTopo) SetLoad(link anr.ID, load uint32) {
	if l.loads == nil {
		l.loads = make(map[anr.ID]uint32)
	}
	l.loads[link] = load
}

// refresh bumps the sequence number and re-snapshots the local record.
func (l *localTopo) refresh(env core.Env) {
	l.seq++
	l.db.install(recordFromPorts(l.id, l.seq, env.Ports(), l.loads))
}

// snapshot stores the current local record without bumping the sequence
// number (used by Init).
func (l *localTopo) snapshot(env core.Env) {
	if l.db.ents == nil {
		l.db.ents = l.ents[:0]
	}
	l.db.install(recordFromPorts(l.id, l.seq, env.Ports(), l.loads))
}

// watermarks is the newest sequence number a node has forwarded per origin;
// an origin never forwarded reads 0. The first origin is held inline: in a
// single broadcast — the unit the paper's bounds are stated for — every
// relay hears one origin only, and a map would be most of what the relay
// holds. Further origins go to a map made when the second one is heard.
type watermarks struct {
	seq    uint64
	more   map[core.NodeID]uint64
	origin core.NodeID
	used   bool
}

func (w *watermarks) get(origin core.NodeID) uint64 {
	if w.used && w.origin == origin {
		return w.seq
	}
	return w.more[origin]
}

func (w *watermarks) set(origin core.NodeID, seq uint64) {
	if !w.used || w.origin == origin {
		w.origin, w.seq, w.used = origin, seq, true
		return
	}
	if w.more == nil {
		w.more = make(map[core.NodeID]uint64)
	}
	w.more[origin] = seq
}

// DB is one node's view of the network topology: the newest Record per node,
// behind an amortized routing plane. Control software computes routes from
// its map far more often than the map changes (the paper's §2–3 division of
// labor: software plans, hardware executes), so everything derived from the
// records — the materialized view graph, per-source BFS and min-load trees,
// and finished ANR headers — is cached and invalidated by a monotonic
// version counter that only routing-relevant changes bump. Re-installing a
// record whose links are unchanged (the per-round refresh of a quiet node)
// advances the sequence number without invalidating anything.
//
// All cached results — View, BFSTree, Route and RouteMinLoad headers — are
// shared with the caller and must be treated as immutable.
type DB struct {
	// version advances exactly when a routing-relevant change lands (a record
	// with different links, or a node heard from for the first time), so
	// equal versions guarantee equal views, trees and routes.
	version uint64

	// Packed record store: one entry per known node (memory stays
	// O(records) even though every node of a big network keeps its own DB).
	// Lookup is a linear scan while the store is small — the common case
	// for the per-node databases built during convergence — and switches to
	// the direct-index slot table once the store outgrows slotThreshold.
	// Node IDs are dense small integers, so the table is a slice, not a map:
	// convergence workloads probe it on every record of every broadcast.
	ents  []entry
	slot  []int32 // slot[u] = entry index of node u, -1 if unknown; nil until len(ents) > slotThreshold
	order []int32 // entry indices by ascending node; records re-sorts it only after a node was added

	// The batch screen: seen[u] = 1 + the stored sequence number of node u, 0
	// for a node with no record (or one whose number leaves no room for the
	// +1; such a record is merely not screened). A full-knowledge message
	// repeats its sender's whole database and all but a record or two of it
	// is already held here, so updateAll turns those away on this one dense
	// load per record. It is nil until the first multi-record message arrives
	// at a database that has its slot table, then as long as slot and kept
	// exact by update: databases that hear one record at a time (flooding, a
	// single broadcast) never pay for it.
	seen []uint64

	// The materialized believed-topology graph. While it is current, Update
	// patches the edges at the changed record's node (patchView); View
	// rebuilds it in place (Reset + refill) only from cold or when the node
	// range changes.
	view   *graph.Graph // nil until the first View call
	viewAt uint64

	// Per-source route caches, made by the first tree or route query: most
	// databases of a large network only ever store and relay.
	caches *routeCaches

	nodeBuf []core.NodeID // scratch: route paths, patchView's neighbor list
}

// routeCaches holds everything computed per source, all valid for at ==
// version only: min-hop trees, load-weighted trees with their distance
// arrays, and finished headers (including negative results) per (src, dst)
// pair.
type routeCaches struct {
	at        uint64
	trees     map[core.NodeID]*graph.Tree
	loadTrees map[core.NodeID]*loadTree
	routes    map[pairKey]routeResult
	loadRts   map[pairKey]routeResult

	// Scratch recycled across invalidations.
	treePool  []*graph.Tree
	ltreePool []*loadTree
}

// loadTree is one cached load-weighted shortest-path tree.
type loadTree struct {
	tree *graph.Tree
	dist []int64
}

// routeResult memoizes one Route/RouteMinLoad outcome, error included.
type routeResult struct {
	h   anr.Header
	err error
}

// pairKey packs a (src, dst) pair for the header caches.
type pairKey uint64

func pair(src, dst core.NodeID) pairKey {
	return pairKey(uint64(uint32(src))<<32 | uint64(uint32(dst)))
}

// entry is one stored record plus its adjacency index: indices into
// rec.Links sorted by (Neighbor, index), built by the first lookup (index)
// and only for high-degree records, making link lookups O(log d) while
// leaving the wire-visible Record untouched.
type entry struct {
	rec Record
	idx []int32
}

// slotThreshold is the store size above which node lookups go through the
// slot map. Below it a linear scan over the packed entries is faster than a
// map probe — and skipping the map entirely keeps small databases (each node
// of an n-node network holds one) free of map-bucket allocations.
const slotThreshold = 16

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{}
}

// slotOf returns the store slot holding u's record.
func (db *DB) slotOf(u core.NodeID) (int32, bool) {
	if db.slot != nil {
		if uint(u) >= uint(len(db.slot)) { // beyond the table, or negative
			return 0, false
		}
		s := db.slot[u]
		return s, s >= 0
	}
	for s := range db.ents {
		if db.ents[s].rec.Node == u {
			return int32(s), true
		}
	}
	return 0, false
}

// setSlot records u's entry index in the slot table, growing it as needed.
func (db *DB) setSlot(u core.NodeID, s int32) {
	if int(u) >= len(db.slot) {
		grown := make([]int32, int(u)+1+len(db.slot)/2)
		copy(grown, db.slot)
		for i := len(db.slot); i < len(grown); i++ {
			grown[i] = -1
		}
		db.slot = grown
		if db.seen != nil {
			db.seen = append(db.seen, make([]uint64, len(grown)-len(db.seen))...)
		}
	}
	db.slot[u] = s
}

// linksEqual reports whether two link lists are identical, element for
// element (LinkInfo is comparable).
func linksEqual(a, b []LinkInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SameLinks reports whether a and b are one list in the strict sense: the
// same array, not merely equal contents. Link lists are immutable once stored
// or sent and a database adopts the lists it receives, so in a converged
// network every database holds the same array for a node and identity is the
// usual form of equality — one that costs nothing to establish. Two lists
// with equal contents can still sit in different arrays: a node that restarts
// rebuilds its own, Update copies what it is given, and a record that came by
// another route may carry an older array.
func SameLinks(a, b []LinkInfo) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// indexThreshold is the degree below which findLink scans the link list
// directly: for the short records typical of real topologies the scan beats
// the index, and skipping the index keeps the per-record cost of Update at
// zero extra allocations.
const indexThreshold = 8

// index returns the sorted adjacency index of slot s, empty for a record
// below indexThreshold. Update only invalidates it; it is built by the first
// lookup after, so a node that stores a high-degree record to relay it and
// never routes over it does not pay for the sort.
func (db *DB) index(s int32) []int32 {
	e := &db.ents[s]
	links := e.rec.Links
	if len(e.idx) == len(links) || len(links) < indexThreshold {
		return e.idx
	}
	idx := e.idx[:0]
	if cap(idx) < len(links) {
		idx = make([]int32, 0, len(links))
	}
	for i := range links {
		idx = append(idx, int32(i))
	}
	slices.SortFunc(idx, func(a, b int32) int {
		la, lb := links[a].Neighbor, links[b].Neighbor
		if la != lb {
			return int(la) - int(lb)
		}
		return int(a) - int(b) // ties keep record order: first match = lowest index
	})
	e.idx = idx
	return idx
}

// Update installs rec if it is newer than the stored record for its node and
// reports whether anything changed. The database keeps its own copy of
// rec.Links, taken only when the links differ from the stored ones.
func (db *DB) Update(rec Record) bool { return db.update(rec, false) }

// install is Update for a record whose Links nobody will write again: one
// this package just built from the node's ports, or one that arrived in a
// message (immutable once sent). The database adopts the list instead of
// copying it.
func (db *DB) install(rec Record) bool { return db.update(rec, true) }

func (db *DB) update(rec Record, adopt bool) bool {
	if rec.Node < 0 {
		return false // no node has a negative ID; the slot table is indexed by it
	}
	s, known := db.slotOf(rec.Node)
	var old []LinkInfo
	if known {
		e := &db.ents[s]
		if e.rec.Seq >= rec.Seq {
			return false
		}
		if linksEqual(e.rec.Links, rec.Links) {
			// A pure sequence-number refresh leaves every derived structure
			// valid: keep the version, and with it every cache.
			db.setSeq(s, rec.Seq)
			return true
		}
		old = e.rec.Links
	}
	for _, l := range rec.Links {
		if l.Neighbor < 0 {
			return false // View sizes the graph by the IDs the records name
		}
	}
	if !known {
		s = int32(len(db.ents))
		db.ents = append(db.ents, entry{rec: Record{Node: rec.Node}})
		if db.slot != nil {
			db.setSlot(rec.Node, s)
		} else if len(db.ents) > slotThreshold {
			for i := range db.ents {
				db.setSlot(db.ents[i].rec.Node, int32(i))
			}
		}
	}
	// A fresh list, never an overwrite of the stored array: records handed
	// out earlier, some still in flight, share it.
	if !adopt {
		rec.Links = slices.Clone(rec.Links)
	}
	db.ents[s].rec.Links = rec.Links
	db.ents[s].idx = db.ents[s].idx[:0]
	db.setSeq(s, rec.Seq)
	viewCurrent := db.view != nil && db.viewAt == db.version
	db.version++
	if viewCurrent {
		db.patchView(s, old, !known)
	}
	return true
}

// setSeq advances the sequence number of slot s's record, in the store and,
// where there is one, on the batch screen.
func (db *DB) setSeq(s int32, seq uint64) {
	r := &db.ents[s].rec
	r.Seq = seq
	if int(r.Node) < len(db.seen) {
		db.seen[r.Node] = seq + 1
	}
}

// installAll applies every record of a batch, as Update would one by one,
// under install's ownership rule: the records of a received message, or of a
// warm start.
func (db *DB) installAll(recs []Record) {
	if db.seen == nil && db.slot != nil && len(recs) > 1 {
		db.seen = make([]uint64, len(db.slot))
		for i := range db.ents {
			db.seen[db.ents[i].rec.Node] = db.ents[i].rec.Seq + 1
		}
	}
	db.updateAll(recs)
}

// updateAll applies a batch under install's ownership rule and pays for what
// it brings that is new: a record no newer than the stored one is turned away
// before the update call — on the screen where there is one, else against the
// slot table — and a newer one whose Links is the stored array itself
// (SameLinks) is a sequence refresh with nothing to compare; a list that is
// merely equal takes update's comparison as before.
func (db *DB) updateAll(recs []Record) {
	for i := range recs {
		r := &recs[i]
		u := uint(r.Node) // a negative ID lands past every table, and update rejects it
		if u < uint(len(db.seen)) {
			seen := db.seen[u]
			if seen > r.Seq {
				continue
			}
			if s := db.slot[u]; seen != 0 && SameLinks(db.ents[s].rec.Links, r.Links) {
				db.setSeq(s, r.Seq)
				continue
			}
		} else if u < uint(len(db.slot)) {
			if s := db.slot[u]; s >= 0 && db.ents[s].rec.Seq >= r.Seq {
				continue
			}
		}
		db.update(*r, true)
	}
}

// patchView carries the current view over the version bump Update just made:
// slot s's record changed from the link list old (first: it had no record).
// An edge's presence depends on its two endpoints' records only, so just the
// edges at that node can differ, and only toward neighbors it lists
// differently than in old — except that before its first record, neighbors
// may have claimed edges to it one-sidedly, which the record can now
// contradict. Adjacency lists are sorted sets, so the patched graph equals
// the one a rebuild would produce. When the rebuild would size the graph
// differently the view is left stale for View to rebuild.
func (db *DB) patchView(s int32, old []LinkInfo, first bool) {
	u, links := db.ents[s].rec.Node, db.ents[s].rec.Links
	top := core.NodeID(db.view.N() - 1) // largest ID any record names
	oldTop, newTop := false, u >= top
	for _, l := range old {
		oldTop = oldTop || l.Neighbor == top
	}
	for _, l := range links {
		if l.Neighbor > top {
			return
		}
		newTop = newTop || l.Neighbor == top
	}
	if u > top || oldTop && !newTop {
		return // must grow, or may shrink
	}
	nbrs := db.nodeBuf[:0]
	if first {
		nbrs = append(nbrs, db.view.Neighbors(u)...)
	}
	// Where a position holds the same neighbor in the same state as before,
	// nothing changed toward that neighbor unless another position names it.
	for i := 0; i < len(old) || i < len(links); i++ {
		switch {
		case i >= len(old):
			nbrs = append(nbrs, links[i].Neighbor)
		case i >= len(links):
			nbrs = append(nbrs, old[i].Neighbor)
		case old[i].Neighbor != links[i].Neighbor || old[i].Up != links[i].Up:
			nbrs = append(nbrs, old[i].Neighbor, links[i].Neighbor)
		}
	}
	for _, v := range nbrs {
		if db.believes(u, v) {
			db.view.MustAddEdge(u, v)
		} else {
			db.view.RemoveEdge(u, v)
		}
	}
	db.nodeBuf = nbrs[:0]
	db.viewAt = db.version
}

// believes is View's edge predicate for one node pair: with both records
// known, the lower-ID endpoint lists some up link to the other and the
// other's first link back is up; with one record known, its claim alone
// counts.
func (db *DB) believes(u, v core.NodeID) bool {
	if u > v {
		u, v = v, u
	}
	su, uKnown := db.slotOf(u)
	sv, vKnown := db.slotOf(v)
	if !uKnown || !vKnown {
		return uKnown && db.upToward(su, v) || vKnown && db.upToward(sv, u)
	}
	back, found := db.firstToward(sv, u)
	return u != v && found && back.Up && db.upToward(su, v)
}

// upToward reports whether any link of slot s's record toward v is up.
func (db *DB) upToward(s int32, v core.NodeID) bool {
	links := db.ents[s].rec.Links
	if idx := db.index(s); len(idx) > 0 {
		i := sort.Search(len(idx), func(i int) bool { return links[idx[i]].Neighbor >= v })
		for ; i < len(idx) && links[idx[i]].Neighbor == v; i++ {
			if links[idx[i]].Up {
				return true
			}
		}
		return false
	}
	for _, l := range links {
		if l.Neighbor == v && l.Up {
			return true
		}
	}
	return false
}

// findLink returns the first link of u's record toward v (first in record
// order, matching a linear scan) and whether u's record exists at all.
func (db *DB) findLink(u, v core.NodeID) (LinkInfo, bool, bool) {
	s, known := db.slotOf(u)
	if !known {
		return LinkInfo{}, false, false
	}
	l, found := db.firstToward(s, v)
	return l, found, true
}

// firstToward is findLink for a known slot.
func (db *DB) firstToward(s int32, v core.NodeID) (LinkInfo, bool) {
	links := db.ents[s].rec.Links
	if idx := db.index(s); len(idx) > 0 {
		i := sort.Search(len(idx), func(i int) bool { return links[idx[i]].Neighbor >= v })
		if i < len(idx) && links[idx[i]].Neighbor == v {
			return links[idx[i]], true
		}
		return LinkInfo{}, false
	}
	for _, l := range links {
		if l.Neighbor == v {
			return l, true
		}
	}
	return LinkInfo{}, false
}

// Record returns the stored record for u. Its Links are shared with the
// database and immutable.
func (db *DB) Record(u core.NodeID) (Record, bool) {
	s, known := db.slotOf(u)
	if !known {
		return Record{}, false
	}
	return db.ents[s].rec, true
}

// records returns all stored records, one per node, in ascending node order.
// The slice is the caller's; the records' Links are shared with the database
// and immutable, so later Updates leave the result as it was.
func (db *DB) records() []Record {
	if len(db.order) != len(db.ents) {
		db.order = db.order[:0]
		for s := range db.ents {
			db.order = append(db.order, int32(s))
		}
		slices.SortFunc(db.order, func(a, b int32) int {
			return int(db.ents[a].rec.Node) - int(db.ents[b].rec.Node)
		})
	}
	out := make([]Record, len(db.order))
	for i, s := range db.order {
		out[i] = db.ents[s].rec
	}
	return out
}

// LinkID returns u's local link ID toward v according to the stored
// records. Either endpoint's record suffices: u's record names the ID
// directly, v's record carries it as the remote ID — including when u's
// record exists but is stale and omits v (the stale record must not mask
// the remote ID v's record carries).
func (db *DB) LinkID(u, v core.NodeID) (anr.ID, bool) {
	if l, found, _ := db.findLink(u, v); found {
		return l.Local, true
	}
	if l, found, _ := db.findLink(v, u); found {
		return l.Remote, true
	}
	return 0, false
}

// Route builds an ANR source route from src to dst over a minimum-hop path
// of the believed topology. This is the model's division of labor: control
// software computes routes from its map, the hardware executes them. The
// returned header is cached and shared: callers must not modify it.
func (db *DB) Route(src, dst core.NodeID) (anr.Header, error) {
	if src == dst {
		return anr.Local(), nil
	}
	c := db.ensureCaches()
	key := pair(src, dst)
	if r, ok := c.routes[key]; ok {
		return r.h, r.err
	}
	h, err := db.routeMinHop(src, dst)
	c.routes[key] = routeResult{h: h, err: err}
	return h, err
}

// routeMinHop is the uncached Route body, run once per (version, src, dst).
func (db *DB) routeMinHop(src, dst core.NodeID) (anr.Header, error) {
	view := db.View()
	if int(src) >= view.N() || int(dst) >= view.N() {
		return nil, fmt.Errorf("topology: no route %d->%d: unknown node", src, dst)
	}
	path := db.BFSTree(src).PathFromRootInto(db.nodeBuf, dst)
	if path == nil {
		return nil, fmt.Errorf("topology: no route %d->%d in the believed topology", src, dst)
	}
	db.nodeBuf = path[:0]
	return db.headerFor(path)
}

// headerFor converts a node path into an ANR header via the link IDs of the
// stored records.
func (db *DB) headerFor(path []core.NodeID) (anr.Header, error) {
	links := make([]anr.ID, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		lid, ok := db.LinkID(path[i], path[i+1])
		if !ok {
			return nil, fmt.Errorf("topology: believed edge %d-%d has no known link ID", path[i], path[i+1])
		}
		links = append(links, lid)
	}
	return anr.Direct(links), nil
}

// maxLoadToward returns the largest reported load among all of u's links
// toward v (records may carry duplicate entries for one neighbor; the sorted
// index keeps them contiguous).
func (db *DB) maxLoadToward(u, v core.NodeID) uint32 {
	s, known := db.slotOf(u)
	if !known {
		return 0
	}
	links := db.ents[s].rec.Links
	var load uint32
	if idx := db.index(s); len(idx) > 0 {
		i := sort.Search(len(idx), func(i int) bool { return links[idx[i]].Neighbor >= v })
		for ; i < len(idx) && links[idx[i]].Neighbor == v; i++ {
			if l := links[idx[i]].Load; l > load {
				load = l
			}
		}
		return load
	}
	for _, l := range links {
		if l.Neighbor == v && l.Load > load {
			load = l.Load
		}
	}
	return load
}

// loadOf returns the believed load of edge {u, v}: the maximum of the two
// endpoints' reports (0 if neither endpoint reported).
func (db *DB) loadOf(u, v core.NodeID) uint32 {
	load := db.maxLoadToward(u, v)
	if l := db.maxLoadToward(v, u); l > load {
		load = l
	}
	return load
}

// RouteMinLoad builds an ANR route from src to dst minimizing the summed
// link costs (each hop costs 1 + load) — the routing use the paper gives
// for the disseminated load condition (§3: broadcasts carry "the adjacent
// links' states and loads"). The returned header is cached and shared:
// callers must not modify it.
func (db *DB) RouteMinLoad(src, dst core.NodeID) (anr.Header, error) {
	if src == dst {
		return anr.Local(), nil
	}
	c := db.ensureCaches()
	key := pair(src, dst)
	if r, ok := c.loadRts[key]; ok {
		return r.h, r.err
	}
	h, err := db.routeMinLoad(src, dst)
	c.loadRts[key] = routeResult{h: h, err: err}
	return h, err
}

// routeMinLoad is the uncached RouteMinLoad body.
func (db *DB) routeMinLoad(src, dst core.NodeID) (anr.Header, error) {
	view := db.View()
	if int(src) >= view.N() || int(dst) >= view.N() {
		return nil, fmt.Errorf("topology: no route %d->%d: unknown node", src, dst)
	}
	lt := db.minLoadTree(src)
	if lt.dist[dst] < 0 {
		return nil, fmt.Errorf("topology: no route %d->%d in the believed topology", src, dst)
	}
	path := lt.tree.PathFromRootInto(db.nodeBuf, dst)
	db.nodeBuf = path[:0]
	return db.headerFor(path)
}

// ensureCaches returns the per-source caches, valid for the current version,
// recycling the previous generation's trees as scratch.
func (db *DB) ensureCaches() *routeCaches {
	c := db.caches
	switch {
	case c == nil:
		c = &routeCaches{
			trees:     make(map[core.NodeID]*graph.Tree),
			loadTrees: make(map[core.NodeID]*loadTree),
			routes:    make(map[pairKey]routeResult),
			loadRts:   make(map[pairKey]routeResult),
		}
		db.caches = c
	case c.at == db.version:
		return c
	default:
		for _, t := range c.trees {
			c.treePool = append(c.treePool, t)
		}
		for _, lt := range c.loadTrees {
			c.ltreePool = append(c.ltreePool, lt)
		}
		clear(c.trees)
		clear(c.loadTrees)
		clear(c.routes)
		clear(c.loadRts)
	}
	c.at = db.version
	return c
}

// BFSTree returns the minimum-hop spanning tree of the believed topology
// rooted at src, cached per (version, source). The tree is shared: callers
// must not modify it.
func (db *DB) BFSTree(src core.NodeID) *graph.Tree {
	c := db.ensureCaches()
	if t, ok := c.trees[src]; ok {
		return t
	}
	var t *graph.Tree
	if n := len(c.treePool); n > 0 {
		t = c.treePool[n-1]
		c.treePool = c.treePool[:n-1]
	}
	t = db.View().BFSTreeInto(t, src)
	c.trees[src] = t
	return t
}

// minLoadTree returns the load-weighted shortest-path tree rooted at src,
// cached per (version, source).
func (db *DB) minLoadTree(src core.NodeID) *loadTree {
	c := db.ensureCaches()
	if lt, ok := c.loadTrees[src]; ok {
		return lt
	}
	var lt *loadTree
	if n := len(c.ltreePool); n > 0 {
		lt = c.ltreePool[n-1]
		c.ltreePool = c.ltreePool[:n-1]
	} else {
		lt = &loadTree{}
	}
	lt.tree, lt.dist = db.View().ShortestTreeInto(lt.tree, lt.dist, src, func(u, v core.NodeID) int64 {
		return 1 + int64(db.loadOf(u, v))
	})
	c.loadTrees[src] = lt
	return lt
}

// View materializes the believed topology as a graph: the edge {u, v} is
// present iff u's record lists v as up and v's record (if known) agrees.
// The graph is sized to hold the largest known node ID. Update keeps a
// current view current (patchView), so the rebuild below runs only from
// cold or after a change to the node range. The graph is shared between
// calls and patched in place: callers must not modify or retain it across
// Updates.
func (db *DB) View() *graph.Graph {
	if db.view != nil && db.viewAt == db.version {
		return db.view
	}
	max := core.NodeID(-1)
	for s := range db.ents {
		r := &db.ents[s].rec
		if r.Node > max {
			max = r.Node
		}
		for _, l := range r.Links {
			if l.Neighbor > max {
				max = l.Neighbor
			}
		}
	}
	if db.view == nil {
		db.view = graph.New(int(max) + 1)
	} else {
		db.view.Reset(int(max) + 1)
	}
	for s := range db.ents {
		r := &db.ents[s].rec
		for _, l := range r.Links {
			if !l.Up {
				continue
			}
			rev, revFound, revKnown := db.findLink(l.Neighbor, r.Node)
			vUp := revFound && rev.Up
			// When both records agree the link is up, both passes reach this
			// point; only the lower-ID endpoint inserts, so each edge is
			// added exactly once.
			if !revKnown || (vUp && r.Node < l.Neighbor) {
				db.view.MustAddEdge(r.Node, l.Neighbor)
			}
		}
	}
	db.viewAt = db.version
	return db.view
}

// KnowsNodes reports whether, for every listed node, the database holds a
// record matching that node's actual local topology in g with the given set
// of failed edges (canonical form).
func (db *DB) KnowsNodes(nodes []core.NodeID, g *graph.Graph, down map[graph.Edge]bool) bool {
	for _, u := range nodes {
		rec, ok := db.Record(u)
		if !ok {
			return false
		}
		if len(rec.Links) != g.Degree(u) {
			return false
		}
		for _, l := range rec.Links {
			if !g.HasEdge(rec.Node, l.Neighbor) {
				return false
			}
			isDown := down[graph.Edge{U: rec.Node, V: l.Neighbor}.Canon()]
			if l.Up == isDown {
				return false
			}
		}
	}
	return true
}
