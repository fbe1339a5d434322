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
		rec.Links = append(rec.Links, linkOf(p, loads))
	}
	return rec
}

// linkOf is the link a node reports for port p.
func linkOf(p core.Port, loads map[anr.ID]uint32) LinkInfo {
	return LinkInfo{Local: p.Local, Remote: p.RemoteID, Neighbor: p.Remote, Up: p.Up, Load: loads[p.Local]}
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

// refresh bumps the sequence number and re-snapshots the local record. A
// quiet node — ports and loads as its stored record reports them — re-installs
// the stored array under the new number: update recognises it by identity
// (sameLinks), and receivers that adopted the array do too.
func (l *localTopo) refresh(env core.Env) {
	l.seq++
	ports := env.Ports()
	if rec, ok := l.db.Record(l.id); ok && portsMatch(rec.Links, ports, l.loads) {
		l.db.install(Record{Node: l.id, Seq: l.seq, Links: rec.Links})
		return
	}
	l.db.install(recordFromPorts(l.id, l.seq, ports, l.loads))
}

// portsMatch reports whether links is the list recordFromPorts would build
// from ports and loads.
func portsMatch(links []LinkInfo, ports []core.Port, loads map[anr.ID]uint32) bool {
	if len(links) != len(ports) {
		return false
	}
	for i, p := range ports {
		if links[i] != linkOf(p, loads) {
			return false
		}
	}
	return true
}

// snapshot stores the current local record without bumping the sequence
// number (used by Init).
func (l *localTopo) snapshot(env core.Env) {
	if l.db.ents == nil {
		l.db.ents = l.ents[:0]
	}
	l.db.install(recordFromPorts(l.id, l.seq, env.Ports(), l.loads))
}

// DB is one node's view of the network topology: the newest Record per node,
// behind a routing plane. Every NCU of a network keeps one, so a database
// costs what it holds: its store and node index grow with the records, never
// with the largest node ID a record names. In a branching-paths broadcast
// most databases only store the origin's record and forward it, so the DB
// itself is the store alone — version, entries, node index — and everything
// derived from the records sits in a plane behind one pointer, made by the
// first query that needs a part of it. Control software computes routes from
// its own map (the paper's §2–3 division of labor: software plans, hardware
// executes), so the plane keeps the materialized view graph, one min-hop
// tree and one load-weighted tree, and a monotonic version counter that only
// routing-relevant changes bump tells when those are stale. Each tree is kept
// for one source: the node's own, which is all the product ever routes from.
// Re-installing a record whose links are unchanged (the per-round refresh of
// a quiet node) advances the sequence number without invalidating anything.
//
// View and BFSTree results are shared with the caller and must be treated as
// immutable; Route and RouteMinLoad build a fresh header per call.
type DB struct {
	// version advances exactly when a routing-relevant change lands (a record
	// with different links, or a node heard from for the first time), so
	// equal versions guarantee equal views, trees and routes.
	version uint64

	// Packed record store: one entry per known node. Lookup is a linear scan
	// while the store holds up to core.ScanMax entries — the common case for
	// the per-node databases built during convergence, and allocation-free —
	// and then goes through byNode. Records are never removed.
	ents   []entry
	byNode core.NodeIndex

	plane *plane // nil until the first query that needs it
}

// plane is what a database derives from its records: the screen, the record
// order, the adjacency indexes, the view and the routing trees. A database
// that only stores and relays never makes it.
type plane struct {
	// The batch screen: seen[u] = 1 + the stored sequence number of node u, 0
	// for a node with no record (or one whose number leaves no room for the
	// +1; such a record is merely not screened). A full-knowledge message
	// repeats its sender's whole database and all but a record or two of it
	// is already held here, so updateAll turns those away on this one dense
	// load per record. It is nil until the first multi-record message arrives
	// at a database that has its node index; from then on it covers the IDs
	// below len(seen) (cover) and update keeps it exact. Databases that hear
	// one record at a time (flooding, a single broadcast) never pay for it.
	seen []uint64

	order []int32 // entry indices by ascending node; records re-sorts it only after a node was added

	// idx[s] is slot s's adjacency index: indices into its Links sorted by
	// (Neighbor, index), built by the first lookup (index) and only for
	// high-degree records, making link lookups O(log d) while leaving the
	// wire-visible Record untouched. It covers the slots below len(idx).
	idx [][]int32

	// The materialized believed-topology graph. While it is current, Update
	// patches the edges at the changed record's node (patchView); View
	// rebuilds it in place (Reset + refill) only from cold or when the node
	// range changes.
	view   *graph.Graph // nil until the first View call
	viewAt uint64

	// One min-hop tree and one load-weighted tree with its distance array,
	// each built for the source and version beside it; a query for another
	// source, or after a version bump, refills it in place.
	hop, load       *graph.Tree // nil until first built
	hopSrc, loadSrc core.NodeID
	hopAt, loadAt   uint64
	dist            []int64 // the load tree's, reused by each refill

	nodeBuf []core.NodeID // scratch: route paths, patchView's neighbor list
}

// entry is one stored record and its forwarding watermark: fwd is the newest
// sequence number of the node's own broadcasts this node has forwarded
// (forward). Everything a delivery reads — node, sequence number, link list,
// watermark — is in these 48 bytes.
type entry struct {
	rec Record
	fwd uint64
}

// screenSpan is how many node IDs the screen may cover per stored record: it
// is dense only where the database holds a fixed share of the IDs it covers.
const screenSpan = 4

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{}
}

// derived returns the plane, making it on the first call.
func (db *DB) derived() *plane {
	if db.plane == nil {
		db.plane = new(plane)
	}
	return db.plane
}

// screen returns the batch screen, nil where there is none.
func (db *DB) screen() []uint64 {
	if db.plane == nil {
		return nil
	}
	return db.plane.seen
}

// slotOf returns the store slot holding u's record.
func (db *DB) slotOf(u core.NodeID) (int32, bool) {
	if len(db.ents) <= core.ScanMax {
		for s := range db.ents {
			if db.ents[s].rec.Node == u {
				return int32(s), true
			}
		}
		return 0, false
	}
	return db.byNode.Find(u, func(s int32) core.NodeID { return db.ents[s].rec.Node })
}

// cover widens the screen over the node IDs below hi as far as screenSpan
// allows; a record beyond it is screened by update's lookup.
func (db *DB) cover(hi int) {
	p := db.derived()
	for u := len(p.seen); u < min(hi, screenSpan*len(db.ents)); u++ {
		var seen uint64
		if s, ok := db.slotOf(core.NodeID(u)); ok {
			seen = db.ents[s].rec.Seq + 1
		}
		p.seen = append(p.seen, seen)
	}
}

// forward reports whether origin's broadcast seq is newer than any this node
// has forwarded, and if so marks it forwarded. The watermark lives in
// origin's entry, so callers install a message's records first; a message
// whose origin has no record is not forwarded. It is not the record's
// sequence number: another message may bring origin's record ahead of
// origin's own broadcast, which must still be forwarded.
func (db *DB) forward(origin core.NodeID, seq uint64) bool {
	s, ok := db.slotOf(origin)
	if !ok || db.ents[s].fwd >= seq {
		return false
	}
	db.ents[s].fwd = seq
	return true
}

// sameLinks reports whether a and b are one list in the strict sense: the
// same array, not merely equal contents. Link lists are immutable once stored
// or sent and a database adopts the lists it receives, so in a converged
// network every database holds the same array for a node and identity is the
// usual form of equality — one that costs nothing to establish. Two lists
// with equal contents can still sit in different arrays: a node that restarts
// rebuilds its own, Update copies what it is given, and a record that came by
// another route may carry an older array.
func sameLinks(a, b []LinkInfo) bool {
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
	links := db.ents[s].rec.Links
	if len(links) < indexThreshold {
		return nil
	}
	p := db.derived()
	if n := len(db.ents); len(p.idx) < n {
		// Sized to the store's capacity: the table grows when the store does.
		if cap(p.idx) < n {
			p.idx = append(make([][]int32, 0, cap(db.ents)), p.idx...)
		}
		p.idx = p.idx[:n]
	}
	idx := p.idx[s]
	if len(idx) == len(links) {
		return idx
	}
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
	p.idx[s] = idx
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
		return false // no node has a negative ID; the screen is indexed by it
	}
	s, known := db.slotOf(rec.Node)
	var old []LinkInfo
	if known {
		e := &db.ents[s]
		if e.rec.Seq >= rec.Seq {
			return false
		}
		// The stored array itself comes back from every quiet node.
		if sameLinks(e.rec.Links, rec.Links) || slices.Equal(e.rec.Links, rec.Links) {
			// A pure sequence-number refresh leaves every derived structure
			// valid: keep the version, and with it the view and the trees.
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
	p := db.plane
	if !known {
		s = int32(len(db.ents))
		db.ents = append(db.ents, entry{rec: Record{Node: rec.Node}})
		db.byNode.Add(s, func(s int32) core.NodeID { return db.ents[s].rec.Node })
		if p != nil && p.seen != nil {
			db.cover(int(rec.Node) + 1)
		}
	}
	// A fresh list, never an overwrite of the stored array: records handed
	// out earlier, some still in flight, share it.
	if !adopt {
		rec.Links = slices.Clone(rec.Links)
	}
	db.ents[s].rec.Links = rec.Links
	db.setSeq(s, rec.Seq)
	db.version++
	if p != nil {
		if int(s) < len(p.idx) {
			p.idx[s] = p.idx[s][:0]
		}
		if p.view != nil && p.viewAt == db.version-1 { // current until this bump
			db.patchView(s, old, !known)
		}
	}
	return true
}

// setSeq advances the sequence number of slot s's record, in the store and,
// where there is one, on the batch screen.
func (db *DB) setSeq(s int32, seq uint64) {
	r := &db.ents[s].rec
	r.Seq = seq
	if seen := db.screen(); int(r.Node) < len(seen) {
		seen[r.Node] = seq + 1
	}
}

// installAll applies every record of a batch, as Update would one by one,
// under install's ownership rule: the records of a received message, or of a
// warm start.
func (db *DB) installAll(recs []Record) {
	if db.screen() == nil && db.byNode.Slots() != 0 && len(recs) > 1 {
		top := 0
		for i := range db.ents {
			top = max(top, int(db.ents[i].rec.Node)+1)
		}
		db.cover(top)
	}
	db.updateAll(recs)
}

// updateAll applies a batch under install's ownership rule and pays for what
// it brings that is new: a record the screen covers is turned away before the
// update call when it is no newer than the stored one. Every other record
// takes update, which recognises a newer one whose Links is the stored array
// itself (sameLinks) as a sequence refresh with nothing to compare.
func (db *DB) updateAll(recs []Record) {
	screen := db.screen()
	for i := range recs {
		r := &recs[i]
		// The screen holds 0 for a node with no record, and a negative ID
		// lands past it: update rejects it.
		if u := uint(r.Node); u < uint(len(screen)) && screen[u] > r.Seq {
			continue
		}
		db.update(*r, true)
		screen = db.screen() // a new node may have widened it
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
	p := db.plane
	u, links := db.ents[s].rec.Node, db.ents[s].rec.Links
	top := core.NodeID(p.view.N() - 1) // largest ID any record names
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
	nbrs := p.nodeBuf[:0]
	if first {
		nbrs = append(nbrs, p.view.Neighbors(u)...)
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
			p.view.MustAddEdge(u, v)
		} else {
			p.view.RemoveEdge(u, v)
		}
	}
	p.nodeBuf = nbrs[:0]
	p.viewAt = db.version
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
	p := db.derived()
	if len(p.order) != len(db.ents) {
		p.order = p.order[:0]
		for s := range db.ents {
			p.order = append(p.order, int32(s))
		}
		slices.SortFunc(p.order, func(a, b int32) int {
			return int(db.ents[a].rec.Node) - int(db.ents[b].rec.Node)
		})
	}
	out := make([]Record, len(p.order))
	for i, s := range p.order {
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
// software computes routes from its map, the hardware executes them.
func (db *DB) Route(src, dst core.NodeID) (anr.Header, error) {
	return db.route(src, dst, db.BFSTree)
}

// route is the body Route and RouteMinLoad share: the path from src to dst in
// tree(src), as a header built from the stored records' link IDs.
func (db *DB) route(src, dst core.NodeID, tree func(core.NodeID) *graph.Tree) (anr.Header, error) {
	if src == dst {
		return anr.Local(), nil
	}
	view := db.View()
	if int(src) >= view.N() || int(dst) >= view.N() {
		return nil, fmt.Errorf("topology: no route %d->%d: unknown node", src, dst)
	}
	p := db.plane // made by View
	path := tree(src).PathFromRootInto(p.nodeBuf, dst)
	if path == nil {
		return nil, fmt.Errorf("topology: no route %d->%d in the believed topology", src, dst)
	}
	p.nodeBuf = path[:0]
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
// links' states and loads").
func (db *DB) RouteMinLoad(src, dst core.NodeID) (anr.Header, error) {
	return db.route(src, dst, db.minLoadTree)
}

// BFSTree returns the minimum-hop spanning tree of the believed topology
// rooted at src. The tree is shared: callers must not modify it, and the
// next query for another source, or the first after an Update that bumps
// the version, refills it in place.
func (db *DB) BFSTree(src core.NodeID) *graph.Tree {
	t := db.derived()
	if t.hop == nil || t.hopSrc != src || t.hopAt != db.version {
		t.hop = db.View().BFSTreeInto(t.hop, src)
		t.hopSrc, t.hopAt = src, db.version
	}
	return t.hop
}

// minLoadTree is BFSTree for the load-weighted shortest-path tree.
func (db *DB) minLoadTree(src core.NodeID) *graph.Tree {
	t := db.derived()
	if t.load == nil || t.loadSrc != src || t.loadAt != db.version {
		t.load, t.dist = db.View().ShortestTreeInto(t.load, t.dist, src, func(u, v core.NodeID) int64 {
			return 1 + int64(db.loadOf(u, v))
		})
		t.loadSrc, t.loadAt = src, db.version
	}
	return t.load
}

// View materializes the believed topology as a graph: the edge {u, v} is
// present iff u's record lists v as up and v's record (if known) agrees.
// The graph is sized to hold the largest known node ID. Update keeps a
// current view current (patchView), so the rebuild below runs only from
// cold or after a change to the node range. The graph is shared between
// calls and patched in place: callers must not modify or retain it across
// Updates.
func (db *DB) View() *graph.Graph {
	p := db.derived()
	if p.view != nil && p.viewAt == db.version {
		return p.view
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
	if p.view == nil {
		p.view = graph.New(int(max) + 1)
	} else {
		p.view.Reset(int(max) + 1)
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
				p.view.MustAddEdge(r.Node, l.Neighbor)
			}
		}
	}
	p.viewAt = db.version
	return p.view
}

// knowsNodes reports whether, for every listed node, the database holds a
// record matching that node's actual local topology in g with the given set
// of failed edges (canonical form).
func (db *DB) knowsNodes(nodes []core.NodeID, g *graph.Graph, down map[graph.Edge]bool) bool {
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
