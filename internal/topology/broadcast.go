package topology

import (
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
)

// Trigger starts one periodic broadcast at the receiving node. The
// experiment driver injects it (the paper's periodic timer).
type Trigger struct{}

// RouteSpec is one branching path, precomputed by the broadcast origin so
// that path-start nodes can build ANR headers without global knowledge: the
// link IDs are local to each node along the chain, taken from the origin's
// topology database.
type RouteSpec struct {
	Start core.NodeID
	Nodes []core.NodeID // chain nodes, in order
	Links []anr.ID      // Links[i] = ID at the i-th sender toward Nodes[i]
}

// Msg is one topology broadcast packet: the origin's (or, in full-knowledge
// mode, all known) local-topology records plus the branching-path route
// specs that tell every start node what to forward. Routes is sorted by
// Start, so receivers locate their own paths by binary search. Receivers
// must treat a Msg as immutable: selective copies share the value.
type Msg struct {
	Origin core.NodeID
	Seq    uint64
	Recs   []Record
	Routes []RouteSpec
}

// Broadcast is the paper's §3.1 branching-paths topology-maintenance
// protocol.
type Broadcast struct {
	localTopo

	full bool // broadcast everything known, not just the local topology

	// fwd is the newest broadcast sequence forwarded per origin (same idiom
	// as Flood.best). Every broadcast round refreshes the origin's record,
	// so (Origin, Seq) identifies a round; under the lossy-link model a
	// duplicated Msg would otherwise re-trigger this node's whole branching
	// fan-out — a message storm the dedup watermark suppresses. Record
	// application stays unconditional: Update is idempotent by sequence.
	fwd watermarks

	// routes caches the branching-path route specs of this node's own
	// broadcasts; nil until it starts one (a relay never does).
	routes *specCache

	// Stats for experiments.
	Broadcasts int
	Forwards   int
	// DupSuppressed counts forwards skipped by the dedup watermark.
	DupSuppressed int
}

// specCache is a broadcast origin's route specs, valid while the database
// version holds: a quiet round refreshes only the local record's sequence
// number, which leaves the version (and thus the decomposition) intact, so
// steady-state broadcasts reuse the same specs with no tree or decomposition
// work. Receivers treat Msg as immutable, so the slice is safely shared
// across rounds.
type specCache struct {
	specs []RouteSpec
	err   error
	at    uint64
}

var _ core.Protocol = (*Broadcast)(nil)

// NewBroadcast returns the branching-paths protocol for one node. With full
// set, every broadcast carries all records the node knows (the paper's
// "improved to log d" variant); otherwise only the local topology.
func NewBroadcast(id core.NodeID, full bool) *Broadcast {
	return &Broadcast{localTopo: localTopo{id: id}, full: full}
}

// Init records the node's own local topology.
func (b *Broadcast) Init(env core.Env) {
	b.snapshot(env)
}

// LinkEvent refreshes the local record; the new state is carried by the next
// broadcast. A recovery additionally pushes the whole database straight
// over the recovered link (adjacency bring-up, as in link-state routers).
// Without it the incremental protocol can deadlock: after a down period,
// down-era records of the two endpoints survive at third parties, every
// view then excludes the healed edge, so no broadcast ever routes across
// it and the stale records are never replaced. The database exchange gives
// the recovering side a view good enough to route its own fresh record
// everywhere, which unwinds the staleness.
func (b *Broadcast) LinkEvent(env core.Env, port core.Port) {
	b.refresh(env)
	if port.Up {
		_ = env.Send(anr.Direct([]anr.ID{port.Local}), &Msg{Origin: b.id, Seq: b.seq, Recs: b.db.Records()})
	}
}

// Deliver handles triggers (start a broadcast) and broadcast packets
// (record, then forward the paths that start here).
func (b *Broadcast) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Trigger:
		b.startBroadcast(env)
	case *Msg:
		b.db.installAll(m.Recs)
		// Forward each round at most once: a fault-duplicated (or reordered
		// stale) Msg must not re-fan-out. Rounds with no route specs (the
		// LinkEvent adjacency bring-up) forward nothing, so they are exempt
		// from the watermark and can never mask a real round.
		if len(m.Routes) > 0 {
			if m.Seq <= b.fwd.get(m.Origin) {
				b.DupSuppressed++
				return
			}
			b.fwd.set(m.Origin, m.Seq)
		}
		b.forward(env, m)
	}
}

func (b *Broadcast) startBroadcast(env core.Env) {
	b.refresh(env)
	b.Broadcasts++

	routes, ok := b.cachedRoutes()
	if !ok {
		// Knows nothing beyond itself, or a stale view names links the
		// origin has no record for; skip this broadcast round, later rounds
		// repair the view.
		return
	}
	msg := &Msg{Origin: b.id, Seq: b.seq, Routes: routes}
	if b.full {
		msg.Recs = b.db.Records()
	} else {
		rec, _ := b.db.Record(b.id)
		msg.Recs = []Record{rec}
	}
	b.forward(env, msg)
}

// cachedRoutes returns the branching-path route specs for the current
// database version, recomputing the tree and decomposition only when the
// believed topology actually changed.
func (b *Broadcast) cachedRoutes() ([]RouteSpec, bool) {
	c := b.routes
	if v := b.db.Version(); c == nil || c.at != v {
		c = &specCache{at: v}
		c.specs, c.err = b.computeRoutes()
		b.routes = c
	}
	return c.specs, c.err == nil
}

// computeRoutes builds the route specs from scratch: branching-path
// decomposition of the cached minimum-hop tree rooted here.
func (b *Broadcast) computeRoutes() ([]RouteSpec, error) {
	if int(b.id) >= b.db.View().N() {
		return nil, fmt.Errorf("topology: node %d knows nothing beyond itself", b.id)
	}
	tree := b.db.BFSTree(b.id)
	labels := paths.Labels(tree)
	dec := paths.Decompose(tree, labels)
	return b.routeSpecs(dec)
}

// routeSpecs converts a decomposition into wire route specs using the
// database's link IDs. The result is sorted by Start (paths.Routes's order)
// — the contract forward's binary search relies on. Ordering at the origin
// is free compared with what it saves: unsorted, every one of the n
// receivers scans all O(n) specs, which profiling showed dominating large
// broadcasts.
func (b *Broadcast) routeSpecs(dec *paths.Decomposition) ([]RouteSpec, error) {
	specs := make([]RouteSpec, 0, len(dec.Paths))
	err := paths.Routes(dec, b.db.LinkID, func(p paths.Path, links []anr.ID) {
		// Nodes aliases the decomposition's chain storage: paths are never
		// mutated after Decompose, and Msg (which carries the specs) is
		// immutable by contract.
		specs = append(specs, RouteSpec{Start: p.Start(), Nodes: p.Chain(), Links: links})
	})
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	return specs, nil
}

// forward relays the message over every path starting at this node, within
// the same activation (one system call, free multicast). Routes is sorted
// by Start (routeSpecs's contract), so this node's paths are one contiguous
// run found by binary search instead of a full scan — per receiver that is
// O(log n + own paths), not O(all paths).
func (b *Broadcast) forward(env core.Env, m *Msg) {
	lo := sort.Search(len(m.Routes), func(j int) bool { return m.Routes[j].Start >= b.id })
	var hs []anr.Header
	for _, spec := range m.Routes[lo:] {
		if spec.Start != b.id {
			break
		}
		hs = append(hs, anr.CopyPath(spec.Links))
	}
	if len(hs) == 0 {
		return
	}
	if m.Origin != b.id {
		b.Forwards++
	}
	// Route errors (e.g. dmax) surface as lost coverage; later broadcast
	// rounds repair it, mirroring the paper's loss handling.
	_ = env.Multicast(hs, m)
}

// RecordsForGraph builds the true records of every node of g (seq 0, all
// links up except those in down), in ascending node order; used to
// warm-start databases.
func RecordsForGraph(g *graph.Graph, pm *core.PortMap, down map[graph.Edge]bool) []Record {
	recs := make([]Record, 0, g.N())
	for u := 0; u < g.N(); u++ {
		id := core.NodeID(u)
		ports := pm.Ports(id)
		rec := Record{Node: id, Links: make([]LinkInfo, 0, len(ports))}
		for _, p := range ports {
			up := !down[graph.Edge{U: id, V: p.Remote}.Canon()]
			rec.Links = append(rec.Links, LinkInfo{Local: p.Local, Remote: p.RemoteID, Neighbor: p.Remote, Up: up})
		}
		recs = append(recs, rec)
	}
	return recs
}
