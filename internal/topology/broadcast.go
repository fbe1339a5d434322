package topology

import (
	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/paths"
)

// Trigger starts one periodic broadcast at the receiving node. The
// experiment driver injects it (the paper's periodic timer).
type Trigger struct{}

// bcastMsg is one topology broadcast packet: the origin's (or, in full-knowledge
// mode, all known) local-topology records plus the origin's plan of the
// broadcast — the branching paths of its minimum-hop tree as finished ANR
// headers, link IDs taken from its topology database — so that every
// path-start node forwards without global knowledge. Plan is nil on the
// LinkEvent adjacency bring-up, which nobody forwards. Receivers must treat a
// Msg as immutable: selective copies share the value.
type bcastMsg struct {
	Origin core.NodeID
	Seq    uint64
	Recs   []Record
	Plan   *paths.Fanout
}

// broadcast is the paper's §3.1 branching-paths topology-maintenance
// protocol.
type broadcast struct {
	localTopo

	// full broadcasts everything known, not just the local topology (the
	// paper's "improved to log d" variant).
	full bool

	// plan caches the branching-path plan of this node's own broadcasts; nil
	// until it starts one (a relay never does).
	plan *planCache

	// Stats for experiments.
	Broadcasts int
	Forwards   int
	// DupSuppressed counts forwards skipped by the dedup watermark.
	DupSuppressed int
}

// planCache is a broadcast origin's plan, valid while the database version
// holds: a quiet round refreshes only the local record's sequence number,
// which leaves the version (and thus the decomposition) intact, so
// steady-state broadcasts attach the same plan with no tree or decomposition
// work. plan is nil when the version allows none.
type planCache struct {
	plan *paths.Fanout
	at   uint64
}

var _ core.Protocol = (*broadcast)(nil)

// Init records the node's own local topology.
func (b *broadcast) Init(env core.Env) {
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
func (b *broadcast) LinkEvent(env core.Env, port core.Port) {
	b.refresh(env)
	if port.Up {
		_ = env.Send(anr.OneHop(port.Local), &bcastMsg{Origin: b.id, Seq: b.seq, Recs: b.db.records()})
	}
}

// Deliver handles triggers (start a broadcast) and broadcast packets
// (record, then forward the paths that start here).
func (b *broadcast) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Trigger:
		b.startBroadcast(env)
	case *bcastMsg:
		b.db.installAll(m.Recs)
		// Forward each round at most once. Every broadcast round refreshes
		// the origin's record, so (Origin, Seq) identifies a round, and the
		// origin's entry — there since the install above — keeps the newest
		// one forwarded (DB.forward): under the lossy-link model a duplicated
		// (or reordered stale) Msg would otherwise re-trigger this node's
		// whole branching fan-out. Record application stays unconditional:
		// Update is idempotent by sequence. A message with no plan (the
		// LinkEvent adjacency bring-up) forwards nothing, so it is exempt
		// from the watermark and can never mask a real round.
		if m.Plan == nil {
			return
		}
		if !b.db.forward(m.Origin, m.Seq) {
			b.DupSuppressed++
			return
		}
		b.forward(env, m)
	}
}

func (b *broadcast) startBroadcast(env core.Env) {
	b.refresh(env)
	b.Broadcasts++

	plan := b.cachedPlan()
	if plan == nil {
		// Knows nothing beyond itself, or a stale view names links the
		// origin has no record for; skip this broadcast round, later rounds
		// repair the view.
		return
	}
	msg := &bcastMsg{Origin: b.id, Seq: b.seq, Plan: plan}
	if b.full {
		msg.Recs = b.db.records()
	} else {
		rec, _ := b.db.Record(b.id)
		msg.Recs = []Record{rec}
	}
	b.forward(env, msg)
}

// cachedPlan returns the branching-path plan for the current database
// version, recomputing the tree and decomposition only when the believed
// topology actually changed. The origin's one planCache is updated in place.
func (b *broadcast) cachedPlan() *paths.Fanout {
	c := b.plan
	if c == nil {
		c = new(planCache)
		b.plan = c
	} else if c.at == b.db.version {
		return c.plan
	}
	c.at, c.plan = b.db.version, nil
	if int(b.id) < b.db.View().N() {
		c.plan, _ = paths.NewFanout(b.db.BFSTree(b.id), b.db.LinkID) // nil with the error
	}
	return c.plan
}

// forward relays the message over every path starting at this node, within
// the same activation (one system call, free multicast).
func (b *broadcast) forward(env core.Env, m *bcastMsg) {
	// Route errors (e.g. dmax) surface as lost coverage; later broadcast
	// rounds repair it, mirroring the paper's loss handling.
	if n, _ := m.Plan.Relay(env, b.id, m); n > 0 && m.Origin != b.id {
		b.Forwards++
	}
}

// RecordsForGraph builds the true records of every node of g (seq 0, all
// links up except those in down), in ascending node order; used to
// warm-start databases. The link lists are carved from one array, each capped
// at its length (the idiom of graph.Tree's Children).
func RecordsForGraph(g *graph.Graph, pm *core.PortMap, down map[graph.Edge]bool) []Record {
	recs := make([]Record, 0, g.N())
	links := make([]LinkInfo, 0, 2*g.M())
	for u := 0; u < g.N(); u++ {
		id := core.NodeID(u)
		for _, p := range pm.Ports(id) {
			up := !down[graph.Edge{U: id, V: p.Remote}.Canon()]
			links = append(links, LinkInfo{Local: p.Local, Remote: p.RemoteID, Neighbor: p.Remote, Up: up})
		}
		recs = append(recs, Record{Node: id, Links: links[:len(links):len(links)]})
		links = links[len(links):]
	}
	return recs
}
