package faults

import (
	"sync"

	"fastnet/internal/anr"
	"fastnet/internal/calls"
	"fastnet/internal/core"
	"fastnet/internal/reliable"
	"fastnet/internal/topology"
)

// probeCmd is injected at one endpoint of an edge: send a probeEcho across
// exactly the given local link. Whether the echo arrives tells the soak
// driver whether the hardware honors the link's state.
type probeCmd struct {
	Link anr.ID
	ID   int64
}

// probeEcho is the probe's one-hop payload.
type probeEcho struct {
	ID int64
}

// probeBook records which probes echoed; shared by all nodes of a run.
type probeBook struct {
	mu   sync.Mutex
	echo map[int64]bool
}

func (b *probeBook) hit(id int64) {
	b.mu.Lock()
	b.echo[id] = true
	b.mu.Unlock()
}

func (b *probeBook) sawEcho(id int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.echo[id]
}

// relSend is injected at a sender: hand token to the reliable endpoint for
// delivery to dst over route.
type relSend struct {
	Dst   core.NodeID
	Route anr.Header
	Token uint64
}

// relBook is the driver-side delivery ledger for invariant I6: it records, for
// every ledger token, which nodes the reliable layer delivered it at (and how
// often). Shared by all nodes of a run.
type relBook struct {
	mu  sync.Mutex
	got map[uint64][]core.NodeID
}

func (b *relBook) deliver(at core.NodeID, token uint64) {
	b.mu.Lock()
	b.got[token] = append(b.got[token], at)
	b.mu.Unlock()
}

func (b *relBook) deliveries(token uint64) []core.NodeID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]core.NodeID(nil), b.got[token]...)
}

func (b *relBook) size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.got)
}

// soakNode multiplexes one NCU between the topology maintainer, the call
// manager and the reliable-delivery endpoint (all ignore each other's payload
// types), and answers link probes.
type soakNode struct {
	topo topology.Maintainer
	mgr  *calls.Manager
	rel  *reliable.Endpoint
	book *probeBook
}

func (s *soakNode) Init(env core.Env) {
	s.topo.Init(env)
	s.mgr.Init(env)
}

func (s *soakNode) Deliver(env core.Env, pkt core.Packet) {
	switch p := pkt.Payload.(type) {
	case probeCmd:
		_ = env.Send(anr.OneHop(p.Link), probeEcho{ID: p.ID})
	case probeEcho:
		s.book.hit(p.ID)
	case relSend:
		// Send errors surface as a lost frame; the ledger check catches it.
		_ = s.rel.SendRoute(env, p.Dst, p.Route, p.Token)
	default:
		// The reliable endpoint consumes frames, acks, ticks — and Garbled,
		// which every protocol here ignores anyway.
		if s.rel.Deliver(env, pkt) {
			return
		}
		s.topo.Deliver(env, pkt)
		s.mgr.Deliver(env, pkt)
	}
}

func (s *soakNode) LinkEvent(env core.Env, port core.Port) {
	s.topo.LinkEvent(env, port)
	s.mgr.LinkEvent(env, port)
}
