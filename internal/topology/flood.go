package topology

import (
	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// floodMsg is one flooding packet: a single node's local-topology record
// (or, in full-knowledge mode, several records).
type floodMsg struct {
	Origin core.NodeID
	Seq    uint64
	Recs   []Record
}

// flood is the ARPANET-style baseline [MRR80]: every broadcast sends the
// local topology over every link, and each node forwards the first copy of a
// newer record over all other links. Per broadcast it costs O(m) system
// calls and O(n) time under the new measures (every hop is an NCU visit).
type flood struct {
	localTopo

	full bool

	// best tracks the newest sequence number forwarded per origin, so each
	// broadcast is flooded once per node.
	best watermarks

	// hop[i] is the one-hop route over port i+1, built on the first relay and
	// never written afterwards (Send and Multicast only read a header);
	// routes is the list relay hands to Multicast, reused across relays.
	hop    []anr.Header
	routes []anr.Header

	Broadcasts int
	Forwards   int
}

var _ core.Protocol = (*flood)(nil)

// newFlood returns the flooding protocol for one node.
func newFlood(id core.NodeID, full bool) *flood {
	return &flood{localTopo: localTopo{id: id}, full: full}
}

// Init records the local topology.
func (f *flood) Init(env core.Env) {
	f.snapshot(env)
}

// LinkEvent refreshes the local record.
func (f *flood) LinkEvent(env core.Env, _ core.Port) {
	f.refresh(env)
}

// Deliver handles triggers and flood packets.
func (f *flood) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Trigger:
		f.refresh(env)
		f.Broadcasts++
		msg := &floodMsg{Origin: f.id, Seq: f.seq}
		if f.full {
			msg.Recs = f.db.records()
		} else {
			rec, _ := f.db.Record(f.id)
			msg.Recs = []Record{rec}
		}
		f.best.set(f.id, f.seq)
		f.relay(env, msg, anr.NCU)
	case *floodMsg:
		f.db.installAll(m.Recs)
		if f.best.get(m.Origin) >= m.Seq {
			return // already forwarded this broadcast
		}
		f.best.set(m.Origin, m.Seq)
		f.Forwards++
		f.relay(env, m, pkt.ArrivedOn)
	}
}

// relay sends the message one hop over every up link except the arrival one.
func (f *flood) relay(env core.Env, m *floodMsg, arrived anr.ID) {
	ports := env.Ports()
	if f.hop == nil {
		f.hop = make([]anr.Header, len(ports))
		for i, p := range ports {
			f.hop[i] = anr.Direct([]anr.ID{p.Local})
		}
		f.routes = make([]anr.Header, 0, len(ports))
	}
	hs := f.routes[:0]
	for i, p := range ports {
		if p.Local == arrived || !p.Up {
			continue
		}
		hs = append(hs, f.hop[i])
	}
	if len(hs) == 0 {
		return
	}
	_ = env.Multicast(hs, m)
}
