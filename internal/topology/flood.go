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

	// routes is the list of one-hop headers relay hands to Multicast, reused
	// across relays (Multicast only reads it).
	routes []anr.Header

	Broadcasts int
	Forwards   int
}

var _ core.Protocol = (*flood)(nil)

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
		f.db.forward(f.id, f.seq)
		f.relay(env, msg, anr.NCU)
	case *floodMsg:
		// The records go in first, so the origin has an entry to hold the
		// watermark that floods each broadcast once per node.
		f.db.installAll(m.Recs)
		if !f.db.forward(m.Origin, m.Seq) {
			return // already forwarded this broadcast
		}
		f.Forwards++
		f.relay(env, m, pkt.ArrivedOn)
	}
}

// relay sends the message one hop over every up link except the arrival one.
func (f *flood) relay(env core.Env, m *floodMsg, arrived anr.ID) {
	ports := env.Ports()
	if f.routes == nil {
		f.routes = make([]anr.Header, 0, len(ports))
	}
	hs := f.routes[:0]
	for _, p := range ports {
		if p.Local == arrived || !p.Up {
			continue
		}
		hs = append(hs, anr.OneHop(p.Local))
	}
	if len(hs) == 0 {
		return
	}
	_ = env.Multicast(hs, m)
}
