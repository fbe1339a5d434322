package reseq

import (
	"fmt"
	"sort"

	"fastnet/internal/anr"
	"fastnet/internal/core"
)

// Start triggers a Stream node: on receipt it sends Count numbered messages
// to every live neighbor, one single-hop unicast stream per link.
type Start struct{ Count int }

// streamMsg is one element of a neighbor stream; I runs 1..Count in send order.
type streamMsg struct {
	From core.NodeID
	I    int
}

// Stream is the canonical FIFO-requiring protocol: each node emits a
// numbered message stream to every neighbor and records arrivals per link in
// delivery order. Its correctness condition — every per-link ledger reads
// 1..Count ascending — holds on FIFO links and breaks under reordering,
// which makes it the exerciser of the differential resequencer suite: a
// wrapped Stream under reorder faults must produce ledgers byte-identical to
// an unwrapped Stream under exact (FIFO) delays.
type Stream struct {
	id      core.NodeID
	ledgers map[anr.ID][]int
}

// newStream builds the exerciser for one node.
func newStream(id core.NodeID) *Stream {
	return &Stream{id: id, ledgers: make(map[anr.ID][]int)}
}

// RequiresFIFO declares the capability (see core.FIFORequirer).
func (s *Stream) RequiresFIFO() bool { return true }

// Init implements core.Protocol.
func (s *Stream) Init(core.Env) {}

// LinkEvent implements core.Protocol.
func (s *Stream) LinkEvent(core.Env, core.Port) {}

// Deliver implements core.Protocol.
func (s *Stream) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case Start:
		for _, port := range env.Ports() {
			if !port.Up {
				continue
			}
			route := anr.Direct([]anr.ID{port.Local})
			for i := 1; i <= m.Count; i++ {
				if err := env.Send(route, streamMsg{From: s.id, I: i}); err != nil {
					panic(fmt.Sprintf("reseq stream: send on link %d: %v", port.Local, err))
				}
			}
		}
	case streamMsg:
		s.ledgers[pkt.ArrivedOn] = append(s.ledgers[pkt.ArrivedOn], m.I)
	}
}

// LedgerLine renders the per-link arrival ledgers on one canonical line
// (links in ascending ID order) — the byte-comparison unit of the
// differential tests. Cross-link interleaving is legitimately
// timing-dependent, so the ledger is per link, where FIFO is defined.
func (s *Stream) LedgerLine() string {
	links := make([]int, 0, len(s.ledgers))
	for l := range s.ledgers {
		links = append(links, int(l))
	}
	sort.Ints(links)
	out := ""
	for _, l := range links {
		out += fmt.Sprintf("l%d:%v;", l, s.ledgers[anr.ID(l)])
	}
	return out
}

// Violations returns every per-link ledger that is not the ascending run
// 1..len — the FIFO-correctness check used by the fuzz target (empty means
// the node saw perfectly ordered streams).
func (s *Stream) Violations() []string {
	var out []string
	for l, seq := range s.ledgers {
		for i, v := range seq {
			if v != i+1 {
				out = append(out, fmt.Sprintf("node %d link %d: pos %d holds %d (ledger %v)", s.id, l, i, v, seq))
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// StreamFactory builds a Stream per node; wrap with WrapFactory to get the
// resequenced variant.
func StreamFactory() core.Factory {
	return func(id core.NodeID) core.Protocol { return newStream(id) }
}

// StreamOf unwraps the Stream behind a possibly-wrapped protocol instance.
func StreamOf(p core.Protocol) *Stream {
	if n, ok := p.(*Node); ok {
		p = n.inner
	}
	return p.(*Stream)
}
