// Package traffic quantifies the paper's introductory premise: user-to-user
// traffic "does not require complex processing in the intermediate nodes and
// consequently travels only through the switching hardware", while a
// traditional store-and-forward network pays a software activation at every
// hop. The package pumps the same flows through both forwarding disciplines
// and reports the system-call and time gap.
package traffic

import (
	"fmt"
	"math/rand"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// Discipline selects how packets are forwarded.
type Discipline int

// Forwarding disciplines.
const (
	// Hardware rides a full ANR source route: intermediate nodes cost no
	// software at all; only the destination NCU is activated.
	Hardware Discipline = iota + 1
	// StoreAndForward is the ARPANET way: every hop delivers the packet to
	// the local NCU, which re-sends it one hop further.
	StoreAndForward
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case Hardware:
		return "hardware-ANR"
	case StoreAndForward:
		return "store-and-forward"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Flow is one unidirectional stream of packets.
type Flow struct {
	Src, Dst core.NodeID
	Packets  int
}

// FlowError reports a structurally invalid flow handed to Run: the index and
// offending flow plus a human-readable reason, so sweep drivers can tell a
// bad scenario from a simulation failure with errors.As.
type FlowError struct {
	Index  int
	Flow   Flow
	Reason string
}

func (e *FlowError) Error() string {
	return fmt.Sprintf("traffic: flow %d (%d->%d, %d packets): %s",
		e.Index, e.Flow.Src, e.Flow.Dst, e.Flow.Packets, e.Reason)
}

// validateFlows rejects flows no forwarding discipline could serve: empty
// streams, endpoints outside the graph, and self-loops (the port map has no
// route of length zero, and a flow to yourself measures nothing).
func validateFlows(g *graph.Graph, flows []Flow) error {
	n := core.NodeID(g.N())
	for i, f := range flows {
		switch {
		case f.Packets <= 0:
			return &FlowError{Index: i, Flow: f, Reason: fmt.Sprintf("packet count %d is not positive", f.Packets)}
		case f.Src < 0 || f.Src >= n:
			return &FlowError{Index: i, Flow: f, Reason: fmt.Sprintf("source %d outside [0, %d)", f.Src, n)}
		case f.Dst < 0 || f.Dst >= n:
			return &FlowError{Index: i, Flow: f, Reason: fmt.Sprintf("destination %d outside [0, %d)", f.Dst, n)}
		case f.Src == f.Dst:
			return &FlowError{Index: i, Flow: f, Reason: "source and destination coincide"}
		}
	}
	return nil
}

// dataMsg is one state of a user packet. Flow is the flow's slot at its
// destination (its rank among the flows ending there), so a destination's
// counters cover only its own flows. A hardware packet has the one state the
// destination counts; a store-and-forward packet walks a chain with one state
// per node it visits, each holding the one-hop header that node forwards with
// and the state the next node receives. A flow's states are built once by its
// source and never written afterwards, so all its packets — and any
// duplicates the fault plane makes of them — share them.
type dataMsg struct {
	Flow int
	Hop  anr.Header // header to the next state's node; nil at the destination
	Next *dataMsg
}

// sendCmd is injected at a flow's source: emit the flow's packets (one
// activation emits all of them back to back — the adapter's job; the
// interesting costs are downstream). Flow is the flow's index in Run's flows.
type sendCmd struct {
	Flow       int
	Discipline Discipline
	Links      []anr.ID
	Packets    int
}

// node is the per-node traffic protocol.
type node struct {
	slot     []int // each flow's counter slot at its destination, shared by every node of a Run
	received []int // packet counts of the flows ending here, by dataMsg.Flow slot
}

var _ core.Protocol = (*node)(nil)

func (p *node) Init(core.Env) {}

func (p *node) LinkEvent(core.Env, core.Port) {}

func (p *node) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case *sendCmd:
		first := m.first(p.slot[m.Flow])
		for i := 0; i < m.Packets; i++ {
			if err := env.Send(first.Hop, first.Next); err != nil {
				env.Fail(fmt.Errorf("traffic: flow %d: send: %w", m.Flow, err))
				return
			}
		}
	case *dataMsg:
		if m.Next == nil {
			// Destination reached.
			p.count(m.Flow)
			return
		}
		// Store-and-forward relay: one software activation per hop.
		if err := env.Send(m.Hop, m.Next); err != nil {
			env.Fail(fmt.Errorf("traffic: relay: %w", err))
		}
	}
}

// first builds the packet states of the flow its destination counts in slot
// and returns the source's own: its header is what every packet of the flow
// leaves with, its Next what the first receiving node is handed. Hardware is the chain of one hop, the full
// route. The states, and a store-and-forward chain's one-hop headers {link,
// NCU}, are carved from one backing array each, so a flow costs the same few
// allocations whatever its length.
func (m *sendCmd) first(slot int) *dataMsg {
	if m.Discipline == Hardware {
		pair := new([2]dataMsg)
		pair[0] = dataMsg{Flow: slot, Hop: anr.Direct(m.Links), Next: &pair[1]}
		pair[1].Flow = slot
		return &pair[0]
	}
	states := make([]dataMsg, len(m.Links)+1)
	hops := make(anr.Header, 2*len(m.Links))
	for i, l := range m.Links {
		h := hops[2*i : 2*i+2 : 2*i+2]
		h[0].Link, h[1].Link = l, anr.NCU
		states[i] = dataMsg{Flow: slot, Hop: h, Next: &states[i+1]}
	}
	states[len(m.Links)].Flow = slot
	return &states[0]
}

func (p *node) count(flow int) {
	for len(p.received) <= flow {
		p.received = append(p.received, 0)
	}
	p.received[flow]++
}

// Result reports one traffic run.
type Result struct {
	Discipline Discipline
	Delivered  int
	Metrics    core.Metrics
	// TransitSyscalls is the number of NCU activations at nodes that are
	// neither source nor destination of the flow whose packet they handled.
	TransitSyscalls int64
	// MaxUtilization is the busiest NCU's busy-time share of the run.
	MaxUtilization float64
	// MaxTransitUtilization is the same restricted to nodes that are not
	// flow endpoints — the relays whose processors the paper's designs
	// off-load.
	MaxTransitUtilization float64
	// Sched is the scheduler's own cost profile for the run (heap bypass,
	// ring overflows, ring and heap occupancy) — the observability hook for
	// the C >= 1 hot path this engine lives on.
	Sched sim.SchedStats
}

// Run pushes every flow's packets through the network under the given
// discipline with delays (C, P) and returns the cost profile. Extra options
// (fault injection, sharding, scheduler knobs) are appended to the network's
// build options, so fault-load traffic studies reuse this driver. A send the
// runtime refuses (a WithDmax shorter than a route) fails the run, naming the
// flow.
func Run(g *graph.Graph, flows []Flow, d Discipline, c, p core.Time, extra ...sim.Option) (Result, error) {
	if err := validateFlows(g, flows); err != nil {
		return Result{}, err
	}
	slot := make([]int, len(flows)) // flow -> its counter at the destination
	nodes := make([]node, g.N())
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		nodes[id].slot = slot
		return &nodes[id]
	}, append([]sim.Option{sim.WithDelays(c, p), sim.WithDmax(g.N())}, extra...)...)
	pairs := make([][2]core.NodeID, len(flows))
	for i, f := range flows {
		pairs[i] = [2]core.NodeID{f.Src, f.Dst}
	}
	routes, err := net.PortMap().RoutePairs(g, pairs)
	if err != nil {
		return Result{}, err
	}
	ending := make(map[core.NodeID]int, len(flows))
	for i, f := range flows {
		if routes[i] == nil {
			return Result{}, fmt.Errorf("traffic: flow %d: no path %d->%d", i, f.Src, f.Dst)
		}
		slot[i] = ending[f.Dst]
		ending[f.Dst]++
		net.Inject(0, f.Src, &sendCmd{
			Flow:       i,
			Discipline: d,
			Links:      routes[i],
			Packets:    f.Packets,
		})
	}
	finish, err := net.Run()
	if err != nil {
		return Result{}, err
	}
	res := Result{Discipline: d, Metrics: net.Metrics(), Sched: net.SchedStats()}
	for i, f := range flows {
		if nd := &nodes[f.Dst]; slot[i] < len(nd.received) {
			res.Delivered += nd.received[slot[i]]
		}
	}
	// Transit system calls: everything delivered at non-endpoints.
	endpoints := make(map[core.NodeID]bool, 2*len(flows))
	for _, f := range flows {
		endpoints[f.Src] = true
		endpoints[f.Dst] = true
	}
	for u, n := range net.DeliveriesPerNode() {
		if !endpoints[core.NodeID(u)] {
			res.TransitSyscalls += n
		}
	}
	if finish > 0 {
		for u, b := range net.BusyTimePerNode() {
			share := float64(b) / float64(finish)
			if share > res.MaxUtilization {
				res.MaxUtilization = share
			}
			if !endpoints[core.NodeID(u)] && share > res.MaxTransitUtilization {
				res.MaxTransitUtilization = share
			}
		}
	}
	return res, nil
}

// RandomFlows generates k flows with distinct endpoints and the given
// packet count each, deterministically per seed. A graph with fewer than two
// nodes has no such flow and gets none.
func RandomFlows(g *graph.Graph, k, packets int, seed int64) []Flow {
	if g.N() < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	flows := make([]Flow, 0, k)
	for len(flows) < k {
		src := core.NodeID(rng.Intn(g.N()))
		dst := core.NodeID(rng.Intn(g.N()))
		if src == dst {
			continue
		}
		flows = append(flows, Flow{Src: src, Dst: dst, Packets: packets})
	}
	return flows
}
