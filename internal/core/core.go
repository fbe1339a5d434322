// Package core defines the model shared by every fastnet runtime and
// protocol: node identity, the NCU-facing environment, the protocol
// interface, and the paper's cost measures (hop / communication complexity,
// system-call complexity, and time under per-hop hardware delay C and
// per-activation software delay P).
//
// Two runtimes implement the contract: internal/sim (a deterministic
// discrete-event simulator used for the complexity measurements) and
// internal/gosim (a goroutine/channel runtime used to exercise protocols
// under real asynchrony). Protocol code is written once against this package
// and runs unchanged on both; so does the hardware model both call (link
// state, send admission, the fault ledger — docs/MODEL.md maps its clauses).
package core

import (
	"math/rand"

	"fastnet/internal/anr"
	"fastnet/internal/graph"
)

// NodeID identifies a node; it aliases graph.NodeID so protocols can consume
// graph structures directly.
type NodeID = graph.NodeID

// None is the "no node" sentinel.
const None = graph.None

// Time is virtual time in the discrete-event runtime. The goroutine runtime
// reports a causally monotone event ordinal instead of model time.
type Time int64

// Port describes one incident link as seen from a node's NCU: the local link
// ID used in ANR headers, the remote node, and the remote side's local link
// ID for the same physical link. Knowing the remote ID is the standard
// data-link initialization assumption ([BS84] in the paper): the link setup
// handshake exchanges both endpoints' IDs.
type Port struct {
	Local    anr.ID
	Remote   NodeID
	RemoteID anr.ID
	Up       bool
}

// Packet is what an NCU receives in one activation (one system call).
type Packet struct {
	// Payload is the protocol message. Payload values must be treated as
	// immutable by receivers: the same value may be delivered to several
	// NCUs by copy hops.
	Payload any
	// Remaining is the unconsumed part of the ANR header at delivery time.
	// For a terminal delivery it is empty; for a selective-copy delivery it
	// is the route the packet continues on.
	Remaining anr.Header
	// Reverse is a valid ANR route from this node back to the original
	// sender, accumulated hop by hop by the hardware (the paper's
	// reverse-path facility, §2).
	Reverse anr.Header
	// ArrivedOn is the local link the packet arrived on; anr.NCU for
	// injected (external) packets.
	ArrivedOn anr.ID
	// ForwardedOn is, for a selective-copy delivery, the local link the SS
	// forwarded the packet onward on (the hop it consumed); anr.NCU for
	// terminal and injected deliveries. The SS knows it, so handing it to
	// the NCU costs nothing.
	ForwardedOn anr.ID
	// Injected marks packets delivered by the experiment driver rather than
	// the network (e.g. the START message of leader election).
	Injected bool
}

// Env is the NCU's view of its node, passed to every Protocol callback.
// Env methods must only be called from within the callback that received the
// Env value (activations are serialized per node).
type Env interface {
	// ID returns this node's identity.
	ID() NodeID
	// Ports returns the incident links in ascending local-ID order. The
	// returned slice is shared; callers must not modify it. Up reflects the
	// most recent data-link notification.
	Ports() []Port
	// PortToward returns the port whose remote end is nb.
	PortToward(nb NodeID) (Port, bool)
	// Send hands one packet to the local switching subsystem. The header is
	// consumed hop by hop at hardware speed; only NCU deliveries cost
	// system calls. Send fails if the header is malformed or exceeds dmax.
	Send(h anr.Header, payload any) error
	// Multicast sends the same payload over several routes within this one
	// activation — the model's free multicast ("transmission of the same
	// message over multiple outgoing links at no extra processing cost",
	// §2). The routes must start on pairwise distinct local links: the
	// primitive fans out over links, so at most degree-many routes fit one
	// activation. This constraint is what makes "send directly to each
	// node" cost O(n) time while the branching-paths broadcast (one path
	// per child link) costs O(1) per relay — the paper's §3 comparison.
	Multicast(hs []anr.Header, payload any) error
	// Now returns the current virtual time (discrete-event runtime) or a
	// causally monotone ordinal (goroutine runtime).
	Now() Time
	// Rand returns this node's deterministic random source.
	Rand() *rand.Rand
}

// Protocol is the software running on an NCU. Implementations must be
// deterministic functions of (state, callback arguments, Env.Rand()) so that
// discrete-event runs replay exactly.
type Protocol interface {
	// Init runs once before any packet is delivered. It performs no system
	// call and must not send (use an injected start packet to trigger
	// activity, mirroring the paper's START message).
	Init(env Env)
	// Deliver runs once per system call: the NCU receives one packet.
	Deliver(env Env, pkt Packet)
	// LinkEvent reports a data-link state change for a local port. It is an
	// NCU activation (counted as a system call).
	LinkEvent(env Env, port Port)
}

// Runtime is what a driver may ask of a network on either runtime without
// knowing which it holds. What genuinely differs stays on the concrete types:
// when an injected activation happens, how a run reaches quiescence, and
// whether there is anything to shut down.
type Runtime interface {
	Graph() *graph.Graph
	// PortMap is the static port assignment, for drivers that precompute
	// routes; protocols must not use it.
	PortMap() *PortMap
	// Protocol (node u's instance) and Metrics (the accumulated cost
	// measures) are for inspection once the network is quiescent.
	Protocol(u NodeID) Protocol
	Metrics() Metrics
	// LinkUp reports, and InjectLink flips now, the hardware state of edge
	// {u, v}; a flip sends both endpoint NCUs the data-link notification.
	LinkUp(u, v NodeID) bool
	InjectLink(u, v NodeID, up bool)
	// SetMsgFaults swaps the lossy-link profile for traffic sent after the
	// call.
	SetMsgFaults(f MsgFaults)
	// StallNode opens an NCU-stall window at v (gray failure: slow, not
	// dead): the discrete-event runtime inflates every activation's software
	// delay by extra for the next window time units; the goroutine runtime
	// deschedules each of the next window activations extra times.
	StallNode(v NodeID, window, extra Time)
}

// Factory builds the protocol instance for one node. Both runtimes call it
// once per node, in ID order, from the goroutine that builds the network and
// before any Init, so a factory may carve its instances from a Slab.
type Factory func(id NodeID) Protocol

// Slab hands out zeroed values of T carved from shared chunks that grow 8,
// 16, … 256, so building a network costs a few allocations per network
// rather than one per node. It is not safe for concurrent use.
type Slab[T any] struct {
	free []T
	size int
}

// New returns a zeroed value no earlier New returned.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.size = min(max(2*s.size, 8), 256)
		s.free = make([]T, s.size)
	}
	v := &s.free[0]
	s.free = s.free[1:]
	return v
}
