package core

import (
	"errors"
	"fmt"

	"fastnet/internal/anr"
)

// Delivery is one NCU activation produced by routing a packet: a selective
// copy at a forwarding node or the terminal delivery at the route's end.
type Delivery struct {
	Node NodeID
	// Remaining is the header left after this node's SS consumed its hop.
	Remaining anr.Header
	// Reverse is the accumulated route from Node back to the sender.
	Reverse anr.Header
	// ArrivedOn is Node's local ID of the link the packet arrived on
	// (anr.NCU when Node is the sender itself).
	ArrivedOn anr.ID
	// ForwardedOn is the link the SS forwarded on while copying (anr.NCU
	// for terminal deliveries).
	ForwardedOn anr.ID
	// Copy is true for selective-copy deliveries.
	Copy bool
	// HopsBefore is the number of link traversals completed before this
	// delivery; runtimes use it to time the delivery (t0 + C*HopsBefore).
	HopsBefore int
	// Payload, when non-nil, overrides the routed payload for this
	// delivery: a corruption fault upstream damaged the packet before it
	// got here.
	Payload any
	// Reordered marks deliveries behind a jitter or reorder fault; the
	// goroutine runtime honors it by enqueueing at a random inbox position.
	Reordered bool
}

// Traversal is the complete hardware-level outcome of routing one packet.
type Traversal struct {
	Deliveries []Delivery
	// Hops is the number of links actually traversed (stops early on a
	// dead link).
	Hops int
	// Dropped lists, in walk order, the node of every branch of the packet
	// that died because its outgoing link was dead, and Filtered the node of
	// every branch the programmable switching filter discarded. A duplicate
	// branch dies on its own, so one packet can appear more than once. A
	// fault drop is in neither: the roller is what accounts for faults.
	Dropped, Filtered []NodeID
}

// LinkStateFunc reports whether the physical link behind node u's local port
// l currently delivers packets. Link state is symmetric: implementations
// must answer identically from both endpoints.
type LinkStateFunc func(u NodeID, l anr.ID) bool

// HopFilter is the optional programmable switching stage of the extended
// hardware model (the paper's "update of a stored variable, table lookup
// and compare function"). It runs at hardware speed in every transit SS the
// packet crosses — never at the sender and never on the NCU terminator —
// and returning false discards the packet. Implementations may keep
// per-node registers in a closure; under the goroutine runtime they must be
// safe for concurrent use.
type HopFilter func(at NodeID, payload any) bool

// ErrMulticastLinks is returned when a multicast's routes do not start on
// pairwise distinct local links (the §2 primitive fans one message out over
// links, so it cannot carry two different routes on the same link in one
// activation).
var ErrMulticastLinks = errors.New("core: multicast routes must start on distinct links")

// multicastDense bounds the link IDs validateMulticast marks in its bitset.
// IDs are dense port numbers, far below it on any graph built here; a header
// naming a larger one (it will fail to resolve anyway) is compared against
// the earlier routes one by one instead of sizing the set to a made-up ID.
const multicastDense = 1 << 16

// validateMulticast checks the §2 multicast primitive's constraint: every
// route must be well formed and start on a different local link. First links
// are marked in a bitset that lives on the stack for IDs below 256, so the
// fan-outs protocols use cost no allocation and a wide one stays linear.
func validateMulticast(hs []anr.Header) error {
	var buf [4]uint64
	seen := buf[:]
	for i, h := range hs {
		if err := h.Validate(); err != nil {
			return err
		}
		first := h[0].Link
		dup := false
		if first < multicastDense {
			w, bit := int(first>>6), uint64(1)<<(first&63)
			if w >= len(seen) {
				seen = append(seen, make([]uint64, w+1-len(seen))...)
			}
			dup = seen[w]&bit != 0
			seen[w] |= bit
		} else {
			for _, prev := range hs[:i] {
				dup = dup || prev[0].Link == first
			}
		}
		if dup {
			return fmt.Errorf("%w (link %d used twice)", ErrMulticastLinks, first)
		}
	}
	return nil
}

// Multicast is Env.Multicast over a runtime's route (Env.Send is its one-route
// case, with no distinct-links rule to check): one Send counted into m
// however many routes there are, each handed to route in order, stopping at
// the first one refused — the routes before it are already in flight.
func Multicast(m *Metrics, hs []anr.Header, route func(anr.Header) error) error {
	if err := validateMulticast(hs); err != nil {
		return err
	}
	m.Sends++
	for _, h := range hs {
		if err := route(h); err != nil {
			return err
		}
	}
	return nil
}

// WalkRoute performs the switching-subsystem traversal of header h injected
// at node src, with no timing: the oracle that routes built by protocols are
// replayed on, admitting h as a runtime would before the first hop.
//
// Semantics per hop, mirroring the paper's hardware model: the current SS
// pops the leading ID; ID 0 terminates at the local NCU; a copy hop delivers
// the remaining packet to the local NCU and forwards it on the named link; a
// normal hop only forwards. Copies are delivered even when the onward link is
// dead (the NCU link is always up), after which the packet is dropped.
func WalkRoute(pm *PortMap, up LinkStateFunc, src NodeID, h anr.Header) (Traversal, error) {
	if err := pm.Admit(new(Metrics), src, h, 0); err != nil {
		return Traversal{}, fmt.Errorf("walk from node %d: %w", src, err)
	}
	return WalkRouteFaults(pm, up, nil, nil, nil, src, h, nil), nil
}

// FaultRoller decides the fault applied to one link traversal; it is called
// once per traversal, including on duplicate branches. Implementations wrap
// a MsgFaults profile around a seeded rng (and a mutex under the goroutine
// runtime). corrupt produces the damaged payload for a corruption fault.
type FaultRoller func(at NodeID) MsgFault

// WalkRouteFaults is the walk itself, of a header pm.Admit has admitted (so
// branches cannot fail mid-walk), with the extended hardware model and the
// lossy-link model: filter (if non-nil) runs in every transit SS before any
// output, payload is what it inspects, and roll (if non-nil) perturbs each
// live-link traversal. A duplicate branch re-walks the remaining header, so
// its hops and deliveries are accounted again — the duplicate physically
// retraverses the fabric.
func WalkRouteFaults(pm *PortMap, up LinkStateFunc, filter HopFilter, roll FaultRoller, corrupt func(any) any, src NodeID, h anr.Header, payload any) Traversal {
	w := walker{pm: pm, up: up, filter: filter, roll: roll, corrupt: corrupt, h: h}
	var tr Traversal
	rev := make(anr.Header, h.HopCount()+1)
	rev[len(rev)-1] = anr.Hop{Link: anr.NCU}
	w.walk(&tr, branch{cur: src, rev: rev, arrivedOn: anr.NCU, pl: payload})
	return tr
}

// walker is the inputs of one WalkRouteFaults call. The traversal every
// branch of the packet adds to is passed beside it, not held in it: the
// deliveries go to the heap, and what shares a struct with them is taken to
// go there too — the caller's up, roll and corrupt closures, which the
// goroutine runtime builds for every send and which must stay on its stack.
type walker struct {
	pm      *PortMap
	up      LinkStateFunc
	filter  HopFilter
	roll    FaultRoller
	corrupt func(any) any
	h       anr.Header
}

// branch is one copy of the packet in flight: where it is, the header index
// it is about to consume, and what the hops behind it did to it. rev is the
// packet's one reverse-route buffer, filled back to front as in the
// discrete-event runtime: the reverse route at header index i is
// rev[len(rev)-1-i:], a tail with cap == len, so every delivery gets its own
// without a per-hop copy. A duplicate branch shares the buffer: it writes the
// same positions with the same route-determined values.
type branch struct {
	cur       NodeID
	i         int
	rev       anr.Header
	arrivedOn anr.ID
	pl        any
	tainted   bool // pl replaced the routed payload: a corruption fault upstream
	reordered bool
	hops      int
}

// walk carries b to the end of its route, or to whatever stops it.
func (w *walker) walk(tr *Traversal, b branch) {
	for ; b.i < len(w.h); b.i++ {
		hop := w.h[b.i]
		d := Delivery{Node: b.cur, Reverse: b.rev[len(b.rev)-1-b.i:], ArrivedOn: b.arrivedOn, HopsBefore: b.hops, Reordered: b.reordered}
		if b.tainted {
			d.Payload = b.pl
		}
		if hop.Link == anr.NCU {
			tr.Deliveries = append(tr.Deliveries, d)
			return
		}
		if b.i > 0 && w.filter != nil && !w.filter(b.cur, b.pl) {
			tr.Filtered = append(tr.Filtered, b.cur)
			return
		}
		if hop.Copy {
			d.Remaining = w.h[b.i+1:].Clone()
			d.ForwardedOn = hop.Link
			d.Copy = true
			tr.Deliveries = append(tr.Deliveries, d)
		}
		if !w.up(b.cur, hop.Link) {
			tr.Dropped = append(tr.Dropped, b.cur)
			return
		}
		f := faultNone
		if w.roll != nil {
			f = w.roll(b.cur)
		}
		switch f {
		case FaultDrop:
			return
		case FaultCorrupt:
			b.pl = w.corrupt(b.pl)
			b.tainted = true
		case FaultJitter, FaultReorder, FaultSlowdown:
			// No delay model here: a delayed packet is simply one that later
			// traffic may overtake, so it is delivered reordered.
			b.reordered = true
		}
		tr.Hops++
		b.hops++
		// Extend the reverse route: from the next node, first traverse
		// back over this link, then follow the previous reverse route.
		port, _ := w.pm.Resolve(b.cur, hop.Link) // admitted: cannot fail
		b.rev[len(b.rev)-2-b.i] = anr.Hop{Link: port.RemoteID}
		b.arrivedOn = port.RemoteID
		b.cur = port.Remote
		if f == FaultDup {
			// The duplicate also crossed the link: account its hop and
			// continue it independently from the far end.
			tr.Hops++
			dup := b
			dup.i++
			w.walk(tr, dup)
		}
	}
}
