package core

import (
	"errors"
	"fmt"

	"fastnet/internal/anr"
)

// Delivery is one NCU activation produced by routing a packet: a selective
// copy at a forwarding node or the terminal delivery at the route's end. The
// Packet is what Node's NCU is handed, its Payload what reached Node (a
// corruption fault upstream shows there).
type Delivery struct {
	Packet
	Node NodeID
	// Copy is true for selective-copy deliveries.
	Copy bool
	// Reordered marks deliveries behind a fault that delayed the packet; the
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

// HopKind is what the switching subsystem at one node does with a packet.
type HopKind uint8

const (
	hopOn       HopKind = iota // forward on Hop.Port, after a copy if Hop.Copy
	HopTerminal                // ID 0: the packet ends at the local NCU
	HopFiltered                // the §7 filter discarded the packet in transit
)

// Hop is what StepHop decided. A forwarding hop leaves on Port, the live
// port its ID names; a dead port (!Port.Up) drops the packet there, after
// the copy, since the NCU link is always up.
type Hop struct {
	Kind HopKind
	Copy bool // the NCU gets the remaining packet before it moves on
	Port Port
}

// StepHop is one switching subsystem (§1) at node at, whose live link row is
// row, about to consume position i of an admitted header h: the leading ID 0
// terminates at the NCU; in transit (i > 0) the filter, if any, sees payload
// and may discard the packet (§7); any other ID names the port the packet
// leaves on, and a copy bit also hands the NCU the rest of the route. Both
// runtimes take every hop through here; what the hop costs in time and what
// the link then does to the packet (MsgFaults.Cross) are theirs to apply.
func StepHop(row []Port, h anr.Header, i int, at NodeID, filter HopFilter, payload any) Hop {
	hop := h[i]
	if hop.Link == anr.NCU {
		return Hop{Kind: HopTerminal}
	}
	if i > 0 && filter != nil && !filter(at, payload) {
		return Hop{Kind: HopFiltered}
	}
	return Hop{Copy: hop.Copy, Port: row[hop.Link-1]}
}

// WalkRoute performs the switching-subsystem traversal of header h injected
// at node src over a fabric whose links are all up, with no timing: the
// oracle that routes built by protocols are replayed on, admitting h as a
// runtime would before the first hop.
func WalkRoute(pm *PortMap, src NodeID, h anr.Header) (Traversal, error) {
	if err := pm.Admit(new(Metrics), src, h, 0); err != nil {
		return Traversal{}, fmt.Errorf("walk from node %d: %w", src, err)
	}
	return WalkRouteFaults(pm.ports, nil, nil, src, h, nil), nil
}

// FaultRoller is what the link does to one traversal out of node at of a
// packet carrying payload: a runtime's MsgFaults.Cross over its fault
// stream, with the fault counted. It is called once per live-link traversal,
// duplicate branches included.
type FaultRoller func(at NodeID, payload any) (MsgFault, any, Time)

// WalkRouteFaults is the untimed walk of a header pm.Admit has admitted (so
// branches cannot fail mid-walk) over the live link table links: StepHop at
// every node, with filter (if non-nil) seeing payload in transit, and roll
// (if non-nil) perturbing each live-link traversal. A duplicate branch
// re-walks the remaining header, so its hops and deliveries are accounted
// again — the duplicate physically retraverses the fabric.
func WalkRouteFaults(links Links, filter HopFilter, roll FaultRoller, src NodeID, h anr.Header, payload any) Traversal {
	w := walker{links: links, filter: filter, roll: roll, h: h}
	var tr Traversal
	rev := make(anr.Header, h.HopCount()+1)
	rev[len(rev)-1] = anr.Hop{Link: anr.NCU}
	w.walk(&tr, branch{cur: src, rev: rev, arrivedOn: anr.NCU, pl: payload})
	return tr
}

// walker is the inputs of one WalkRouteFaults call. The traversal every
// branch of the packet adds to is passed beside it, not held in it: the
// deliveries go to the heap, and what shares a struct with them is taken to
// go there too — the caller's roll closure, which the goroutine runtime
// builds for every send and which must stay on its stack.
type walker struct {
	links  Links
	filter HopFilter
	roll   FaultRoller
	h      anr.Header
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
	reordered bool
}

// walk carries b to the end of its route, or to whatever stops it.
func (w *walker) walk(tr *Traversal, b branch) {
	for ; b.i < len(w.h); b.i++ {
		d := Delivery{Packet: Packet{Payload: b.pl, Reverse: b.rev[len(b.rev)-1-b.i:], ArrivedOn: b.arrivedOn}, Node: b.cur, Reordered: b.reordered}
		hop := StepHop(w.links[b.cur], w.h, b.i, b.cur, w.filter, b.pl)
		switch hop.Kind {
		case HopTerminal:
			tr.Deliveries = append(tr.Deliveries, d)
			return
		case HopFiltered:
			tr.Filtered = append(tr.Filtered, b.cur)
			return
		}
		if hop.Copy {
			d.Remaining, d.ForwardedOn, d.Copy = w.h[b.i+1:].Clone(), hop.Port.Local, true
			tr.Deliveries = append(tr.Deliveries, d)
		}
		if !hop.Port.Up {
			tr.Dropped = append(tr.Dropped, b.cur)
			return
		}
		f, delay := faultNone, Time(0)
		if w.roll != nil {
			f, b.pl, delay = w.roll(b.cur, b.pl)
		}
		if f == FaultDrop {
			return
		}
		// No delay model here: a delayed packet is simply one that later
		// traffic may overtake, so it is delivered reordered.
		b.reordered = b.reordered || delay > 0
		tr.Hops++
		// Extend the reverse route: from the next node, first traverse back
		// over this link, then follow the previous reverse route.
		b.rev[len(b.rev)-2-b.i] = anr.Hop{Link: hop.Port.RemoteID}
		b.cur, b.arrivedOn = hop.Port.Remote, hop.Port.RemoteID
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
