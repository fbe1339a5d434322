// Package anr implements Automatic Network Routing headers — the source
// routes consumed by the paper's switching subsystems (SS).
//
// A packet is a string of bits x·y: the SS pops the leading link ID x and
// forwards y on every incident link whose ID set contains x. Each link holds
// a normal ID and a copy ID (the normal ID with the copy bit set); the link
// to the Network Control Unit (NCU) holds the reserved ID 0 plus every copy
// ID, so a copy hop delivers the remaining packet both onward and to the
// local NCU ("selective copy"). Link IDs are k = O(log m) bits wide; this
// package provides a bit-exact wire encoding in addition to the structured
// in-memory form used by the simulators.
package anr

import (
	"errors"
	"fmt"
	"strings"
)

// ID is a link identifier local to one switching subsystem. ID 0 is reserved
// for the incident link leading to the NCU at every node.
type ID uint32

// NCU is the reserved link ID of the processor at every node.
const NCU ID = 0

// maxLinkID bounds link IDs so that they fit the wire encoding (the copy bit is
// carried separately).
const maxLinkID ID = 1<<20 - 1

// Hop is one header element: a local link ID plus the copy bit. A hop with
// Link == NCU terminates the route at the local processor (the copy bit is
// meaningless there and must be clear).
type Hop struct {
	Link ID
	Copy bool
}

// Header is an ANR source route: the concatenation of local link IDs along a
// path, ending with the NCU terminator of the destination node.
type Header []Hop

// Errors reported by header validation and the wire codec.
var (
	ErrEmptyHeader  = errors.New("anr: empty header")
	ErrNoTerminator = errors.New("anr: header does not end with the NCU hop")
	ErrEarlyNCU     = errors.New("anr: NCU hop before end of header")
	ErrCopyToNCU    = errors.New("anr: copy bit set on NCU hop")
	ErrIDRange      = errors.New("anr: link ID exceeds encoding width")
	ErrTruncated    = errors.New("anr: truncated wire encoding")
	ErrPathTooLong  = errors.New("anr: path exceeds dmax")
)

// Direct builds the header for a plain point-to-point route: every hop uses
// the normal link ID and only the final NCU receives the packet.
func Direct(links []ID) Header {
	return AppendDirect(make(Header, 0, len(links)+1), links)
}

// AppendDirect appends Direct(links)'s hops to h, so many headers can share
// one backing array.
func AppendDirect(h Header, links []ID) Header {
	for _, l := range links {
		h = append(h, Hop{Link: l})
	}
	return append(h, Hop{Link: NCU})
}

// oneHopTable bounds the shared one-hop headers: link IDs are a node's port
// numbers, 1 to its degree.
const oneHopTable = 256

// oneHops holds the one-hop headers {x, NCU} of the link IDs below
// oneHopTable, back to back: OneHop hands out windows of it, so it is never
// written after init.
var oneHops = func() []Hop {
	hops := make([]Hop, 2*oneHopTable)
	for x := range oneHopTable {
		hops[2*x].Link = ID(x)
	}
	return hops
}()

// OneHop returns Direct([]ID{x}), the route over link x to the neighbour's
// NCU. For x below oneHopTable the header is a window of one shared table,
// capped at its length so that an append moves it out: it costs no
// allocation, and callers must not write it.
func OneHop(x ID) Header {
	if x >= oneHopTable {
		return Direct([]ID{x})
	}
	return oneHops[2*x : 2*x+2 : 2*x+2]
}

// CopyPath builds the header for the paper's path broadcast: the first hop is
// normal (the sender already holds the message), every intermediate hop sets
// the copy bit so the forwarding node's NCU receives the packet, and the
// final node receives it via the NCU terminator. With this header every node
// on the path except the sender performs exactly one system call.
func CopyPath(links []ID) Header {
	h := make(Header, 0, len(links)+1)
	for i, l := range links {
		h = append(h, Hop{Link: l, Copy: i > 0})
	}
	return append(h, Hop{Link: NCU})
}

// Local is the degenerate route that delivers to the sender's own NCU.
func Local() Header { return Header{{Link: NCU}} }

// Concat joins two routes: a's NCU terminator is dropped and b is appended,
// yielding the route that follows a to its destination and continues along b.
// Both inputs must be valid headers.
func Concat(a, b Header) Header {
	h := make(Header, 0, len(a)-1+len(b))
	h = append(h, a[:len(a)-1]...)
	return append(h, b...)
}

// HopCount returns the number of link traversals the route performs (the NCU
// terminator is not a link traversal).
func (h Header) HopCount() int {
	if len(h) == 0 {
		return 0
	}
	return len(h) - 1
}

// Validate checks structural well-formedness: non-empty, exactly one NCU hop
// located at the end, no copy bit on the terminator, and all IDs in range.
func (h Header) Validate() error {
	if len(h) == 0 {
		return ErrEmptyHeader
	}
	last := h[len(h)-1]
	if last.Link != NCU {
		return ErrNoTerminator
	}
	if last.Copy {
		return ErrCopyToNCU
	}
	for i, hop := range h[:len(h)-1] {
		if hop.Link == NCU {
			return fmt.Errorf("%w (position %d)", ErrEarlyNCU, i)
		}
		if hop.Link > maxLinkID {
			return fmt.Errorf("%w (position %d: %d)", ErrIDRange, i, hop.Link)
		}
	}
	return nil
}

// CheckDmax enforces the model's path-length restriction: the route may
// traverse at most dmax links. dmax <= 0 means unrestricted.
func (h Header) CheckDmax(dmax int) error {
	if dmax > 0 && h.HopCount() > dmax {
		return fmt.Errorf("%w (%d hops > dmax %d)", ErrPathTooLong, h.HopCount(), dmax)
	}
	return nil
}

// Clone returns an independent copy of the header.
func (h Header) Clone() Header {
	return append(Header(nil), h...)
}

// String renders the route compactly, e.g. "3 >5* >0" where * marks copy hops.
func (h Header) String() string {
	var b strings.Builder
	for i, hop := range h {
		if i > 0 {
			b.WriteString(" >")
		}
		fmt.Fprintf(&b, "%d", hop.Link)
		if hop.Copy {
			b.WriteByte('*')
		}
	}
	return b.String()
}
